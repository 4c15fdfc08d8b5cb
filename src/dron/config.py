"""Experiment configuration: flat key=value files with '#' comments.

Defaults follow the shared training setup (discount 0.9, AdaGrad at 0.0005,
batch 64, exploration 0.3 -> 0.1 over 500k steps, fifty epochs); anything can
be overridden per run. Unknown keys and malformed values are rejected with
the offending line number.

The quiz game's keys are ``quizbowl.QuizConfig``'s fields, with its defaults,
and the exploration keys go straight to ``rl.epsilon_at``; only
``ExperimentConfig`` checks the rules of either. The agent's variant keys
take ``agents.AgentSpec``'s defaults and rules: the config checks them by
deriving its agent (``agent_spec_for``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, Tuple

from .agents import AgentSpec, quiz_agent_spec, soccer_agent_spec
from .errors import ConfigurationError
from .quizbowl import POPULATION_PRESETS, QuizConfig
from .soccer import MODE_POLICIES as SOCCER_OPPONENTS

ENVIRONMENTS = ("soccer", "quizbowl")
QUIZ_OPPONENTS = POPULATION_PRESETS + ("self",)


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "soccer"
    agent: str = "dqn"
    # the agent's variant: `AgentSpec`'s kind and fields, with its defaults
    experts: int = AgentSpec.experts
    multitask: str = AgentSpec.multitask
    multitask_weight: float = AgentSpec.multitask_weight
    gamma: float = 0.9
    learning_rate: float = 0.0005
    batch_size: int = 64
    target_sync: int = 500
    grad_clip: Optional[float] = None  # quizbowl defaults to 1.0 when unset
    epsilon_start: float = 0.3
    epsilon_end: float = 0.1
    epsilon_decay_steps: int = 500_000
    epochs: int = 50
    steps_per_epoch: int = 10_000
    eval_games: int = 1_000
    replay_capacity: int = 100_000
    replay_min: int = 1_000
    seeds: Tuple[int, ...] = (1,)
    opponent: str = "mixed"
    output_dir: str = "runs"
    # the quiz game's settings: `QuizConfig`'s fields, in its order
    vocab: int = QuizConfig.vocab
    question_min: int = QuizConfig.question_min
    question_max: int = QuizConfig.question_max
    belief_alpha: float = QuizConfig.belief_alpha
    belief_kappa: float = QuizConfig.belief_kappa
    opponent_pool: int = QuizConfig.opponent_pool

    def __post_init__(self) -> None:
        # every rule names the keys it found at fault, so that parse_config
        # can point at the line that set the last of them
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(f"unknown environment {self.environment!r}",
                                     keys=("environment",))
        if self.vocab < 2:
            raise ConfigurationError(f"vocab must be >= 2, got {self.vocab}", keys=("vocab",))
        agent_spec_for(self)  # `AgentSpec` checks the variant, on the sizes set above
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {self.gamma}",
                                     keys=("gamma",))
        if not self.seeds:
            raise ConfigurationError("at least one seed is required", keys=("seeds",))
        # numpy's generators take no negative seed
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, got {min(self.seeds)}",
                                     keys=("seeds",))
        # a repeated seed is one run counted twice, which narrows the interval
        repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
        if repeated:
            raise ConfigurationError(
                f"seeds must be distinct, got {', '.join(map(str, repeated))} more than once",
                keys=("seeds",))
        # a nan or inf rate would make every update non-finite
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}",
                keys=("learning_rate",))
        for key in ("batch_size", "target_sync", "replay_capacity", "opponent_pool",
                    "epsilon_decay_steps"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}",
                                         keys=(key,))
        if self.replay_min < 0:
            raise ConfigurationError(f"replay_min must be >= 0, got {self.replay_min}",
                                     keys=("replay_min",))
        if self.replay_min > self.replay_capacity:
            raise ConfigurationError(
                f"replay_min ({self.replay_min}) exceeds replay_capacity "
                f"({self.replay_capacity}), so no update would ever run",
                keys=("replay_min", "replay_capacity"))
        if not 1 <= self.question_min <= self.question_max:
            raise ConfigurationError(
                f"question_min ({self.question_min}) and question_max ({self.question_max}) "
                f"must satisfy 1 <= question_min <= question_max",
                keys=("question_min",) if self.question_min < 1
                else ("question_min", "question_max"))
        # a negative alpha pulls the belief away from the answer; kappa <= 0
        # makes the first word's bonus alpha*(0/L)^kappa undefined or alpha
        if not (math.isfinite(self.belief_alpha) and self.belief_alpha >= 0.0):
            raise ConfigurationError(
                f"belief_alpha must be finite and >= 0, got {self.belief_alpha}",
                keys=("belief_alpha",))
        if not (math.isfinite(self.belief_kappa) and self.belief_kappa > 0.0):
            raise ConfigurationError(
                f"belief_kappa must be finite and > 0, got {self.belief_kappa}",
                keys=("belief_kappa",))
        if not (self.epsilon_start >= self.epsilon_end >= 0.0):
            raise ConfigurationError("epsilon_start must be >= epsilon_end >= 0",
                                     keys=("epsilon_start", "epsilon_end"))
        if self.epsilon_start > 1.0:
            raise ConfigurationError(f"epsilon_start must be <= 1, got {self.epsilon_start}",
                                     keys=("epsilon_start",))
        # np.clip with min > max returns max, so a negative clip would set
        # every gradient to -grad_clip
        if self.grad_clip is not None and not self.grad_clip > 0.0:
            raise ConfigurationError(
                f"grad_clip must be positive or none, got {self.grad_clip}",
                keys=("grad_clip",))
        short = tuple(key for key in ("epochs", "steps_per_epoch", "eval_games")
                      if getattr(self, key) < 1)
        if short:
            raise ConfigurationError("epochs, steps_per_epoch, eval_games must be >= 1",
                                     keys=short)
        valid = SOCCER_OPPONENTS if self.environment == "soccer" else QUIZ_OPPONENTS
        if self.opponent not in valid:
            raise ConfigurationError(
                f"opponent {self.opponent!r} is not valid for {self.environment} "
                f"(choose from {valid})",
                keys=("environment", "opponent"),
            )
        if self.opponent == "self" and self.agent != "dqn":
            raise ConfigurationError("self-play training is only defined for the dqn agent",
                                     keys=("opponent", "agent"))

    @property
    def effective_grad_clip(self) -> Optional[float]:
        if self.grad_clip is not None:
            return self.grad_clip
        return 1.0 if self.environment == "quizbowl" else None


def agent_spec_for(config: ExperimentConfig) -> AgentSpec:
    """The Q-network of a run: its variant (``agent``, ``experts``,
    ``multitask``, ``multitask_weight``) on its game's standard sizes. A
    run builds its agent from this, and a checkpoint load derives the same
    spec from the header's config lines."""
    variant = dict(multitask=config.multitask, experts=config.experts,
                   multitask_weight=config.multitask_weight)
    if config.environment == "soccer":
        return soccer_agent_spec(config.agent, **variant)
    return quiz_agent_spec(config.agent, vocab=config.vocab, **variant)


def env_params_for(config: ExperimentConfig) -> dict:
    """The environment keys of a run, the fields of `QuizConfig` in its
    order (none for soccer): all a checkpoint needs to play its games,
    stored there as ``env.<key>`` lines. ``QuizConfig(**env_params)`` is
    the game they set."""
    if config.environment != "quizbowl":
        return {}
    return {f.name: getattr(config, f.name) for f in fields(QuizConfig)}


_BOOL_NONE = {"none": None, "off": None}
# a field's parse type is its default's (grad_clip defaults to None)
_TYPES = {f.name: float if f.default is None else type(f.default)
          for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, target_type, line_no: int):
    try:
        if key == "seeds":
            seeds = tuple(int(s.strip()) for s in raw.split(",") if s.strip())
            if not seeds:
                raise ValueError("empty seed list")
            return seeds
        if key == "grad_clip":
            if raw.lower() in _BOOL_NONE:
                return None
            return float(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(
            f"line {line_no}: malformed value for {key!r}: {raw!r} ({exc})"
        ) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value configuration text into an ExperimentConfig."""
    return config_from_lines(_key_values(text))


def _key_values(text: str) -> Iterator[Tuple[int, str, str]]:
    """(line number, key, raw value) for each setting line of config text."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        yield line_no, key.strip(), raw.strip()


def config_from_lines(lines: Iterable[Tuple[int, str, str]]) -> ExperimentConfig:
    """An ExperimentConfig from (line number, key, raw value) settings, in
    file order; a later setting of a key overrides an earlier one. Every
    error names the line at fault: an unknown key, a malformed value, or the
    last line that set a key a rule found at fault."""
    overrides = {}
    line_of = {}  # key -> the line that last set it
    for line_no, key, raw in lines:
        if key not in _TYPES:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r}")
        overrides[key] = _parse_value(key, raw, _TYPES[key], line_no)
        line_of[key] = line_no
    try:
        return ExperimentConfig(**overrides)
    except ConfigurationError as exc:
        # a key left at its default has no line
        at = [line_of[key] for key in exc.keys if key in line_of]
        if not at:
            raise
        raise ConfigurationError(f"line {max(at)}: {exc}", keys=exc.keys) from None


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
