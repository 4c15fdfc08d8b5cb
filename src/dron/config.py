"""Experiment configuration: flat key=value files with '#' comments.

Defaults follow the shared training setup (discount 0.9, AdaGrad at 0.0005,
batch 64, exploration 0.3 -> 0.1 over 500k steps, fifty epochs); anything can
be overridden per run. Unknown keys and malformed values are rejected with
the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .errors import ConfigurationError

ENVIRONMENTS = ("soccer", "quizbowl")
AGENT_KINDS = ("dqn", "dron_concat", "dron_moe")
MULTITASK = ("none", "action", "type")
SOCCER_OPPONENTS = ("mixed", "offensive", "defensive")
QUIZ_OPPONENTS = ("mixed", "type1", "type2", "type3", "type4", "self")


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "soccer"
    agent: str = "dqn"
    experts: int = 3
    multitask: str = "none"
    multitask_weight: float = 1.0
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
    # quizbowl environment knobs
    vocab: int = 50
    question_min: int = 60
    question_max: int = 120
    belief_alpha: float = 8.0
    belief_kappa: float = 1.0
    opponent_pool: int = 40

    def __post_init__(self) -> None:
        # every rule names the keys it found at fault, so that parse_config
        # can point at the line that set the last of them
        if self.environment not in ENVIRONMENTS:
            raise ConfigurationError(f"unknown environment {self.environment!r}",
                                     keys=("environment",))
        if self.agent not in AGENT_KINDS:
            raise ConfigurationError(f"unknown agent kind {self.agent!r}", keys=("agent",))
        if self.multitask not in MULTITASK:
            raise ConfigurationError(f"unknown multitask mode {self.multitask!r}",
                                     keys=("multitask",))
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {self.gamma}",
                                     keys=("gamma",))
        if not self.seeds:
            raise ConfigurationError("at least one seed is required", keys=("seeds",))
        if self.learning_rate <= 0.0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}",
                keys=("learning_rate",))
        for key in ("batch_size", "target_sync", "replay_capacity", "opponent_pool"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}",
                                         keys=(key,))
        if self.replay_min > self.replay_capacity:
            raise ConfigurationError(
                f"replay_min ({self.replay_min}) exceeds replay_capacity "
                f"({self.replay_capacity}), so no update would ever run",
                keys=("replay_min", "replay_capacity"))
        if self.vocab < 2:
            raise ConfigurationError(f"vocab must be >= 2, got {self.vocab}", keys=("vocab",))
        if not 1 <= self.question_min <= self.question_max:
            raise ConfigurationError(
                f"question_min ({self.question_min}) and question_max ({self.question_max}) "
                f"must satisfy 1 <= question_min <= question_max",
                keys=("question_min",) if self.question_min < 1
                else ("question_min", "question_max"))
        if self.agent == "dron_moe" and self.experts < 1:
            raise ConfigurationError(f"experts must be >= 1 for dron_moe, got {self.experts}",
                                     keys=("agent", "experts"))
        if self.agent == "dqn" and self.multitask != "none":
            raise ConfigurationError(
                f"multitask must be none for dqn (no opponent tower), got {self.multitask!r}",
                keys=("agent", "multitask"))
        if not (self.epsilon_start >= self.epsilon_end >= 0.0):
            raise ConfigurationError("epsilon_start must be >= epsilon_end >= 0",
                                     keys=("epsilon_start", "epsilon_end"))
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


_BOOL_NONE = {"none": None, "off": None}


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
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    type_map = {
        f.name: (type(getattr(ExperimentConfig(), f.name))
                 if getattr(ExperimentConfig(), f.name) is not None else float)
        for f in fields(ExperimentConfig)
    }
    overrides = {}
    line_of = {}  # key -> the line that last set it
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r}")
        overrides[key] = _parse_value(key, raw, type_map[key], line_no)
        line_of[key] = line_no
    try:
        return ExperimentConfig(**overrides)
    except ConfigurationError as exc:
        # a rule names the line of the last key at fault that the text set;
        # a key left at its default has no line
        lines = [line_of[key] for key in exc.keys if key in line_of]
        if not lines:
            raise
        raise ConfigurationError(f"line {max(lines)}: {exc}", keys=exc.keys) from None
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from None


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
