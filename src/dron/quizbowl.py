"""Synthetic incremental question-answering buzzing game.

A question is a sequence of L words. A belief vector over V candidate
answers sharpens as words are revealed: at word t the true answer's logit
carries a bonus alpha*(t/L)^kappa on top of unit-normal noise, so the
argmax accuracy climbs from chance to near-certainty across the question.
The agent chooses buzz/wait at every word; a simulated opponent buzzes at a
position drawn from its profile and answers correctly with its
characteristic accuracy. Payoffs follow quiz-bowl scoring: +10 for a
correct buzz (``REWARD_CORRECT``), -5 for a wrong one (``REWARD_WRONG``; the
buzzer is then locked out), -10 when the opponent answers correctly
(``REWARD_OPPONENT_CORRECT``). The opponent-free baseline is paid the shaped
``SELF_REWARD_CORRECT`` and ``SELF_REWARD_WRONG`` instead (``dqnself_reward``).

The one event per word that callers must see is the opponent's buzz, since
the opponent features are built from the buzzes each opponent has made.
``step`` and ``finish_locked_out`` report it as their last value: ``None``
when the opponent did not buzz, else whether it answered right. The agent's
own buzz needs no report: its caller chose the action and can read
``belief_correct`` before stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, UsageError

ACTIONS = ("wait", "buzz")
WAIT, BUZZ = range(len(ACTIONS))

POPULATION_PRESETS = ("mixed", "type1", "type2", "type3", "type4")

# per-bucket mean buzz fraction, accuracy at buzz, and mixture weight
_BUCKET_MU = (0.15, 0.38, 0.62, 0.88)
_BUCKET_RHO = (0.6, 0.8, 0.85, 0.9)
_BUCKET_WEIGHT = (4.8, 18.0, 0.7, 1.3)
_BUCKET_SPREAD = 0.08  # every opponent's buzz-fraction spread (sigma)
_MU_JITTER = 0.04  # each opponent's mean buzz fraction is its bucket's +- this

REWARD_CORRECT = 10.0
REWARD_WRONG = -5.0
REWARD_OPPONENT_CORRECT = -10.0
# shaped rewards for the opponent-free baseline: (buzz, wait) per
# prediction-correct and prediction-wrong
SELF_REWARD_CORRECT = (10.0, -10.0)
SELF_REWARD_WRONG = (-15.0, 15.0)


@dataclass(frozen=True)
class QuizConfig:
    """The quiz game's settings as the run config's keys, in the order a
    checkpoint writes its ``env.<key>`` lines. ``ExperimentConfig`` takes
    these defaults and checks the rules. Only the harness reads
    ``opponent_pool``, the size of the pool it draws."""

    vocab: int = 50
    question_min: int = 60  # shortest question, in words
    question_max: int = 120
    belief_alpha: float = 8.0  # belief sharpening scale
    belief_kappa: float = 1.0  # belief sharpening exponent
    opponent_pool: int = 40


DEFAULT_QUIZ_CONFIG = QuizConfig()


@dataclass
class OpponentProfile:
    """Simulator-side ground truth plus the agent-visible history."""

    mean_buzz_frac: float  # mu
    spread: float  # sigma
    accuracy: float  # rho, chance the answer is right at buzz time
    games: int = 0
    frac_sum: float = 0.0
    error_sum: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_buzz_frac <= 1.0:
            raise ConfigurationError("mean buzz fraction must lie in (0, 1]")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigurationError("accuracy must lie in [0, 1]")

    # historical statistics are seeded with a (0.5, 0.5) prior pseudo-count
    @property
    def historical_buzz_frac(self) -> float:
        return (0.5 + self.frac_sum) / (1 + self.games)

    @property
    def historical_error_rate(self) -> float:
        return (0.5 + self.error_sum) / (1 + self.games)

    def record_buzz(self, fraction: float, wrong: bool) -> None:
        self.games += 1
        self.frac_sum += fraction
        self.error_sum += 1.0 if wrong else 0.0


def make_population(preset: str, rng: np.random.Generator,
                    size: int = QuizConfig.opponent_pool) -> Tuple[OpponentProfile, ...]:
    """Built-in opponent pools of `size` opponents: one per buzz-position
    bucket, plus a mixture that splits `size` over the buckets by the bucket
    episode counts (largest remainder, ties to the lower bucket). An episode
    draws its opponent from the pool uniformly (`sample_episode`)."""
    if preset not in POPULATION_PRESETS:
        raise ConfigurationError(f"unknown population preset {preset!r}")
    if size < 1:
        raise ConfigurationError(f"population size must be >= 1, got {size}")
    if preset == "mixed":
        quotas = size * np.array(_BUCKET_WEIGHT) / sum(_BUCKET_WEIGHT)
        counts = np.floor(quotas).astype(int)
        # a stable sort keeps equal remainders in bucket order
        counts[np.argsort(counts - quotas, kind="stable")[: size - counts.sum()]] += 1
        buckets = np.repeat(np.arange(len(counts)), counts)
    else:
        buckets = np.full(size, int(preset[-1]) - 1)
    # the same doubles as one rng.random() per opponent, in pool order
    mus = np.array(_BUCKET_MU)[buckets] + _MU_JITTER * (2.0 * rng.random(size) - 1.0)
    return tuple(
        OpponentProfile(mean_buzz_frac=mu, spread=_BUCKET_SPREAD, accuracy=_BUCKET_RHO[b])
        for b, mu in zip(buckets.tolist(), np.clip(mus, 0.01, 1.0).tolist()))


@dataclass
class QuizState:
    t: int
    length: int
    answer: int
    belief: np.ndarray  # log probabilities, length V
    prev_belief: np.ndarray
    agent_locked: bool = False
    opponent_locked: bool = False
    opponent_buzz_pos: int = 1  # hidden from featurization
    opponent_correct: bool = False  # pre-drawn outcome of the opponent's buzz
    done: bool = False


def _draw_belief(t: int, length: int, answer: int, config: QuizConfig,
                 rng: np.random.Generator) -> np.ndarray:
    logits = rng.standard_normal(config.vocab)
    logits[answer] += config.belief_alpha * (t / length) ** config.belief_kappa
    shifted = logits - logits.max()
    return shifted - math.log(np.exp(shifted).sum())


def sample_episode(
    config: QuizConfig, pool: Sequence[OpponentProfile], rng: np.random.Generator
) -> Tuple[QuizState, OpponentProfile]:
    """Draw a question, an answer, and an opponent from `pool`, uniformly;
    pre-draw the opponent's buzz position (clamped to [1, L]) and its
    correctness."""
    length = int(rng.integers(config.question_min, config.question_max + 1))
    answer = int(rng.integers(0, config.vocab))
    profile = pool[int(rng.integers(0, len(pool)))]
    z = rng.standard_normal()
    pos = int(round(length * (profile.mean_buzz_frac + profile.spread * z)))
    pos = min(length, max(1, pos))
    correct = rng.random() < profile.accuracy
    uniform = np.full(config.vocab, -math.log(config.vocab))
    state = QuizState(
        t=0, length=length, answer=answer,
        belief=_draw_belief(0, length, answer, config, rng),
        prev_belief=uniform,
        opponent_buzz_pos=pos, opponent_correct=correct,
    )
    return state, profile


# The two successors below build QuizState directly rather than through
# dataclasses.replace, which costs several times as much per word.


def _advanced(state: QuizState, agent_locked: bool, opponent_locked: bool,
              config: QuizConfig, rng: np.random.Generator) -> QuizState:
    t = state.t + 1
    return QuizState(
        t=t, length=state.length, answer=state.answer,
        belief=_draw_belief(t, state.length, state.answer, config, rng),
        prev_belief=state.belief, agent_locked=agent_locked,
        opponent_locked=opponent_locked, opponent_buzz_pos=state.opponent_buzz_pos,
        opponent_correct=state.opponent_correct,
    )


def _ended(state: QuizState, agent_locked: bool, opponent_locked: bool) -> QuizState:
    return QuizState(
        t=state.t, length=state.length, answer=state.answer, belief=state.belief,
        prev_belief=state.prev_belief, agent_locked=agent_locked,
        opponent_locked=opponent_locked, opponent_buzz_pos=state.opponent_buzz_pos,
        opponent_correct=state.opponent_correct, done=True,
    )


def belief_correct(state: QuizState) -> bool:
    return int(np.argmax(state.belief)) == state.answer


def step(
    state: QuizState,
    action: int,
    config: QuizConfig,
    rng: np.random.Generator,
) -> Tuple[QuizState, float, bool, Optional[bool]]:
    """One decision point. Within a step the agent's buzz resolves first,
    then the opponent's scheduled buzz, then the next word is revealed. A
    wrong buzz locks that side out and play continues; the question running
    out with no correct buzz ends the episode with no further reward. The
    last value is the opponent's buzz on this word: ``None`` if it did not
    buzz (also when the agent's correct buzz ended the game first), else
    whether it answered right. The input state is never modified."""
    if state.done:
        raise UsageError("cannot step a finished episode")
    reward = 0.0
    agent_locked, opponent_locked = state.agent_locked, state.opponent_locked

    if action == BUZZ and not agent_locked:
        if belief_correct(state):
            return _ended(state, agent_locked, opponent_locked), REWARD_CORRECT, True, None
        reward = REWARD_WRONG
        agent_locked = True

    opponent = opponent_buzz(state) if state.t == state.opponent_buzz_pos else None
    if opponent:
        reward += REWARD_OPPONENT_CORRECT
        return _ended(state, agent_locked, opponent_locked), reward, True, True
    if opponent is not None:  # a wrong answer: the opponent is locked out
        opponent_locked = True

    if state.t >= state.length:
        return _ended(state, agent_locked, opponent_locked), reward, True, opponent
    return _advanced(state, agent_locked, opponent_locked, config, rng), reward, False, opponent


def opponent_buzz(state: QuizState) -> Optional[bool]:
    """The opponent's pre-drawn buzz if it is still to come, on word
    `opponent_buzz_pos`, between the current word and the last, with the
    opponent not locked out: whether it answers right, or ``None`` if no buzz
    is left. A right answer pays `REWARD_OPPONENT_CORRECT` and ends the game;
    a wrong one pays nothing and locks the opponent out."""
    if state.opponent_locked or not state.t <= state.opponent_buzz_pos <= state.length:
        return None
    return state.opponent_correct


def finish_locked_out(state: QuizState) -> Tuple[QuizState, float, Optional[bool]]:
    """The rest of a game whose agent is locked out, settled at once: only
    the opponent's buzz is left to happen. Gives the reward, the lockouts
    and the opponent's buzz (``None`` if none is left, else whether it
    answered right) of stepping to the end (any action: a locked agent's buzz
    is ignored) in an ended state, without drawing the beliefs of the words
    in between."""
    if state.done:
        raise UsageError("cannot finish a finished episode")
    if not state.agent_locked:
        raise UsageError("only a locked-out agent's game can be finished early")
    opponent = opponent_buzz(state)
    if opponent is None:
        return _ended(state, True, state.opponent_locked), 0.0, None
    if opponent:
        return _ended(state, True, False), REWARD_OPPONENT_CORRECT, True
    return _ended(state, True, True), 0.0, False


def state_dim(vocab: int) -> int:
    """The width of `featurize`'s features for a `vocab`-answer game."""
    return 2 * vocab + 2


def featurize(state: QuizState) -> np.ndarray:
    """Current and previous belief vectors, the fraction of the question
    revealed, and whether the agent has already buzzed wrong."""
    return np.concatenate([
        state.belief,
        state.prev_belief,
        [state.t / state.length, 1.0 if state.agent_locked else 0.0],
    ])


OPPONENT_DIM = 3  # the width of `opponent_features`


def opponent_features(profile: OpponentProfile) -> np.ndarray:
    """Three features: (log-scaled) games played, historical mean buzz
    fraction, historical error rate."""
    return np.array([
        math.log1p(profile.games) / 10.0,
        profile.historical_buzz_frac,
        profile.historical_error_rate,
    ])


_TYPE_BOUNDS = (0.25, 0.5, 0.75)  # the buzz fractions between opponent types
OPPONENT_TYPES = len(_TYPE_BOUNDS) + 1  # the classes `opponent_type` returns


def opponent_type(profile: OpponentProfile) -> int:
    """Quartile (1-4) of the historical mean buzz fraction; boundary values
    fall to the lower class."""
    frac = profile.historical_buzz_frac
    return 1 + sum(frac > b for b in _TYPE_BOUNDS)


def action_supervision_target(t: int, buzz_position: int) -> float:
    """How far along the opponent is toward its buzz: min(1, t / position)."""
    if buzz_position < 1:
        raise UsageError("buzz position must be at least 1")
    return min(1.0, t / buzz_position)


def dqnself_reward(buzz: bool, prediction_correct: bool) -> float:
    """Shaped immediate reward for the opponent-free baseline."""
    pair = SELF_REWARD_CORRECT if prediction_correct else SELF_REWARD_WRONG
    return pair[0] if buzz else pair[1]
