"""Generic Q-learning machinery: replay memory, exploration schedule,
TD-target computation, and the AdaGrad update step shared by all agents."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from . import nn
from .agents import Agent, combined_loss
from .errors import ConfigurationError, TrainingError, UsageError
from .nn import ParamSet


@dataclass
class Transition:
    """One step of experience as stored in replay memory."""

    state: np.ndarray
    opponent: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    next_opponent: np.ndarray
    terminal: bool
    supervision: Optional[Union[int, float]] = None


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("replay capacity must be positive")
        self.capacity = capacity
        self._storage: List[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator) -> List[Transition]:
        """Uniform draw with replacement."""
        if not self._storage:
            raise UsageError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, len(self._storage), size=batch)
        return [self._storage[i] for i in idx]

    def items(self) -> List[Transition]:
        return list(self._storage)


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 0.3
    end: float = 0.1
    decay_steps: int = 500_000

    def __post_init__(self) -> None:
        if not (self.start >= self.end >= 0.0):
            raise ConfigurationError("epsilon schedule needs start >= end >= 0")
        if self.decay_steps < 1:
            raise ConfigurationError("decay_steps must be positive")


def epsilon_at(schedule: EpsilonSchedule, step: int) -> float:
    """Linear interpolation from start to end, clamped after decay_steps."""
    if step < 0:
        raise UsageError("step must be non-negative")
    frac = min(1.0, step / schedule.decay_steps)
    return schedule.start + (schedule.end - schedule.start) * frac


@dataclass
class QLearningConfig:
    discount: float = 0.9
    batch_size: int = 64
    target_sync: int = 500
    learning_rate: float = 0.0005
    grad_clip: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigurationError(f"discount must lie in [0, 1], got {self.discount}")
        if self.batch_size < 1 or self.target_sync < 1:
            raise ConfigurationError("batch_size and target_sync must be >= 1")


def act_epsilon_greedy(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Uniform random action with probability epsilon, else the lowest-index
    argmax."""
    q_values = np.asarray(q_values)
    if q_values.size == 0:
        raise UsageError("empty action-value vector")
    if not 0.0 <= epsilon <= 1.0:
        raise UsageError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, q_values.size))
    return int(np.argmax(q_values))


def sync_target(agent: Agent) -> ParamSet:
    """Frozen deep copy of the agent's current parameters."""
    return {name: value.copy() for name, value in agent.params.items()}


def _stack(batch: List[Transition]):
    S = np.stack([t.state for t in batch])
    O = np.stack([t.opponent for t in batch])
    NS = np.stack([t.next_state for t in batch])
    NO = np.stack([t.next_opponent for t in batch])
    r = np.array([t.reward for t in batch])
    a = np.array([t.action for t in batch], dtype=np.intp)
    term = np.array([t.terminal for t in batch], dtype=bool)
    return S, O, NS, NO, r, a, term


def q_targets(
    agent: Agent, target_params: ParamSet, batch: List[Transition], discount: float
) -> np.ndarray:
    """Per-transition target: r, plus the discounted best next-state value
    under the frozen target parameters for non-terminal transitions."""
    _, _, NS, NO, r, _, term = _stack(batch)
    targets = r.copy()
    if discount != 0.0 and not term.all():
        next_q = agent.q_values(NS, NO, params=target_params)
        targets = targets + discount * np.where(term, 0.0, next_q.max(axis=1))
    return targets


def td_update(
    agent: Agent,
    batch: List[Transition],
    config: QLearningConfig,
    opt_state: nn.AdaGradState,
    target_params: ParamSet,
) -> float:
    """One squared-TD-error AdaGrad step over a minibatch.

    Gradient flows only through the Q-value of each taken action. When the
    agent has a multitask head, transitions carrying a supervision target add
    the weighted supervision loss to the objective.
    """
    if not batch:
        raise UsageError("td_update needs a non-empty batch")
    S, O, _, _, _, a, _ = _stack(batch)
    n = len(batch)
    targets = q_targets(agent, target_params, batch, config.discount)

    fwd = agent.forward_train(S, O if agent.spec.kind != "dqn" else None)
    rows = np.arange(n)
    taken = fwd.q[rows, a]
    err = taken - targets
    q_loss = float(err @ err) / n
    dq = np.zeros_like(fwd.q)
    dq[rows, a] = 2.0 * err / n

    dsup = None
    sup_loss = 0.0
    lam = agent.spec.multitask_weight
    if agent.spec.multitask != "none":
        dsup = np.zeros_like(fwd.supervision)
        for b, t in enumerate(batch):
            if t.supervision is None:
                continue
            loss_b, grad_b = nn.loss_and_grad(
                agent.spec.multitask_loss, fwd.supervision[b], t.supervision
            )
            sup_loss += loss_b / n
            dsup[b] = lam * grad_b / n

    loss = combined_loss(q_loss, sup_loss, lam)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite training loss {loss}")

    grads = agent.backward_train(fwd, dq, dsup)
    if config.grad_clip is not None:
        clip = config.grad_clip
        for g in grads.values():
            np.clip(g, -clip, clip, out=g)
    nn.adagrad_update(agent.params, grads, opt_state)
    return loss
