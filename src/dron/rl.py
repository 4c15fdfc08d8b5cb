"""Generic Q-learning machinery: replay memory, exploration schedule,
TD-target computation, and the AdaGrad update step shared by all agents.

Replay is one float64 ring matrix with a row per transition, laid out as
``state | opponent | next_state | next_opponent | action | reward | terminal
| has_supervision | supervision`` (the last five one column each). It is
allocated uninitialised at the first push, when the widths are known, so
rows are only touched as they fill. A sample is one gather of rows, returned
as a ``Batch`` whose fields are column views; ``q_targets`` and ``td_update``
run over those stacked columns, stacking a plain list of ``Transition``s once.

``td_update(agent, batch, opt_state, target, discount, grad_clip)`` takes
the run's discount and gradient clip as arguments, as ``q_targets`` and
``nn.adagrad_update`` do, and ``epsilon_at(step, start, end, decay_steps)``
the run's three exploration values; its step size is the optimizer's
(``AdaGradState.learning_rate``). A TD step does no per-call set-up: the
target is an ``Agent`` built at each sync (``sync_target``), so its layers
are bound once per sync, and the gradient is written into the optimizer's
own vector (``AdaGradState.grads``) rather than a new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nn
from .agents import Agent, combined_loss
from .errors import ConfigurationError, TrainingError, UsageError


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


_SCALARS = 5  # action, reward, terminal, has_supervision, supervision


def _empty_rows(count: int, state_dim: int, opponent_dim: int) -> np.ndarray:
    return np.empty((count, 2 * (state_dim + opponent_dim) + _SCALARS))


def _write_row(row: np.ndarray, t: Transition, state_dim: int, opponent_dim: int) -> None:
    if (t.state.shape != (state_dim,) or t.next_state.shape != (state_dim,)
            or t.opponent.shape != (opponent_dim,) or t.next_opponent.shape != (opponent_dim,)):
        raise UsageError(
            f"transition widths differ from the replay layout "
            f"(state {state_dim}, opponent {opponent_dim})"
        )
    has = t.supervision is not None
    np.concatenate((t.state, t.opponent, t.next_state, t.next_opponent,
                    (t.action, t.reward, t.terminal, has, t.supervision if has else 0.0)),
                   out=row)


class Batch:
    """Transitions stacked as rows of the replay layout. The fields are
    column views of ``rows`` (``action`` as ints, ``terminal`` and
    ``has_supervision`` as bools); indexing and iteration give ``Transition``s,
    whose supervision comes back as a float."""

    def __init__(self, rows: np.ndarray, state_dim: int, opponent_dim: int):
        ds, do = state_dim, opponent_dim
        self.rows = rows
        self.state_dim, self.opponent_dim = ds, do
        self.state = rows[:, :ds]
        self.opponent = rows[:, ds : ds + do]
        self.next_state = rows[:, ds + do : 2 * ds + do]
        self.next_opponent = rows[:, 2 * ds + do : 2 * (ds + do)]
        scalars = rows[:, 2 * (ds + do) :]
        self.action = scalars[:, 0].astype(np.intp)
        self.reward = scalars[:, 1]
        self.terminal = scalars[:, 2] != 0.0
        self.has_supervision = scalars[:, 3] != 0.0
        self.supervision = scalars[:, 4]

    @classmethod
    def of(cls, transitions: Union["Batch", Sequence[Transition]]) -> "Batch":
        """Stack a non-empty sequence of transitions; a Batch is returned as is."""
        if isinstance(transitions, Batch):
            return transitions
        ds, do = np.size(transitions[0].state), np.size(transitions[0].opponent)
        rows = _empty_rows(len(transitions), ds, do)
        for row, t in zip(rows, transitions):
            _write_row(row, t, ds, do)
        return cls(rows, ds, do)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i: int) -> Transition:
        row = self.rows[i]
        ds, do = self.state_dim, self.opponent_dim
        action, reward, terminal, has, supervision = row[2 * (ds + do) :]
        return Transition(
            state=row[:ds], opponent=row[ds : ds + do], action=int(action),
            reward=float(reward), next_state=row[ds + do : 2 * ds + do],
            next_opponent=row[2 * ds + do : 2 * (ds + do)], terminal=bool(terminal),
            supervision=float(supervision) if has else None,
        )


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("replay capacity must be positive")
        self.capacity = capacity
        self._rows: Optional[np.ndarray] = None
        self._dims = (0, 0)  # state and opponent widths, fixed by the first push
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        if self._rows is None:
            self._dims = (np.size(transition.state), np.size(transition.opponent))
            # np.empty, never filled: untouched rows cost no memory
            self._rows = _empty_rows(self.capacity, *self._dims)
        _write_row(self._rows[self._next], transition, *self._dims)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> Batch:
        """Uniform draw with replacement."""
        if not self._size:
            raise UsageError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, self._size, size=batch)
        return Batch(self._rows.take(idx, axis=0), *self._dims)

    def items(self) -> List[Transition]:
        """Copies of the stored transitions, in slot order."""
        if not self._size:
            return []
        return list(Batch(self._rows[: self._size].copy(), *self._dims))


def epsilon_at(step: int, start: float, end: float, decay_steps: int) -> float:
    """Linear interpolation from ``start`` to ``end``, clamped after
    ``decay_steps``: a run's ``epsilon_start``, ``epsilon_end`` and
    ``epsilon_decay_steps``, whose rules the config checks."""
    if step < 0:
        raise UsageError("step must be non-negative")
    frac = min(1.0, step / decay_steps)
    return start + (end - start) * frac


def act_epsilon_greedy(agent: Agent, observation: Tuple[np.ndarray, ...], epsilon: float,
                       rng: np.random.Generator) -> int:
    """Uniform random action with probability epsilon, else the lowest-index
    argmax of ``agent.q_values(*observation)``.

    The draw comes first: when epsilon > 0, one ``rng.random()``; a random
    move then draws ``rng.integers(0, agent.spec.action_count)`` and makes no
    Q-value call, and only a greedy move runs the agent. With epsilon 0
    nothing is drawn."""
    if not 0.0 <= epsilon <= 1.0:
        raise UsageError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, agent.spec.action_count))
    q_values = np.asarray(agent.q_values(*observation))
    if q_values.size == 0:
        raise UsageError("empty action-value vector")
    return int(np.argmax(q_values))


def sync_target(agent: Agent) -> Agent:
    """The frozen target: a new agent of the same spec holding a copy of the
    agent's current parameters."""
    return Agent(agent.spec, params=agent.params)


def q_targets(
    target: Agent, batch: Union[Batch, Sequence[Transition]], discount: float
) -> np.ndarray:
    """Per-transition target: r, plus the discounted best next-state value
    under the frozen target for non-terminal transitions."""
    batch = Batch.of(batch)
    targets = batch.reward.copy()
    if discount != 0.0 and not batch.terminal.all():
        next_q = target.q_values(batch.next_state, batch.next_opponent)
        targets = targets + discount * np.where(batch.terminal, 0.0, next_q.max(axis=1))
    return targets


def supervision_loss(
    kind: str, predictions: np.ndarray, batch: Batch, weight: float
) -> Tuple[float, np.ndarray]:
    """Supervision loss averaged over the whole batch (rows without a target
    add nothing) and its gradient w.r.t. the head output, scaled by
    ``weight``. Each row equals what ``nn.loss_and_grad`` gives for it."""
    n = len(batch)
    dsup = np.zeros_like(predictions)
    rows = np.flatnonzero(batch.has_supervision)
    if not rows.size:
        return 0.0, dsup
    losses, grad = nn.loss_and_grad_rows(kind, predictions[rows], batch.supervision[rows])
    dsup[rows] = weight * grad / n
    # running sum in row order, as adding row by row would give
    return float(np.cumsum(losses / n)[-1]), dsup


def td_update(
    agent: Agent,
    batch: Union[Batch, Sequence[Transition]],
    opt_state: nn.AdaGradState,
    target: Agent,
    discount: float,
    grad_clip: Optional[float] = None,
) -> float:
    """One squared-TD-error AdaGrad step over a minibatch: TD targets from
    ``target`` with ``discount``, a step of ``opt_state.learning_rate``, and
    each gradient coordinate clipped to +-``grad_clip`` when one is given.

    Gradient flows only through the Q-value of each taken action. When the
    agent has a multitask head, transitions carrying a supervision target add
    the weighted supervision loss to the objective. The gradient is written
    into ``opt_state.grads`` and used up by the AdaGrad step.
    """
    if not batch:
        raise UsageError("td_update needs a non-empty batch")
    batch = Batch.of(batch)
    n = len(batch)
    targets = q_targets(target, batch, discount)

    fwd = agent.forward_train(batch.state, batch.opponent)
    rows = np.arange(n)
    taken = fwd.q[rows, batch.action]
    err = taken - targets
    q_loss = float(err @ err) / n
    dq = np.zeros_like(fwd.q)
    dq[rows, batch.action] = 2.0 * err / n

    dsup = None
    sup_loss = 0.0
    lam = agent.spec.multitask_weight
    if agent.spec.multitask != "none":
        sup_loss, dsup = supervision_loss(agent.spec.multitask_loss, fwd.supervision, batch, lam)

    loss = combined_loss(q_loss, sup_loss, lam)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite training loss {loss}")

    grads = agent.backward_train(fwd, dq, dsup, out=opt_state.grads)
    nn.adagrad_update(agent.params, grads, opt_state, clip=grad_clip)
    return loss
