"""Generic Q-learning machinery: replay memory, exploration schedule,
TD-target computation, and the AdaGrad update step shared by all agents.

Replay is one float64 ring matrix with a row per transition, laid out as
``state | opponent | next_state | next_opponent | action | reward | terminal
[| supervision]`` (the scalars one column each). The rows are the only
record of a transition: ``ReplayBuffer.push`` writes one from its fields.
Supervision belongs to the run, not to a row: a run with a multitask head
has a target on every step and a run without one on none, so the first push
fixes whether rows have the supervision column, along with the widths, and
a later push that differs in any of them is refused. The ring is allocated
uninitialised at the first push, so rows are only touched as they fill. A
sample is one gather of rows, returned as a ``Batch`` whose fields are
column views; ``q_targets`` and ``td_update`` take a ``Batch``.

``td_update(agent, batch, opt_state, target, discount, grad_clip)`` takes
the run's discount and gradient clip as arguments, as ``q_targets`` and
``nn.adagrad_update`` do, and ``epsilon_at(step, start, end, decay_steps)``
the run's three exploration values; its step size is the optimizer's
(``AdaGradState.learning_rate``). A TD step does no per-call set-up: the
target is an ``Agent`` built at each sync (``sync_target``), so its layers
are bound once per sync, and the gradient is written into the agent's own
set (``Agent.grads``) rather than a new one.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import nn
from .agents import Agent, combined_loss
from .errors import ConfigurationError, TrainingError, UsageError


class Batch:
    """Rows of the replay layout. The fields are column views of ``rows``
    (``action`` as ints, ``terminal`` as bools); ``supervision`` is None when
    the rows have no supervision column."""

    def __init__(self, rows: np.ndarray, state_dim: int, opponent_dim: int):
        ds, do = state_dim, opponent_dim
        self.rows = rows
        self.state = rows[:, :ds]
        self.opponent = rows[:, ds : ds + do]
        self.next_state = rows[:, ds + do : 2 * ds + do]
        self.next_opponent = rows[:, 2 * ds + do : 2 * (ds + do)]
        scalars = rows[:, 2 * (ds + do) :]
        self.action = scalars[:, 0].astype(np.intp)
        self.reward = scalars[:, 1]
        self.terminal = scalars[:, 2] != 0.0
        self.supervision = scalars[:, 3] if scalars.shape[1] > 3 else None

    def __len__(self) -> int:
        return self.rows.shape[0]


class ReplayBuffer:
    """Fixed-capacity ring of transitions; oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("replay capacity must be positive")
        self.capacity = capacity
        self._rows: Optional[np.ndarray] = None
        self._dims = (0, 0)  # state and opponent widths, fixed by the first push
        self._shapes = ()  # what a push must match: field shapes, then supervision
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: np.ndarray, opponent: np.ndarray, action: int, reward: float,
             next_state: np.ndarray, next_opponent: np.ndarray, terminal: bool,
             supervision: Optional[Union[int, float]]) -> None:
        """Write one transition as a row; ``supervision`` is the multitask
        target, or None in a run without a head."""
        supervised = supervision is not None
        if self._rows is None:
            ds, do = self._dims = np.size(state), np.size(opponent)
            self._shapes = ((ds,), (do,), (ds,), (do,), supervised)
            # np.empty, never filled: untouched rows cost no memory
            self._rows = np.empty((self.capacity, 2 * (ds + do) + 3 + supervised))
        shapes = (state.shape, opponent.shape, next_state.shape, next_opponent.shape,
                  supervised)
        if shapes != self._shapes:
            raise UsageError(f"transition (shapes, supervision) {shapes} differs from the "
                             f"replay layout {self._shapes}")
        scalars = (action, reward, terminal, supervision)[:3 + supervised]
        np.concatenate((state, opponent, next_state, next_opponent, scalars),
                       out=self._rows[self._next])
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> Batch:
        """Uniform draw with replacement."""
        if not self._size:
            raise UsageError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, self._size, size=batch)
        return Batch(self._rows.take(idx, axis=0), *self._dims)


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


def q_targets(target: Agent, batch: Batch, discount: float) -> np.ndarray:
    """Per-transition target: r, plus the discounted best next-state value
    under the frozen target for non-terminal transitions."""
    targets = batch.reward.copy()
    if discount != 0.0 and not batch.terminal.all():
        next_q = target.q_values(batch.next_state, batch.next_opponent)
        targets = targets + discount * np.where(batch.terminal, 0.0, next_q.max(axis=1))
    return targets


def supervision_loss(
    kind: str, predictions: np.ndarray, batch: Batch, weight: float
) -> Tuple[float, np.ndarray]:
    """Supervision loss averaged over the batch and its gradient w.r.t. the
    head output, scaled by ``weight``, from ``nn.loss_and_grad`` on the
    whole batch."""
    if batch.supervision is None:
        raise UsageError("a multitask head needs replay rows with a supervision target")
    n = len(batch)
    losses, grad = nn.loss_and_grad(kind, predictions, batch.supervision)
    # running sum in row order, as adding row by row would give
    return float(np.cumsum(losses / n)[-1]), weight * grad / n


def td_update(
    agent: Agent,
    batch: Batch,
    opt_state: nn.AdaGradState,
    target: Agent,
    discount: float,
    grad_clip: Optional[float] = None,
) -> float:
    """One squared-TD-error AdaGrad step over a minibatch: TD targets from
    ``target`` with ``discount``, a step of ``opt_state.learning_rate``, and
    each gradient coordinate clipped to +-``grad_clip`` when one is given.

    Gradient flows only through the Q-value of each taken action. When the
    agent has a multitask head, the weighted supervision loss over the rows'
    targets joins the objective. The gradient is the agent's own set
    (``Agent.grads``), used up by the AdaGrad step.
    """
    if not batch:
        raise UsageError("td_update needs a non-empty batch")
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

    grads = agent.backward_train(fwd, dq, dsup)
    nn.adagrad_update(agent.params, grads, opt_state, clip=grad_clip)
    return loss
