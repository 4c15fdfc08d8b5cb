import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dron import nn, rl
from dron.agents import Agent, AgentSpec, combined_loss, quiz_agent_spec
from dron.config import ExperimentConfig
from dron.errors import UsageError


def push_args(value=0.0, action=0, reward=0.0, terminal=True, supervision=None,
              state_dim=4, opp_dim=5):
    """The arguments of one ``ReplayBuffer.push``, every feature ``value``."""
    s = np.full(state_dim, value)
    o = np.full(opp_dim, value)
    return s, o, action, reward, s.copy(), o.copy(), terminal, supervision


def layout_row(state, opponent, action, reward, next_state, next_opponent, terminal,
               supervision):
    """One transition as a row of the replay layout, written out by hand:
    ``state | opponent | next_state | next_opponent | action | reward |
    terminal [| supervision]``."""
    scalars = [action, reward, terminal] + ([] if supervision is None else [supervision])
    return np.concatenate([state, opponent, next_state, next_opponent,
                           np.array(scalars, dtype=float)])


def batch_of(pushes):
    """The transitions ``pushes`` (``push`` arguments) as one Batch, in order."""
    rows = np.array([layout_row(*args) for args in pushes])
    return rl.Batch(rows, np.size(pushes[0][0]), np.size(pushes[0][1]))


def mini_agent(kind="dqn", multitask="none", seed=0):
    outputs = {"none": 1, "type": 2}[multitask]
    spec = AgentSpec(
        kind=kind, state_dim=4, action_count=3,
        opponent_dim=0 if kind == "dqn" else 5,
        state_hidden=(6,), head_hidden=(6,), opponent_hidden=5,
        experts=2, multitask=multitask, multitask_outputs=outputs,
    )
    return Agent(spec, seed=seed)


class TestReplayBuffer:
    def test_push_grows(self):
        buf = rl.ReplayBuffer(10)
        buf.push(*push_args(1.0))
        assert len(buf) == 1

    def test_fifo_eviction(self):
        buf = rl.ReplayBuffer(2)
        for v in (1.0, 2.0, 3.0):
            buf.push(*push_args(v))
        values = set(buf.sample(200, np.random.default_rng(0)).state[:, 0].tolist())
        assert values == {2.0, 3.0}

    def test_sample_returns_pushed_item(self):
        buf = rl.ReplayBuffer(5)
        buf.push(*push_args(7.0))
        out = buf.sample(1, np.random.default_rng(0))
        assert out.state[0, 0] == 7.0

    def test_single_item_batch64(self):
        buf = rl.ReplayBuffer(5)
        buf.push(*push_args(3.0))
        out = buf.sample(64, np.random.default_rng(0))
        assert len(out) == 64
        assert np.all(out.state[:, 0] == 3.0)

    def test_deterministic_given_seed(self):
        buf = rl.ReplayBuffer(100)
        for v in range(50):
            buf.push(*push_args(float(v)))
        a = buf.sample(20, np.random.default_rng(42)).rows
        b = buf.sample(20, np.random.default_rng(42)).rows
        assert a.tobytes() == b.tobytes()

    def test_uniformity_three_sigma(self):
        buf = rl.ReplayBuffer(10)
        for v in range(10):
            buf.push(*push_args(float(v)))
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = np.bincount(buf.sample(draws, rng).state[:, 0].astype(int), minlength=10)
        sigma = math.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - draws * 0.1) <= 3 * sigma)

    def test_sample_only_stored(self):
        buf = rl.ReplayBuffer(3)
        for v in range(7):
            buf.push(*push_args(float(v)))
        sampled = set(buf.sample(200, np.random.default_rng(1)).state[:, 0].tolist())
        assert sampled <= {4.0, 5.0, 6.0}

    def test_empty_sample_raises(self):
        with pytest.raises(UsageError):
            rl.ReplayBuffer(3).sample(1, np.random.default_rng(0))


class TestEpsilonSchedule:
    # the config's defaults: 0.3 -> 0.1 over 500k steps
    PAPER = tuple(getattr(ExperimentConfig(), key)
                  for key in ("epsilon_start", "epsilon_end", "epsilon_decay_steps"))

    def test_paper_endpoints(self):
        assert rl.epsilon_at(0, *self.PAPER) == pytest.approx(0.3)
        assert rl.epsilon_at(500_000, *self.PAPER) == pytest.approx(0.1)

    def test_midpoint_and_clamp(self):
        assert rl.epsilon_at(250_000, *self.PAPER) == pytest.approx(0.2)
        assert rl.epsilon_at(800_000, *self.PAPER) == pytest.approx(0.1)

    def test_non_increasing(self):
        values = [rl.epsilon_at(s, *self.PAPER) for s in range(0, 700_000, 10_000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_step_raises(self):
        with pytest.raises(UsageError, match="non-negative"):
            rl.epsilon_at(-1, *self.PAPER)


class TestQTargets:
    def test_terminal_is_reward(self):
        agent = mini_agent()
        batch = batch_of([push_args(reward=1.0, terminal=True)])
        targets = rl.q_targets(rl.sync_target(agent), batch, 0.9)
        assert targets[0] == 1.0

    def test_zero_discount(self):
        agent = mini_agent()
        batch = batch_of([push_args(reward=r, terminal=False) for r in (-1.0, 0.5, 2.0)])
        targets = rl.q_targets(rl.sync_target(agent), batch, 0.0)
        assert np.array_equal(targets, [-1.0, 0.5, 2.0])

    def test_discounted_max(self):
        agent = mini_agent()
        # force known next-state Q-values by zeroing weights and pinning the
        # output bias of the final layer
        for name in agent.params:
            agent.params[name][:] = 0.0
        agent.params["q_net.2.bias"][:] = [0.2, 0.5, -1.0]
        batch = batch_of([push_args(reward=0.0, terminal=False)])
        targets = rl.q_targets(rl.sync_target(agent), batch, 0.9)
        assert targets[0] == pytest.approx(0.45)


class FixedQ:
    """An agent whose Q-values are a fixed vector."""

    def __init__(self, q, action_count=None):
        self.q = np.asarray(q, dtype=float)
        self.spec = SimpleNamespace(action_count=action_count or self.q.size)

    def q_values(self, phi_s, phi_o=None):
        return self.q


class CountingAgent:
    """Counts the Q-value calls of the agent it wraps."""

    def __init__(self, agent):
        self.agent = agent
        self.spec = agent.spec
        self.calls = 0

    def q_values(self, phi_s, phi_o=None):
        self.calls += 1
        return self.agent.q_values(phi_s, phi_o)


def epsilon_greedy_reference(q_values, epsilon, rng):
    """The rule with the Q-values computed first: (a uniform random action
    with probability epsilon, else the lowest-index argmax; whether the move
    was greedy)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, q_values.size)), False
    return int(np.argmax(q_values)), True


class TestActEpsilonGreedy:
    def test_greedy_argmax(self):
        rng = np.random.default_rng(0)
        assert rl.act_epsilon_greedy(FixedQ([0.1, 0.9, 0.3]), (np.zeros(4),), 0.0, rng) == 1

    def test_tie_breaks_low(self):
        rng = np.random.default_rng(0)
        assert rl.act_epsilon_greedy(FixedQ([1.0, 1.0]), (np.zeros(4),), 0.0, rng) == 0

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(5)
        draws = 10_000
        agent = FixedQ([9.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(draws):
            counts[rl.act_epsilon_greedy(agent, (np.zeros(4),), 1.0, rng)] += 1
        sigma = math.sqrt(draws * 0.2 * 0.8)
        assert np.all(np.abs(counts - draws * 0.2) <= 3 * sigma)

    def test_empty_raises(self):
        with pytest.raises(UsageError):
            rl.act_epsilon_greedy(FixedQ([], action_count=1), (np.zeros(4),), 0.0,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5])
    def test_epsilon_outside_unit_interval_raises(self, epsilon):
        with pytest.raises(UsageError, match="epsilon must lie in"):
            rl.act_epsilon_greedy(FixedQ([1.0]), (np.zeros(4),), epsilon,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_same_draws_as_computing_q_first(self, epsilon):
        # the actions and the stream's final state equal the rule applied to
        # Q-values computed on every step, and only greedy moves run the agent
        real = mini_agent(kind="dron_concat", seed=2)
        agent = CountingAgent(real)
        inputs = np.random.default_rng(9).normal(size=(2000, 9))
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = [rl.act_epsilon_greedy(agent, (x[:4], x[4:]), epsilon, got_rng) for x in inputs]
        want = [epsilon_greedy_reference(real.q_values(x[:4], x[4:]), epsilon, want_rng)
                for x in inputs]
        assert got == [action for action, _ in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert agent.calls == sum(greedy for _, greedy in want)
        assert agent.calls == {0.0: len(inputs), 1.0: 0}.get(epsilon, agent.calls)
        assert 0 < agent.calls < len(inputs) or epsilon in (0.0, 1.0)


class TestSyncTarget:
    def test_updates_do_not_leak(self):
        agent = mini_agent(seed=1)
        frozen = rl.sync_target(agent)
        assert not np.shares_memory(frozen.params.flat, agent.params.flat)
        x = np.ones(4)
        before = frozen.q_values(x)
        agent.params["q_net.0.weight"] += 0.5
        assert np.array_equal(frozen.q_values(x), before)

    def test_sync_twice_identical(self):
        agent = mini_agent(seed=2)
        a, b = rl.sync_target(agent), rl.sync_target(agent)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_targets_change_after_updates(self):
        agent = mini_agent(seed=3)
        opt = nn.AdaGradState.for_params(agent.params, 0.01)
        frozen = rl.sync_target(agent)
        batch = batch_of([push_args(value=0.3, reward=1.0, action=1, terminal=False)] * 4)
        before = rl.q_targets(frozen, batch, 0.9)
        for _ in range(5):
            rl.td_update(agent, batch, opt, frozen, 0.9)
        # frozen targets unchanged; re-synced targets differ
        assert np.array_equal(rl.q_targets(frozen, batch, 0.9), before)
        resynced = rl.q_targets(rl.sync_target(agent), batch, 0.9)
        assert not np.array_equal(resynced, before)

    def test_in_place_write_to_a_bound_target_shows(self):
        agent = mini_agent("dron_moe", seed=12)
        frozen = rl.sync_target(agent)
        batch = batch_of([push_args(value=0.3, reward=1.0, action=1, terminal=False)] * 4)
        before = rl.q_targets(frozen, batch, 0.9)
        for name in ("expert.0.1.bias", "expert.1.1.bias"):
            frozen.params[name] = frozen.params[name] + 2.0
        after = rl.q_targets(frozen, batch, 0.9)
        assert not np.array_equal(after, before)
        rebuilt = Agent(frozen.spec, params=dict(frozen.params))
        assert after.tobytes() == rl.q_targets(rebuilt, batch, 0.9).tobytes()

    def test_a_new_target_is_bound_anew(self):
        agent = mini_agent("dron_moe", seed=13)
        opt = nn.AdaGradState.for_params(agent.params, 0.05)
        batch = batch_of([push_args(value=0.3, reward=1.0, action=1, terminal=False)] * 4)
        frozen = rl.sync_target(agent)
        old = rl.q_targets(frozen, batch, 0.9)
        for _ in range(10):
            for _ in range(2):
                rl.td_update(agent, batch, opt, frozen, 0.9)
            del frozen
            frozen = rl.sync_target(agent)
            got = rl.q_targets(frozen, batch, 0.9)
            assert not np.array_equal(got, old)
            assert got.tobytes() == rl.q_targets(agent, batch, 0.9).tobytes()
            old = got

    def test_the_target_holds_no_gradient_set(self):
        agent = mini_agent("dron_moe", seed=15)
        opt = nn.AdaGradState.for_params(agent.params, 0.01)
        batch = batch_of([push_args(value=0.3, reward=1.0, terminal=False)] * 2)
        frozen = rl.sync_target(agent)
        rl.td_update(agent, batch, opt, frozen, 0.9)
        assert agent.grads is not None
        assert frozen.grads is None and rl.sync_target(agent).grads is None

    def test_the_agent_keeps_no_reference_to_its_target(self):
        agent = mini_agent("dron_concat", seed=14)
        opt = nn.AdaGradState.for_params(agent.params, 0.0005)
        batch = batch_of([push_args(value=0.3, terminal=False)] * 2)
        frozen = rl.sync_target(agent)
        rl.td_update(agent, batch, opt, frozen, 0.9)
        held = weakref.ref(frozen)
        del frozen
        assert held() is None


class TestTdUpdate:
    def test_zero_loss_leaves_params(self):
        agent = mini_agent(seed=4)
        for name in agent.params:
            agent.params[name][:] = 0.0
        opt = nn.AdaGradState.for_params(agent.params, 0.0005)
        batch = batch_of([push_args(reward=0.0, terminal=True)] * 8)
        loss = rl.td_update(agent, batch, opt, rl.sync_target(agent), 0.9)
        assert loss == 0.0
        assert all(np.all(v == 0.0) for v in agent.params.values())

    def test_loss_decreases_toward_target(self):
        agent = mini_agent(seed=5)
        opt = nn.AdaGradState.for_params(agent.params, 0.01)
        batch = batch_of([push_args(value=0.5, reward=1.0, action=2, terminal=True)])
        frozen = rl.sync_target(agent)

        def current_loss():
            q = agent.q_values(batch.state[0])
            return (q[2] - 1.0) ** 2

        before = current_loss()
        rl.td_update(agent, batch, opt, frozen, 0.9)
        assert current_loss() < before

    def test_gamma_zero_matches_rewards(self):
        agent = mini_agent(seed=6)
        batch = batch_of([push_args(reward=r, terminal=False) for r in (1.0, -2.0)])
        targets = rl.q_targets(rl.sync_target(agent), batch, 0.0)
        assert np.array_equal(targets, [1.0, -2.0])

    def test_multitask_lambda_zero_matches_plain(self):
        plain = mini_agent("dron_moe", seed=7)
        multi_spec = AgentSpec(
            kind="dron_moe", state_dim=4, action_count=3, opponent_dim=5,
            state_hidden=(6,), head_hidden=(6,), opponent_hidden=5, experts=2,
            multitask="type", multitask_outputs=2, multitask_weight=0.0,
        )
        multi = Agent(multi_spec, seed=7)
        opt_a = nn.AdaGradState.for_params(plain.params, 0.01)
        opt_b = nn.AdaGradState.for_params(multi.params, 0.01)
        batch = batch_of([push_args(value=0.4, reward=1.0, action=1, supervision=1)])
        rl.td_update(plain, batch, opt_a, rl.sync_target(plain), 0.9)
        rl.td_update(multi, batch, opt_b, rl.sync_target(multi), 0.9)
        for name in plain.params:
            assert np.array_equal(plain.params[name], multi.params[name]), name

    def test_grad_clip_applies(self):
        agent = mini_agent(seed=8)
        opt = nn.AdaGradState.for_params(agent.params, 0.1)
        batch = batch_of([push_args(value=1.0, reward=100.0, action=0, terminal=True)])
        before = {k: v.copy() for k, v in agent.params.items()}
        rl.td_update(agent, batch, opt, rl.sync_target(agent), 0.9, grad_clip=1e-9)
        # with per-coordinate clipping this tiny, accumulators are tiny and
        # each step is at most lr in magnitude
        for name in agent.params:
            assert np.all(np.abs(agent.params[name] - before[name]) <= 0.1 + 1e-12)

    def test_empty_batch_raises(self):
        agent = mini_agent(seed=9)
        opt = nn.AdaGradState.for_params(agent.params, 0.0005)
        empty = rl.Batch(np.empty((0, 2 * (4 + 5) + 3)), 4, 5)
        with pytest.raises(UsageError):
            rl.td_update(agent, empty, opt, rl.sync_target(agent), 0.9)

    @pytest.mark.parametrize("kind", ["dron_concat", "dron_moe"])
    def test_multitask_agent_needs_rows_with_supervision(self, kind):
        agent = mini_agent(kind, "type", seed=10)
        opt = nn.AdaGradState.for_params(agent.params, 0.01)
        batch = batch_of([push_args(value=0.2, reward=1.0, terminal=False)] * 3)
        before = agent.params.flat.copy()
        with pytest.raises(UsageError, match="supervision"):
            rl.td_update(agent, batch, opt, rl.sync_target(agent), 0.9)
        assert agent.params.flat.tobytes() == before.tobytes()


# -- replay ring against the list-backed ring it replaced -----------------------

_pushes = st.lists(
    st.tuples(st.floats(-5.0, 5.0, allow_nan=False), st.integers(0, 2),
              st.floats(-10.0, 10.0, allow_nan=False), st.booleans(),
              st.one_of(st.integers(0, 3), st.floats(-2.0, 2.0, allow_nan=False))),
    min_size=1, max_size=25,
)


def _transition(k, value, action, reward, terminal, target, supervised=True):
    """``push`` arguments with every field distinct per push, so a misplaced
    row shows; ``target`` is the supervision when the run is ``supervised``."""
    return (value + np.arange(4.0), -value - np.arange(5.0), action, reward,
            value + k + np.arange(4.0), value * k - np.arange(5.0), terminal,
            target if supervised else None)


class TestReplayRingProperties:
    @settings(max_examples=80, deadline=None)
    @given(capacity=st.integers(1, 7), pushes=_pushes, supervised=st.booleans(),
           batch=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_list_reference(self, capacity, pushes, supervised, batch, seed):
        buf = rl.ReplayBuffer(capacity)
        reference, slot = [], 0
        for k, args in enumerate(pushes):
            t = _transition(k, *args, supervised)
            buf.push(*t)
            if len(reference) < capacity:
                reference.append(t)
            else:
                reference[slot] = t
            slot = (slot + 1) % capacity
        assert len(buf) == len(reference)
        idx = np.random.default_rng(seed).integers(0, len(reference), size=batch)
        sampled = buf.sample(batch, np.random.default_rng(seed))
        expected = np.array([layout_row(*reference[i]) for i in idx])
        assert sampled.rows.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(pushes=_pushes, supervised=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_batch_round_trip(self, pushes, supervised, seed):
        # a sampled batch's fields give back the fields that were pushed
        transitions = [_transition(k, *args, supervised) for k, args in enumerate(pushes)]
        buf = rl.ReplayBuffer(len(transitions))
        for t in transitions:
            buf.push(*t)
        idx = np.random.default_rng(seed).integers(0, len(transitions), size=8)
        batch = buf.sample(8, np.random.default_rng(seed))
        assert len(batch) == 8
        for row, i in enumerate(idx):
            state, opponent, action, reward, next_state, next_opponent, terminal, target = (
                transitions[i])
            for got, want in ((batch.state, state), (batch.opponent, opponent),
                              (batch.next_state, next_state),
                              (batch.next_opponent, next_opponent)):
                assert np.array_equal(got[row], want)
            assert batch.action[row] == action and batch.reward[row] == reward
            assert batch.terminal[row] == terminal
            if supervised:
                assert batch.supervision[row] == target
        assert batch.action.dtype == np.intp and batch.terminal.dtype == bool
        assert (batch.supervision is None) == (not supervised)

    def test_width_change_rejected(self):
        buf = rl.ReplayBuffer(4)
        buf.push(*push_args(state_dim=4))
        with pytest.raises(UsageError):
            buf.push(*push_args(state_dim=3))

    @pytest.mark.parametrize("field", [0, 1, 4, 5],
                             ids=["state", "opponent", "next_state", "next_opponent"])
    def test_every_field_width_is_checked(self, field):
        buf = rl.ReplayBuffer(4)
        buf.push(*push_args())
        args = list(push_args())
        args[field] = np.zeros(args[field].size + 1)
        with pytest.raises(UsageError, match="replay layout"):
            buf.push(*args)
        assert len(buf) == 1

    @pytest.mark.parametrize("first,then", [(None, 1), (2, None)])
    def test_supervision_change_rejected(self, first, then):
        # a run has a target on every step or on none, so the first push
        # fixes whether rows hold one
        buf = rl.ReplayBuffer(4)
        buf.push(*push_args(supervision=first))
        with pytest.raises(UsageError, match="supervision"):
            buf.push(*push_args(supervision=then))
        assert len(buf) == 1

    @pytest.mark.parametrize("supervision,width", [(None, 21), (1, 22)])
    def test_a_supervision_column_only_when_supervised(self, supervision, width):
        buf = rl.ReplayBuffer(4)
        buf.push(*push_args(value=0.5, reward=2.0, action=1, supervision=supervision))
        batch = buf.sample(1, np.random.default_rng(0))
        assert batch.rows.shape == (1, width)  # 2 * (4 + 5) + 3 scalars [+ supervision]
        assert (batch.supervision is None) == (supervision is None)


class TestSupervisionLoss:
    @pytest.mark.parametrize("kind,width", [("cross_entropy", 4), ("mean_squared", 1)])
    def test_matches_per_row_loss_and_grad(self, kind, width):
        rng = np.random.default_rng(31)
        n, lam = 16, 0.7
        logits = rng.normal(size=(n, width))
        if kind == "cross_entropy":
            P = nn.softmax(logits)
            targets = rng.integers(0, width, size=n).tolist()
        else:
            P = 1.0 / (1.0 + np.exp(-logits))
            targets = rng.random(n).tolist()
        batch = batch_of([push_args(supervision=target) for target in targets])
        loss, dsup = rl.supervision_loss(kind, P, batch, lam)

        # the per-row loop the vectorised loss replaced
        ref_loss, ref = 0.0, np.zeros_like(P)
        for b, target in enumerate(targets):
            loss_b, grad_b = nn.loss_and_grad(kind, P[b], target)
            ref_loss += loss_b / n
            ref[b] = lam * grad_b / n
        assert dsup.tobytes() == ref.tobytes()  # bitwise, signed zeros included
        assert loss == ref_loss

    def test_rows_without_a_supervision_column_raise(self):
        batch = batch_of([push_args(), push_args()])
        assert batch.supervision is None
        with pytest.raises(UsageError, match="supervision target"):
            rl.supervision_loss("cross_entropy", np.full((2, 2), 0.5), batch, 1.0)

    def test_unnormalised_probabilities_rejected(self):
        batch = batch_of([push_args(supervision=0)])
        with pytest.raises(UsageError, match="normalized"):
            rl.supervision_loss("cross_entropy", np.array([[0.5, 0.9]]), batch, 1.0)

    def test_class_index_out_of_range_rejected(self):
        batch = batch_of([push_args(supervision=2)])
        with pytest.raises(UsageError, match="out of range"):
            rl.supervision_loss("cross_entropy", np.array([[0.5, 0.5]]), batch, 1.0)


# -- the TD step without per-call set-up ------------------------------------------


def per_call_td_update(agent, batch, opt_state, target, discount, grad_clip=None):
    """``td_update`` with the set-up it used to repeat on every call: a new
    target agent built (and bound) from the target's parameters, and a new
    gradient set, which ``backward_train`` allocates and binds when the
    agent holds none. Same arithmetic in the same order."""
    n = len(batch)
    targets = rl.q_targets(Agent(target.spec, params=target.params), batch, discount)
    fwd = agent.forward_train(batch.state, batch.opponent)
    rows = np.arange(n)
    err = fwd.q[rows, batch.action] - targets
    q_loss = float(err @ err) / n
    dq = np.zeros_like(fwd.q)
    dq[rows, batch.action] = 2.0 * err / n
    dsup, sup_loss = None, 0.0
    lam = agent.spec.multitask_weight
    if agent.spec.multitask != "none":
        sup_loss, dsup = rl.supervision_loss(agent.spec.multitask_loss, fwd.supervision,
                                             batch, lam)
    agent.grads = None
    grads = agent.backward_train(fwd, dq, dsup)
    nn.adagrad_update(agent.params, grads, opt_state, clip=grad_clip)
    return combined_loss(q_loss, sup_loss, lam)


class TestNoPerCallSetUp:
    @pytest.mark.parametrize("kind,multitask", [
        ("dqn", "none"), ("dron_concat", "type"), ("dron_moe", "none"), ("dron_moe", "type"),
    ])
    @pytest.mark.parametrize("grad_clip", [None, 0.05])
    def test_equals_binding_and_allocating_per_call(self, kind, multitask, grad_clip):
        rng = np.random.default_rng(70)
        buf = rl.ReplayBuffer(32)
        for k in range(32):
            buf.push(*_transition(k, float(rng.normal()), int(rng.integers(0, 3)),
                                  float(rng.normal()), bool(rng.random() < 0.3),
                                  int(rng.integers(0, 2)), multitask != "none"))
        agents = [mini_agent(kind, multitask, seed=71) for _ in range(2)]
        opts = [nn.AdaGradState.for_params(a.params, 0.01) for a in agents]
        targets = [rl.sync_target(a) for a in agents]
        for update in range(1, 23):
            batch = buf.sample(8, rng)
            loss = rl.td_update(agents[0], batch, opts[0], targets[0], 0.9, grad_clip)
            assert loss == per_call_td_update(agents[1], batch, opts[1], targets[1], 0.9,
                                              grad_clip)
            if update % 4 == 0:
                targets = [rl.sync_target(a) for a in agents]
        assert agents[0].params.flat.tobytes() == agents[1].params.flat.tobytes()
        assert opts[0].accumulators.flat.tobytes() == opts[1].accumulators.flat.tobytes()

    def test_steady_state_update_allocates_no_parameter_sized_set(self):
        """A warm quiz dron_moe update (type head, 64 rows) peaks at least
        0.9 parameter vectors (63,611 x 8 bytes) below ``per_call_td_update``
        on the same agent and batch, so no per-update model-sized buffer such
        as a new gradient set can come back unseen. The guard is relative:
        the activation-sized temporaries both share, which vary with the
        numpy build, cancel out."""
        agent = Agent(quiz_agent_spec("dron_moe", multitask="type"), seed=1)
        rng = np.random.default_rng(72)
        buf = rl.ReplayBuffer(256)
        for _ in range(256):
            buf.push(rng.normal(size=102), rng.random(3), int(rng.integers(0, 2)),
                     float(rng.normal()), rng.normal(size=102), rng.random(3),
                     bool(rng.random() < 0.1), int(rng.integers(0, 4)))
        opt = nn.AdaGradState.for_params(agent.params, 0.0005)
        target = rl.sync_target(agent)
        for _ in range(3):
            rl.td_update(agent, buf.sample(64, rng), opt, target, 0.9)
            per_call_td_update(agent, buf.sample(64, rng), opt, target, 0.9)
        batch = buf.sample(64, rng)

        def peak(update):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            update(agent, batch, opt, target, 0.9)
            return tracemalloc.get_traced_memory()[1] - base

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            kept, per_call = peak(rl.td_update), peak(per_call_td_update)
        finally:
            if started:
                tracemalloc.stop()
        assert agent.params.flat.size == 63_611
        assert per_call - kept >= 0.9 * agent.params.flat.nbytes, (kept, per_call)
