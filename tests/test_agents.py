import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from dron import agents, nn
from dron import quizbowl as qb
from dron.agents import Agent, AgentSpec, combined_loss, quiz_agent_spec, soccer_agent_spec
from dron.errors import ConfigurationError, UsageError


def zeroed(agent):
    return {name: np.zeros_like(v) for name, v in agent.params.items()}


def mini_spec(kind, multitask="none", experts=3):
    outputs = {"none": 1, "type": 2, "action": 3}[multitask]
    return AgentSpec(
        kind=kind, state_dim=4, action_count=3,
        opponent_dim=0 if kind == "dqn" else 5,
        state_hidden=(6,), head_hidden=(7,), opponent_hidden=8,
        experts=experts, multitask=multitask, multitask_outputs=outputs,
    )


class TestEncode:
    def test_soccer_sizes(self):
        agent = Agent(soccer_agent_spec("dron_concat"), seed=1)
        hs, ho = agents.encode(agent, np.zeros(15), np.zeros(16))
        assert hs.shape == (50,) and ho.shape == (50,)

    def test_quiz_opponent_embedding(self):
        agent = Agent(quiz_agent_spec("dron_moe"), seed=1)
        _, ho = agents.encode(agent, np.zeros(102), np.zeros(3))
        assert ho.shape == (10,)

    def test_zero_params_zero_hidden(self):
        agent = Agent(mini_spec("dron_concat"), seed=0)
        agent.params = zeroed(agent)
        hs, ho = agent.encode(np.ones(4), np.ones(5))
        assert np.all(hs == 0.0) and np.all(ho == 0.0)

    def test_dimension_mismatch(self):
        agent = Agent(mini_spec("dron_moe"), seed=0)
        with pytest.raises(ConfigurationError):
            agent.encode(np.zeros(9), np.zeros(5))


def test_quiz_sizes_follow_the_quiz_module():
    rng = np.random.default_rng(0)
    state, profile = qb.sample_episode(qb.QuizConfig(vocab=7),
                                       qb.make_population("mixed", rng), rng)
    spec = quiz_agent_spec("dron_moe", vocab=7, multitask="type")
    assert spec.state_dim == qb.featurize(state).size == 16
    assert spec.opponent_dim == qb.opponent_features(profile).size == 3
    assert spec.action_count == len({qb.WAIT, qb.BUZZ}) == 2
    # opponent_type gives 1-4, which the quiz driver shifts to the classes 0-3
    types = {qb.opponent_type(SimpleNamespace(historical_buzz_frac=frac))
             for frac in np.linspace(0.0, 1.0, 101)}
    assert types == set(range(1, spec.multitask_outputs + 1)) == {1, 2, 3, 4}


class TestDQN:
    def test_action_counts(self):
        assert agents.q_dqn(Agent(soccer_agent_spec("dqn"), seed=0), np.zeros(15)).shape == (5,)
        assert agents.q_dqn(Agent(quiz_agent_spec("dqn"), seed=0), np.zeros(102)).shape == (2,)

    def test_zero_params_zero_q(self):
        agent = Agent(mini_spec("dqn"), seed=0)
        agent.params = zeroed(agent)
        assert np.all(agent.q_values(np.ones(4)) == 0.0)

    def test_opponent_features_ignored(self):
        agent = Agent(mini_spec("dqn"), seed=3)
        x = np.random.default_rng(0).normal(size=4)
        assert np.array_equal(agent.q_values(x, np.ones(5)), agent.q_values(x))


class TestConcat:
    def test_concat_width_soccer(self):
        agent = Agent(soccer_agent_spec("dron_concat"), seed=2)
        head_w = agent.params["q_head.0.weight"]
        assert head_w.shape[0] == 100  # |h_s| + |h_o|

    def test_opponent_enters_only_through_its_slice(self):
        agent = Agent(mini_spec("dron_concat"), seed=4)
        # kill the opponent tower: h_o is identically zero, so any phi_o
        # must produce the same Q as feeding the zero slice directly
        agent.params["opponent_tower.0.weight"][:] = 0.0
        agent.params["opponent_tower.0.bias"][:] = 0.0
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        q1 = agent.q_values(x, rng.normal(size=5))
        q2 = agent.q_values(x, rng.normal(size=5))
        assert np.allclose(q1, q2)
        hs, _ = agent.encode(x, np.zeros(5))
        head_in = np.concatenate([hs, np.zeros(8)])
        layers = nn.bind_mlp(agent._specs["q_head"], agent.params, "q_head.")
        expected, _ = nn.run_mlp(layers, head_in[None, :])
        assert np.allclose(q1, expected[0])

    def test_distinct_opponents_distinct_q(self):
        agent = Agent(mini_spec("dron_concat"), seed=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        q1 = agent.q_values(x, rng.normal(size=5))
        q2 = agent.q_values(x, rng.normal(size=5))
        assert not np.allclose(q1, q2)


class TestMoe:
    def test_single_expert_reduction(self):
        agent = Agent(mini_spec("dron_moe", experts=1), seed=8)
        rng = np.random.default_rng(9)
        x, o = rng.normal(size=4), rng.normal(size=5)
        q, gate = agents.q_dron_moe(agent, x, o)
        assert np.allclose(gate, [1.0])
        fwd = agent.forward_train(x[None, :], o[None, :])
        assert np.allclose(q, fwd.expert_q[0][0])

    def test_zero_gate_uniform_weights(self):
        agent = Agent(mini_spec("dron_moe", experts=4), seed=10)
        agent.params["gate.0.weight"][:] = 0.0
        agent.params["gate.0.bias"][:] = 0.0
        _, gate = agent.q_and_gate(np.ones(4), np.ones(5))
        assert np.allclose(gate, 0.25)

    def test_hand_crafted_mixture(self):
        spec = AgentSpec(
            kind="dron_moe", state_dim=2, action_count=2, opponent_dim=2,
            state_hidden=(3,), head_hidden=(3,), opponent_hidden=2, experts=2,
        )
        agent = Agent(spec, seed=0)
        p = zeroed(agent)
        # experts output their biases: [1, 0] and [0, 1]
        p["expert.0.1.bias"][:] = [1.0, 0.0]
        p["expert.1.1.bias"][:] = [0.0, 1.0]
        # gate logits relu([0, ln 3]) -> softmax = [0.25, 0.75]
        p["gate.0.bias"][:] = [0.0, np.log(3.0)]
        agent.params = p
        q, gate = agent.q_and_gate(np.ones(2), np.ones(2))
        assert np.allclose(gate, [0.25, 0.75])
        assert np.allclose(q, [0.25, 0.75])

    @pytest.mark.parametrize("kind", ["dqn", "dron_concat"])
    @pytest.mark.parametrize("rows", [None, 3])  # one vector, a batch
    def test_q_and_gate_refuses_an_agent_without_a_gate(self, kind, rows):
        agent = Agent(mini_spec(kind), seed=13)
        shape = () if rows is None else (rows,)
        phi_o = None if kind == "dqn" else np.ones(shape + (5,))
        with pytest.raises(UsageError, match=f"{kind} has no gate"):
            agent.q_and_gate(np.ones(shape + (4,)), phi_o)

    def test_gate_simplex(self):
        agent = Agent(mini_spec("dron_moe"), seed=11)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            _, gate = agent.q_and_gate(rng.normal(size=4), rng.normal(size=5))
            assert np.all(gate >= 0.0)
            assert abs(gate.sum() - 1.0) <= 1e-6

    def test_convex_combination_bounds(self):
        agent = Agent(mini_spec("dron_moe"), seed=13)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            fwd = agent.forward_train(rng.normal(size=(1, 4)), rng.normal(size=(1, 5)))
            stacked = np.stack([q[0] for q in fwd.expert_q])
            assert np.all(fwd.q[0] >= stacked.min(axis=0) - 1e-12)
            assert np.all(fwd.q[0] <= stacked.max(axis=0) + 1e-12)

    def test_expert_gate_separation(self):
        agent = Agent(mini_spec("dron_moe"), seed=15)
        rng = np.random.default_rng(16)
        x, o = rng.normal(size=4), rng.normal(size=5)
        for _ in range(100):
            _, gate_a = agent.q_and_gate(rng.normal(size=4), o)
            _, gate_b = agent.q_and_gate(rng.normal(size=4), o)
            assert np.array_equal(gate_a, gate_b)
        base = agent.forward_train(x[None, :], o[None, :])
        for _ in range(100):
            fwd = agent.forward_train(x[None, :], rng.normal(size=(1, 5)))
            for i in range(3):
                assert np.array_equal(fwd.expert_q[i], base.expert_q[i])


class TestMultitask:
    def test_soccer_type_head(self):
        agent = Agent(soccer_agent_spec("dron_moe", multitask="type"), seed=17)
        _, ho = agent.encode(np.zeros(15), np.zeros(16))
        pred = agents.predict_opponent(agent, ho)
        assert pred.shape == (2,)
        assert abs(pred.sum() - 1.0) <= 1e-9

    def test_quiz_type_head(self):
        agent = Agent(quiz_agent_spec("dron_concat", multitask="type"), seed=18)
        _, ho = agent.encode(np.zeros(102), np.zeros(3))
        assert agents.predict_opponent(agent, ho).shape == (4,)

    def test_quiz_action_head_in_unit_interval(self):
        agent = Agent(quiz_agent_spec("dron_moe", multitask="action"), seed=19)
        rng = np.random.default_rng(20)
        for _ in range(50):
            _, ho = agent.encode(rng.normal(size=102), rng.normal(size=3))
            pred = agents.predict_opponent(agent, ho)
            assert pred.shape == (1,)
            assert 0.0 <= pred[0] <= 1.0

    def test_no_head_raises(self):
        agent = Agent(mini_spec("dron_moe"), seed=21)
        with pytest.raises(UsageError):
            agent.predict_opponent(np.zeros(8))

    def test_q_values_independent_of_head(self):
        agent = Agent(mini_spec("dron_concat", multitask="type"), seed=22)
        rng = np.random.default_rng(23)
        x, o = rng.normal(size=4), rng.normal(size=5)
        q_before = agent.q_values(x, o)
        agent.params["opponent_head.0.weight"] += rng.normal(size=(8, 2))
        agent.params["opponent_head.0.bias"] += 1.0
        assert np.array_equal(agent.q_values(x, o), q_before)

    def test_supervision_gradient_skips_q_path(self):
        # gradient of the combined loss w.r.t. Q-path parameters equals the
        # gradient of the Q loss alone
        agent = Agent(mini_spec("dron_moe", multitask="type"), seed=24)
        rng = np.random.default_rng(25)
        S, O = rng.normal(size=(2, 4)), rng.normal(size=(2, 5))
        dq = rng.normal(size=(2, 3))
        fwd = agent.forward_train(S, O)
        dsup = rng.normal(size=(2, 2))
        with_sup = nn.FlatParams.of(agent.backward_train(fwd, dq, dsup))  # a copy
        fwd2 = agent.forward_train(S, O)
        without = agent.backward_train(fwd2, dq)
        for name in with_sup:
            if name.startswith(("expert.", "gate.", "state_tower.")):
                assert np.allclose(with_sup[name], without[name], atol=1e-12), name

    def test_dqn_cannot_multitask(self):
        with pytest.raises(ConfigurationError):
            mini_spec("dqn", multitask="type")


VARIANTS = [("dqn", "none"), ("dron_concat", "none"), ("dron_concat", "type"),
            ("dron_concat", "action"), ("dron_moe", "none"), ("dron_moe", "type"),
            ("dron_moe", "action")]


def by_name_q(agent, S, O):
    """Q-values and gate with each network bound anew by parameter name
    (``nn.bind_mlp`` then ``nn.run_mlp``), with the agent's arithmetic in its
    order: the reference the agent's bound forward must match bit for bit."""
    p, specs = agent.params, agent._specs

    def run(name, x):
        return nn.run_mlp(nn.bind_mlp(specs[name], p, f"{name}."), x)[0]

    if agent.spec.kind == "dqn":
        return run("q_net", S), None
    hs, ho = run("state_tower", S), run("opponent_tower", O)
    if agent.spec.kind == "dron_concat":
        return run("q_head", np.concatenate([hs, ho], axis=1)), None
    gate = nn.softmax(run("gate", ho))
    q = np.zeros((S.shape[0], agent.spec.action_count))
    for i in range(agent.spec.experts):
        q += gate[:, i : i + 1] * run(f"expert.{i}", hs)
    return q, gate


class TestBoundForward:
    @pytest.mark.parametrize("kind,multitask", VARIANTS)
    @pytest.mark.parametrize("rows", [1, 64])
    def test_act_matches_training_forward_bit_for_bit(self, kind, multitask, rows):
        agent = Agent(mini_spec(kind, multitask), seed=40)
        rng = np.random.default_rng(41)
        S = rng.normal(size=(rows, 4))
        O = None if kind == "dqn" else rng.normal(size=(rows, 5))
        fwd = agent.forward_train(S, O)
        ref_q, ref_gate = by_name_q(agent, S, O)
        assert fwd.q.tobytes() == ref_q.tobytes()
        one = (lambda a: a[0]) if rows == 1 else (lambda a: a)
        phi_s = one(S)
        phi_o = None if O is None else one(O)
        assert agent.q_values(phi_s, phi_o).tobytes() == one(fwd.q).tobytes()
        if kind == "dron_moe":
            q, gate = agent.q_and_gate(phi_s, phi_o)
            assert q.tobytes() == one(fwd.q).tobytes()
            assert gate.tobytes() == one(fwd.gate).tobytes() == one(ref_gate).tobytes()

    @pytest.mark.parametrize("kind,multitask", VARIANTS)
    def test_a_vector_gives_a_vector_and_a_batch_a_batch(self, kind, multitask):
        agent = Agent(mini_spec(kind, multitask), seed=46)
        rng = np.random.default_rng(47)
        S, O = rng.normal(size=(1, 4)), rng.normal(size=(1, 5))
        calls = [lambda s, o: agent.q_values(s, o if kind != "dqn" else None)]
        if kind == "dron_moe":
            calls += [lambda s, o: agent.q_and_gate(s, o)[0],
                      lambda s, o: agent.q_and_gate(s, o)[1]]
        if kind != "dqn":
            calls += [lambda s, o: agent.encode(s, o)[0], lambda s, o: agent.encode(s, o)[1]]
        if multitask != "none":
            calls.append(lambda s, o: agent.predict_opponent(agent.encode(s, o)[1]))
        for call in calls:
            batch, vector = call(S, O), call(S[0], O[0])
            assert batch.ndim == 2 and batch.shape[0] == 1 and vector.ndim == 1
            assert vector.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("kind,multitask", [v for v in VARIANTS if v[1] != "none"])
    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_acting_never_runs_the_opponent_head(self, kind, multitask, fill):
        agent = Agent(mini_spec(kind, multitask), seed=42)
        rng = np.random.default_rng(43)
        x, o = rng.normal(size=4), rng.normal(size=5)
        S, O = rng.normal(size=(64, 4)), rng.normal(size=(64, 5))
        before = agent.q_values(x, o), agent.q_values(S, O)
        for name in agent.params:
            if name.startswith("opponent_head."):
                agent.params[name][...] = fill
        # an infinite head would make its softmax compute inf - inf
        with np.errstate(invalid="raise"):
            after = agent.q_values(x, o), agent.q_values(S, O)
            if kind == "dron_moe":
                assert np.all(np.isfinite(agent.q_and_gate(x, o)[0]))
        for b, a in zip(before, after):
            assert np.all(np.isfinite(a)) and a.tobytes() == b.tobytes()
        # training still computes the head
        with np.errstate(invalid="ignore"):
            assert not np.any(np.isfinite(agent.forward_train(S, O).supervision))

    def test_reassigned_params_rebind(self):
        agent = Agent(mini_spec("dron_moe", "type"), seed=44)
        other = Agent(mini_spec("dron_moe", "type"), seed=45)
        x, o = np.ones(4), np.ones(5)
        assert not np.array_equal(agent.q_values(x, o), other.q_values(x, o))
        agent.params = {name: v.copy() for name, v in other.params.items()}
        assert agent.q_values(x, o).tobytes() == other.q_values(x, o).tobytes()
        # in-place writes reach the bound layers too
        agent.params["expert.1.0.bias"] = np.full(7, 0.5)
        other.params["expert.1.0.bias"][...] = 0.5
        assert agent.q_values(x, o).tobytes() == other.q_values(x, o).tobytes()

    def test_wrong_shapes_raise(self):
        agent = Agent(mini_spec("dron_moe"), seed=48)
        bad = {name: v.copy() for name, v in agent.params.items()}
        bad["gate.0.weight"] = np.zeros((8, 4))
        with pytest.raises(ConfigurationError):
            agent.params = bad
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(6), np.ones(5))
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(4), np.ones(2))


def by_name_moe(agent, S, O, dq, dsup):
    """DRON-MoE's forward and backward with every network bound anew by
    parameter name, each expert run and backpropagated on its own, its
    gate-weighted Q-values and its input gradient added in expert order: the
    reference the stacked experts must match bit for bit. Returns the Q-values,
    the gate, each expert's Q-values and a new gradient set."""
    p, specs = agent.params, agent._specs
    grads = nn.FlatParams(p.layout)

    def bind(name, on):
        return nn.bind_mlp(specs[name], on, f"{name}.")

    def run(name, x):
        return nn.run_mlp(bind(name, p), x, keep_cache=True)

    def back(name, cache, dy, input_grad=True):
        return nn.mlp_backward(bind(name, p), bind(name, grads), cache, dy, input_grad)

    hs, state_cache = run("state_tower", S)
    ho, opponent_cache = run("opponent_tower", O)
    gate_pre, gate_cache = run("gate", ho)
    gate = nn.softmax(gate_pre)
    q = np.zeros((S.shape[0], agent.spec.action_count))
    expert_q, expert_caches = [], []
    for i in range(agent.spec.experts):
        qi, cache = run(f"expert.{i}", hs)
        expert_q.append(qi)
        expert_caches.append(cache)
        q += gate[:, i : i + 1] * qi
    dhs = np.zeros_like(hs)
    dw = np.empty_like(gate)
    for i in range(agent.spec.experts):
        dhs += back(f"expert.{i}", expert_caches[i], gate[:, i : i + 1] * dq)
        dw[:, i] = (expert_q[i] * dq).sum(axis=1)
    dho = back("gate", gate_cache, nn.softmax_grad(gate, dw))
    if dsup is not None:
        _, head_cache = run("opponent_head", ho)
        dho = dho + back("opponent_head", head_cache, dsup)
    back("opponent_tower", opponent_cache, dho, input_grad=False)
    back("state_tower", state_cache, dhs, input_grad=False)
    return q, gate, expert_q, grads


class TestStackedExperts:
    @pytest.mark.parametrize("experts", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("multitask", ["none", "type", "action"])
    def test_match_each_expert_run_by_name(self, experts, rows, multitask):
        agent = Agent(mini_spec("dron_moe", multitask, experts), seed=60 + experts)
        rng = np.random.default_rng(61)
        S, O = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 5))
        dq = rng.normal(size=(rows, 3))
        dq[0] = -0.0  # the sign of a zero must come through the sums too
        dsup = None
        if multitask != "none":
            dsup = rng.normal(size=(rows, agent.spec.multitask_outputs))
        q, gate, expert_q, grads = by_name_moe(agent, S, O, dq, dsup)
        fwd = agent.forward_train(S, O)
        assert fwd.q.tobytes() == q.tobytes()
        assert fwd.gate.tobytes() == gate.tobytes()
        assert fwd.expert_q.tobytes() == np.stack(expert_q).tobytes()
        for _ in range(2):  # the set is bound on the first call, then kept
            got = agent.backward_train(fwd, dq, dsup)
            assert got.flat.tobytes() == grads.flat.tobytes()
        one = (lambda a: a[0]) if rows == 1 else (lambda a: a)
        q_act, gate_act = agent.q_and_gate(one(S), one(O))
        assert q_act.tobytes() == one(q).tobytes()
        assert gate_act.tobytes() == one(gate).tobytes()

    def test_stacked_views_share_the_flat_vectors(self):
        agent = Agent(mini_spec("dron_moe", "type", experts=3), seed=62)
        rng = np.random.default_rng(63)
        S, O = rng.normal(size=(8, 4)), rng.normal(size=(8, 5))
        agent.backward_train(agent.forward_train(S, O), rng.normal(size=(8, 3)))
        for layers, named in ((agent._nets["experts"], agent.params),
                              (agent._grad_nets["experts"], agent.grads)):
            for i, (weight, bias, _) in enumerate(layers):
                for k in range(3):
                    for view, name in ((weight[k], f"expert.{k}.{i}.weight"),
                                       (bias[k, 0], f"expert.{k}.{i}.bias")):
                        assert np.shares_memory(view, named.flat), name
                        # the very array the name holds: same address, shape and strides
                        assert view.__array_interface__ == named[name].__array_interface__

    @pytest.mark.parametrize("kind,multitask", VARIANTS)
    def test_params_iterate_in_component_order(self, kind, multitask):
        # gradient checks and checkpoints walk the parameters in this order
        def names(component, layers):
            return [f"{component}.{i}.{part}" for i in range(layers)
                    for part in ("weight", "bias")]

        towers = names("state_tower", 1) + names("opponent_tower", 1)
        expected = {
            "dqn": names("q_net", 3),
            "dron_concat": towers + names("q_head", 2),
            "dron_moe": towers + [name for k in range(4) for name in names(f"expert.{k}", 2)]
            + names("gate", 1),
        }[kind]
        if multitask != "none":
            expected += names("opponent_head", 1)
        agent = Agent(mini_spec(kind, multitask, experts=4), seed=64)
        assert list(agent.params) == expected
        assert [name for name, _ in agent.params.layout] == expected


class TestGradientBuffer:
    """The agent's own gradient set, ``grads``, which ``backward_train``
    writes and returns."""

    @staticmethod
    def _inputs(kind, rows=6, seed=51):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(rows, 4))
        O = None if kind == "dqn" else rng.normal(size=(rows, 5))
        return S, O, rng.normal(size=(rows, 3)), rng.normal(size=(rows, 3))

    @pytest.mark.parametrize("kind,multitask", VARIANTS)
    def test_each_call_returns_the_agents_one_set(self, kind, multitask):
        agent = Agent(mini_spec(kind, multitask), seed=52)
        assert agent.grads is None  # bound by the first backward pass
        S, O, dq, _ = self._inputs(kind)
        first = agent.backward_train(agent.forward_train(S, O), dq)
        assert first is agent.grads and first.layout == agent.params.layout
        S2, O2, dq2, _ = self._inputs(kind, seed=53)
        second = agent.backward_train(agent.forward_train(S2, O2), dq2)
        assert second is first
        # the second result is what an agent that never ran a pass gives
        fresh = Agent(mini_spec(kind, multitask), seed=52)
        want = fresh.backward_train(fresh.forward_train(S2, O2), dq2)
        assert want is not second and second.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("kind,multitask", VARIANTS)
    def test_out_is_overwritten_whole(self, kind, multitask):
        agent = Agent(mini_spec(kind, multitask), seed=54)
        S, O, dq, dsup = self._inputs(kind)
        fwd = agent.forward_train(S, O)
        dsup = None if multitask == "none" else dsup[:, : agent.spec.multitask_outputs]
        expected = agent.backward_train(fwd, dq, dsup).flat.tobytes()
        agent.grads.flat[:] = np.nan  # stale values must not survive anywhere
        assert agent.backward_train(fwd, dq, dsup) is agent.grads
        assert agent.grads.flat.tobytes() == expected

    @pytest.mark.parametrize("kind", ["dron_concat", "dron_moe"])
    def test_out_zeroes_the_head_a_pass_does_not_reach(self, kind):
        agent = Agent(mini_spec(kind, "type"), seed=55)
        S, O, dq, dsup = self._inputs(kind)
        dsup = dsup[:, :2]
        fwd = agent.forward_train(S, O)
        grads = agent.backward_train(fwd, dq, dsup)
        head = [name for name in grads if name.startswith("opponent_head.")]
        assert head and all(np.any(grads[name] != 0.0) for name in head)
        agent.backward_train(fwd, dq)
        assert all(np.all(grads[name] == 0.0) for name in head)
        fresh = Agent(mini_spec(kind, "type"), seed=55)
        assert grads.flat.tobytes() == fresh.backward_train(fwd, dq).flat.tobytes()


class TestCombinedLoss:
    def test_zero_weight(self):
        assert combined_loss(0.7, 123.0, 0.0) == 0.7

    def test_weighted_sum(self):
        assert combined_loss(0.5, 0.25, 1.0) == 0.75

    def test_negative_weight_rejected(self):
        with pytest.raises(UsageError):
            combined_loss(1.0, 1.0, -0.5)


def scalar_head_spec(kind):
    """``mini_spec`` with the quiz's ``action`` head: one sigmoid output
    trained on mean squared error."""
    return dataclasses.replace(mini_spec(kind, "action"), multitask_outputs=1,
                               multitask_loss="mean_squared")


def full_model_loss(agent, S, O, wq, sup_target, lam):
    """Scalar objective: <wq, Q> plus weighted supervision loss."""
    fwd = agent.forward_train(S, O)
    total = float((wq * fwd.q).sum())
    if sup_target is not None:
        losses, _ = nn.loss_and_grad(agent.spec.multitask_loss, fwd.supervision, sup_target)
        total += lam * float(losses.sum())
    return total


class TestFullModelGradients:
    @pytest.mark.parametrize("kind,multitask", [
        ("dqn", "none"), ("dron_concat", "none"),
        ("dron_moe", "none"), ("dron_moe", "type"),
        ("dron_concat", "action"), ("dron_moe", "action"),
    ])
    def test_against_finite_differences(self, kind, multitask):
        from test_nn import finite_difference_grads, max_relative_error

        # "action" is the scalar (sigmoid, mean squared) head quiz trains
        spec = scalar_head_spec(kind) if multitask == "action" else mini_spec(kind, multitask)
        agent = Agent(spec, seed=26)
        rng = np.random.default_rng(27)
        # keep pre-activations away from the ReLU kinks where finite
        # differences are not a valid oracle
        for value in agent.params.values():
            value += rng.uniform(-0.1, 0.1, size=value.shape)
        S = rng.normal(size=(3, 4))
        O = None if kind == "dqn" else rng.normal(size=(3, 5))
        wq = rng.normal(size=(3, 3))
        lam = 0.7
        sup_target = {"type": np.array([0, 1, 0]),
                      "action": np.array([0.0, 1.0, 0.25])}.get(multitask)

        fwd = agent.forward_train(S, O)
        dsup = None
        if sup_target is not None:
            _, grad = nn.loss_and_grad(spec.multitask_loss, fwd.supervision, sup_target)
            dsup = lam * grad
        analytic = agent.backward_train(fwd, wq, dsup)

        def loss(_params):  # agent.params, perturbed in place
            return full_model_loss(agent, S, O, wq, sup_target, lam)

        numeric = finite_difference_grads(loss, agent.params)
        assert max_relative_error(analytic, numeric) <= 1e-4


class TestSpecValidation:
    def test_moe_needs_experts(self):
        with pytest.raises(ConfigurationError):
            mini_spec("dron_moe", experts=0)

    def test_dron_needs_opponent_dim(self):
        with pytest.raises(ConfigurationError):
            AgentSpec(kind="dron_concat", state_dim=4, action_count=2, opponent_dim=0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            AgentSpec(kind="dueling", state_dim=4, action_count=2)

    # the helpers leave the mode to AgentSpec's rule, which names the config key
    @pytest.mark.parametrize("build", [
        lambda mode: AgentSpec(kind="dron_concat", state_dim=4, action_count=2,
                               opponent_dim=3, multitask=mode),
        lambda mode: soccer_agent_spec("dqn", multitask=mode),
        lambda mode: quiz_agent_spec("dqn", multitask=mode),
    ], ids=["AgentSpec", "soccer_agent_spec", "quiz_agent_spec"])
    def test_unknown_multitask_mode(self, build):
        with pytest.raises(ConfigurationError,
                           match=r"^unknown multitask mode 'bogus'$") as raised:
            build("bogus")
        assert raised.value.keys == ("multitask",)

    def test_shared_init_independent_of_head(self):
        plain = Agent(mini_spec("dron_moe"), seed=30)
        multi = Agent(mini_spec("dron_moe", multitask="type"), seed=30)
        for name in plain.params:
            assert np.array_equal(plain.params[name], multi.params[name]), name
