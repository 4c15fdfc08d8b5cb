import numpy as np
import pytest

from dron import agents, nn
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
        expected, _ = nn.mlp_forward(agent._specs["q_head"], agent.params, head_in, "q_head.")
        assert np.allclose(q1, expected)

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
        with_sup = agent.backward_train(fwd, dq, dsup)
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
    """Q-values and gate through ``nn.mlp_forward`` by parameter name, with
    the agent's arithmetic in its order: the reference the bound forward
    must match bit for bit."""
    p, specs = agent.params, agent._specs

    def run(name, x):
        return nn.mlp_forward(specs[name], p, x, f"{name}.")[0]

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

    def test_explicit_params_bound_per_call(self):
        agent = Agent(mini_spec("dron_concat", "type"), seed=46)
        other = Agent(mini_spec("dron_concat", "type"), seed=47)
        S, O = np.ones((3, 4)), np.ones((3, 5))
        expected = other.q_values(S, O).tobytes()
        assert agent.q_values(S, O, params=other.params).tobytes() == expected
        plain = {name: v.copy() for name, v in other.params.items()}
        assert agent.q_values(S, O, params=plain).tobytes() == expected
        assert agent.forward_train(S, O, params=plain).q.tobytes() == expected
        # the agent's own binding is untouched
        assert agent.q_values(S, O).tobytes() != expected

    def test_wrong_shapes_raise(self):
        agent = Agent(mini_spec("dron_moe"), seed=48)
        bad = {name: v.copy() for name, v in agent.params.items()}
        bad["gate.0.weight"] = np.zeros((8, 4))
        with pytest.raises(ConfigurationError):
            agent.params = bad
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(4), np.ones(5), params=bad)
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(4), np.ones(5), params=nn.FlatParams.of(bad))
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(6), np.ones(5))
        with pytest.raises(ConfigurationError):
            agent.q_values(np.ones(4), np.ones(2))


class TestCombinedLoss:
    def test_zero_weight(self):
        assert combined_loss(0.7, 123.0, 0.0) == 0.7

    def test_weighted_sum(self):
        assert combined_loss(0.5, 0.25, 1.0) == 0.75

    def test_negative_weight_rejected(self):
        with pytest.raises(UsageError):
            combined_loss(1.0, 1.0, -0.5)


def full_model_loss(agent, params, S, O, wq, sup_target, lam):
    """Scalar objective: <wq, Q> plus weighted supervision loss."""
    fwd = agent.forward_train(S, O, params=params)
    total = float((wq * fwd.q).sum())
    if sup_target is not None:
        for b in range(S.shape[0]):
            loss, _ = nn.loss_and_grad(
                agent.spec.multitask_loss, fwd.supervision[b], sup_target[b]
            )
            total += lam * loss
    return total


class TestFullModelGradients:
    @pytest.mark.parametrize("kind,multitask", [
        ("dqn", "none"), ("dron_concat", "none"),
        ("dron_moe", "none"), ("dron_moe", "type"),
    ])
    def test_against_finite_differences(self, kind, multitask):
        from test_nn import finite_difference_grads, max_relative_error

        agent = Agent(mini_spec(kind, multitask=multitask), seed=26)
        rng = np.random.default_rng(27)
        # keep pre-activations away from the ReLU kinks where finite
        # differences are not a valid oracle
        for value in agent.params.values():
            value += rng.uniform(-0.1, 0.1, size=value.shape)
        S = rng.normal(size=(3, 4))
        O = None if kind == "dqn" else rng.normal(size=(3, 5))
        wq = rng.normal(size=(3, 3))
        lam = 0.7
        sup_target = np.array([0, 1, 0]) if multitask == "type" else None

        fwd = agent.forward_train(S, O)
        dsup = None
        if sup_target is not None:
            dsup = np.zeros_like(fwd.supervision)
            for b in range(3):
                _, g = nn.loss_and_grad("cross_entropy", fwd.supervision[b], sup_target[b])
                dsup[b] = lam * g
        analytic = agent.backward_train(fwd, wq, dsup)

        def loss(p):
            return full_model_loss(agent, p, S, O, wq, sup_target, lam)

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

    def test_shared_init_independent_of_head(self):
        plain = Agent(mini_spec("dron_moe"), seed=30)
        multi = Agent(mini_spec("dron_moe", multitask="type"), seed=30)
        for name in plain.params:
            assert np.array_equal(plain.params[name], multi.params[name]), name
