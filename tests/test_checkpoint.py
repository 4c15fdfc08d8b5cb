import numpy as np
import pytest

from dron.agents import Agent, quiz_agent_spec, soccer_agent_spec
from dron.checkpoint import (
    Checkpoint,
    load_checkpoint,
    rng_from_state,
    rng_state_of,
    save_checkpoint,
    value_lines,
)
from dron.errors import CheckpointError


def make_checkpoint(seed=3):
    agent = Agent(soccer_agent_spec("dron_moe"), seed=seed)
    rng = np.random.default_rng(5)
    rng.random(7)  # advance the stream so the state is non-trivial
    return Checkpoint(
        agent_spec=agent.spec,
        params=agent.params,
        environment="soccer",
        steps=1234,
        rng_state=rng_state_of(rng),
    ), agent


class TestRoundTrip:
    def test_bit_exact_params(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name]), name
        assert loaded.steps == 1234
        assert loaded.agent_spec == ckpt.agent_spec

    def test_identical_q_values(self, tmp_path):
        ckpt, agent = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        rebuilt = load_checkpoint(str(path)).build_agent()
        rng = np.random.default_rng(0)
        for _ in range(100):
            phi_s, phi_o = rng.normal(size=15), rng.normal(size=16)
            assert np.array_equal(agent.q_values(phi_s, phi_o), rebuilt.q_values(phi_s, phi_o))

    def test_rng_state_restores(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        a = rng_from_state(ckpt.rng_state)
        b = rng_from_state(loaded.rng_state)
        assert np.array_equal(a.random(10), b.random(10))

    def test_quiz_env_params_survive(self, tmp_path):
        agent = Agent(quiz_agent_spec("dqn"), seed=0)
        ckpt = Checkpoint(
            agent_spec=agent.spec, params=agent.params, environment="quizbowl",
            env_params={"vocab": 50, "question_min": 60, "question_max": 120,
                        "belief_alpha": 8.0, "belief_kappa": 1.0},
        )
        path = tmp_path / "quiz.ckpt"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.environment == "quizbowl"
        assert loaded.env_params["belief_alpha"] == 8.0
        assert loaded.env_params["vocab"] == 50


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e-5, 123456789.0,
               1e16, 1e17, np.inf, -np.inf, np.nan]


class TestValueText:
    def test_rows_match_per_value_formatting(self):
        rng = np.random.default_rng(8)
        rows = np.concatenate([
            np.array(EDGE_VALUES)[None, :],
            rng.normal(size=(3, len(EDGE_VALUES))) * 10.0 ** rng.integers(-300, 300, size=(3, 1)),
        ])
        expected = [" ".join(f"{x:.17g}" for x in row) for row in rows]
        assert value_lines(rows) == expected
        assert value_lines(rows[:, :1]) == [f"{row[0]:.17g}" for row in rows]
        assert value_lines(np.empty((1, 0))) == [""]

    def test_file_holds_per_value_text(self, tmp_path):
        vector = np.array(EDGE_VALUES[:-3])
        ckpt, _ = make_checkpoint()
        ckpt.params["gate.0.bias"] = vector[:3].copy()
        save_checkpoint(ckpt, str(tmp_path / "edge.ckpt"))
        lines = (tmp_path / "edge.ckpt").read_text().splitlines()
        weight = ckpt.params["gate.0.weight"]
        at = lines.index(f"matrix gate.0.weight {weight.shape[0]} {weight.shape[1]}")
        for i, row in enumerate(weight):
            assert lines[at + 1 + i] == " ".join(f"{x:.17g}" for x in row)
        at = lines.index("vector gate.0.bias 3")
        assert lines[at + 1] == " ".join(f"{x:.17g}" for x in vector[:3])
        loaded = load_checkpoint(str(tmp_path / "edge.ckpt"))
        assert loaded.params["gate.0.bias"].tobytes() == vector[:3].tobytes()


class TestErrors:
    def test_truncated_file_names_missing_section(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        text = path.read_text().splitlines()
        (tmp_path / "cut.ckpt").write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(CheckpointError, match="unexpected end of file"):
            load_checkpoint(str(tmp_path / "cut.ckpt"))

    def test_version_bump_rejected(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        text = path.read_text().replace("dron-checkpoint 1", "dron-checkpoint 2", 1)
        (tmp_path / "v2.ckpt").write_text(text)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(str(tmp_path / "v2.ckpt"))

    def test_corrupt_value_names_line(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("matrix "):
                lines[i + 1] = lines[i + 1] + " 0.5"  # extra value in a row
                break
        (tmp_path / "bad.ckpt").write_text("\n".join(lines))
        with pytest.raises(CheckpointError, match="line"):
            load_checkpoint(str(tmp_path / "bad.ckpt"))

    def test_not_a_checkpoint(self, tmp_path):
        (tmp_path / "junk.txt").write_text("hello world\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "junk.txt"))
