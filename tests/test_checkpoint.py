import re

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
from dron.config import ExperimentConfig, env_params_for
from dron.errors import CheckpointError
from test_config import BAD_VALUES


def make_quiz_checkpoint():
    agent = Agent(quiz_agent_spec("dqn"), seed=0)
    return Checkpoint(
        agent_spec=agent.spec, params=agent.params, environment="quizbowl",
        env_params={"vocab": 50, "question_min": 60, "question_max": 120,
                    "belief_alpha": 8.0, "belief_kappa": 1.0, "opponent_pool": 3},
    )


def make_checkpoint(seed=3, multitask="none"):
    agent = Agent(soccer_agent_spec("dron_moe", multitask=multitask), seed=seed)
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
        ckpt = make_quiz_checkpoint()
        path = tmp_path / "quiz.ckpt"
        save_checkpoint(ckpt, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.environment == "quizbowl"
        assert loaded.env_params["belief_alpha"] == 8.0
        assert loaded.env_params["vocab"] == 50
        pool = loaded.env_params["opponent_pool"]
        assert pool == 3 and type(pool) is int


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


def _set_token(line, index, text):
    tokens = line.split()
    tokens[index] = text
    return " ".join(tokens)


# (what, the line to edit, how) for each field that must be a number, a
# block size being a non-negative integer
MALFORMED = {
    "matrix_value": (lambda lines, i: lines[i - 1].startswith("matrix "),
                     lambda line: _set_token(line, 1, "abc")),
    "vector_value": (lambda lines, i: lines[i - 1].startswith("vector "),
                     lambda line: _set_token(line, 0, "abc")),
    "matrix_rows": (lambda lines, i: lines[i].startswith("matrix "),
                    lambda line: _set_token(line, 2, "x")),
    "matrix_cols": (lambda lines, i: lines[i].startswith("matrix "),
                    lambda line: _set_token(line, 3, "2.5")),
    "vector_length": (lambda lines, i: lines[i].startswith("vector "),
                      lambda line: _set_token(line, 2, "x")),
    "matrix_rows_negative": (lambda lines, i: lines[i].startswith("matrix "),
                             lambda line: _set_token(line, 2, "-1")),
    "vector_length_negative": (lambda lines, i: lines[i].startswith("vector "),
                               lambda line: _set_token(line, 2, "-2")),
    "steps": (lambda lines, i: lines[i].startswith("steps "),
              lambda line: "steps zz"),
    "rng": (lambda lines, i: lines[i].startswith("rng "),
            lambda line: _set_token(line, 2, "1e5")),
    "env_vocab": (lambda lines, i: lines[i].startswith("env.vocab "),
                  lambda line: "env.vocab 5x"),
    "env_belief_alpha": (lambda lines, i: lines[i].startswith("env.belief_alpha "),
                         lambda line: "env.belief_alpha 8.0.1"),
}
# agent-spec header fields: an integer (a list of them for the hidden
# sizes), or a real for multitask_weight
for _key, _bad in [("state_dim", "10x"), ("action_count", "5.0"), ("opponent_dim", "z"),
                   ("state_hidden", "50,x"), ("head_hidden", "5e1"),
                   ("opponent_hidden", "50x"), ("experts", "three"),
                   ("multitask_weight", "1,0"), ("multitask_outputs", "1.5")]:
    MALFORMED[_key] = (lambda lines, i, key=_key: lines[i].startswith(f"{key} "),
                       lambda line, key=_key, bad=_bad: f"{key} {bad}")


def write_malformed(tmp_path, field):
    """A saved checkpoint with one field made malformed; returns its path
    and the 1-based number of the edited line."""
    ckpt = make_quiz_checkpoint() if field.startswith("env_") else make_checkpoint()[0]
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()
    found, edit = MALFORMED[field]
    at = next(i for i in range(1, len(lines)) if found(lines, i))
    lines[at] = edit(lines[at])
    bad = tmp_path / f"{field}.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad), at + 1


@pytest.mark.parametrize("field", list(MALFORMED))
def test_non_numeric_field_names_its_line(tmp_path, field):
    path, line = write_malformed(tmp_path, field)
    # an env.* value goes through the config parser, which words it its own way
    with pytest.raises(CheckpointError,
                       match=rf"^line {line}: (.* is (not an integer|not a number|negative)"
                             rf"|malformed value for '\w+': .*)$"):
        load_checkpoint(path)


def _env_lines(text):
    """The settings of config text other than its environment, as env.* lines."""
    return [f"env.{key} {value}" for key, _, value in
            (line.partition("=") for line in text.splitlines()) if key != "environment"]


# (header lines written over a quiz checkpoint's, a word its error names):
# the quiz rows of the config's table of refused values, then values only a
# checkpoint could hold wrongly typed or unknown, and a vocab that does not
# fit the agent's state_dim
BAD_ENV_LINES = [
    pytest.param(_env_lines(row.values[0]), row.values[1], id=row.id)
    for row in BAD_VALUES
    if row.values[1] in env_params_for(ExperimentConfig(environment="quizbowl"))
] + [
    pytest.param(["env.opponent_pool 2.5"], "opponent_pool", id="pool_fraction"),
    pytest.param(["env.vocab 50.7"], "vocab", id="vocab_fraction"),
    pytest.param(["env.belief_alpha nan"], "belief_alpha must be finite", id="belief_alpha_nan"),
    pytest.param(["env.vocabb 7"], "vocabb", id="unknown_key"),
    pytest.param(["environment tennis"], "tennis", id="unknown_environment"),
    pytest.param(["env.vocab 60"], "state_dim", id="vocab_misfits_state_dim"),
    pytest.param(["environment soccer"], "environment soccer needs state_dim 15, got 102",
                 id="quiz_agent_on_soccer"),
]


@pytest.mark.parametrize("edits,named", BAD_ENV_LINES)
def test_bad_environment_line_fails_at_load(tmp_path, edits, named):
    path = tmp_path / "quiz.ckpt"
    save_checkpoint(make_quiz_checkpoint(), str(path))
    lines = path.read_text().splitlines()
    edited = []
    for new in edits:
        key = new.split()[0]
        at = next((i for i, line in enumerate(lines) if line.split()[0] == key), None)
        if at is None:  # a key the file lacks goes in as a new header line
            at = next(i for i, line in enumerate(lines) if line.startswith("params "))
            lines.insert(at, new)
        else:
            lines[at] = new
        edited.append(at + 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {max(edited)}: .*{named}"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key,value,named", [
    ("kind", "dqnx", "unknown agent kind 'dqnx'"),
    ("multitask", "bogus", "unknown multitask mode 'bogus'"),
    ("multitask_loss", "hinge", "unknown multitask loss 'hinge'"),
    ("opponent_dim", "3", "environment soccer needs opponent_dim 16, got 3"),
    ("multitask_outputs", "3", "multitask_outputs must be 1 without a multitask head, got 3"),
    ("multitask_weight", "nan", "multitask_weight must be finite and >= 0, got nan"),
    ("multitask_weight", "inf", "multitask_weight must be finite and >= 0, got inf"),
    ("multitask_weight", "-1", r"multitask_weight must be finite and >= 0, got -1\.0"),
])
def test_bad_agent_line_fails_at_load(tmp_path, key, value, named):
    # a soccer dron_moe checkpoint; a wrong opponent width names the
    # environment line, every other field its own
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[at] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    line = at + 1 if key != "opponent_dim" else next(
        i for i, text in enumerate(lines, 1) if text.startswith("environment "))
    with pytest.raises(CheckpointError, match=rf"^line {line}: {named}$"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("line", ["stepz 3", "foo 1", "env 1", "params_count 30"])
def test_unknown_header_key_names_its_line(tmp_path, line):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.startswith("steps "))
    lines.insert(at, line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError,
                       match=rf"^line {at + 1}: unknown header key '{line.split()[0]}'$"):
        load_checkpoint(str(path))


# a second line for a key already read, placed after the first one: the
# agent's fields, the run's counters and the environment's lines
@pytest.mark.parametrize("key,value", [
    ("steps", "999"), ("kind", "dqn"), ("multitask_outputs", "3"), ("rng", "1 2"),
    ("environment", "soccer"), ("env.vocab", "50"),
])
def test_repeated_header_key_names_its_second_line(tmp_path, key, value):
    checkpoint = make_quiz_checkpoint() if key.startswith("env.") else make_checkpoint()[0]
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[0] == key) + 1
    lines.insert(at, f"{key} {value}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {at + 1}: repeated header key '{key}'$"):
        load_checkpoint(str(path))


# (header key, value, what the error names): a size below 1 names its own
# line; a size the saved parameters do not fit names the first block that
# does not fit it (blocks are saved in name order)
@pytest.mark.parametrize("key,value,named", [
    ("multitask_outputs", "0", "multitask_outputs"),
    ("opponent_hidden", "0", "opponent_hidden"),
    ("state_hidden", "0", "state_hidden"),
    ("head_hidden", "-3", "head_hidden"),
    ("multitask_outputs", "3", "opponent_head.0.bias"),
    ("action_count", "4", "expert.0.1.bias"),
    ("experts", "2", "expert.2.0.bias"),
])
def test_size_that_misfits_names_a_line(tmp_path, key, value, named):
    # a soccer dron_moe checkpoint with a five-way action head
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(multitask="action")[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[0] == key)
    lines[at] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    line = next(i for i, text in enumerate(lines, 1) if named in text.split()[:2])
    with pytest.raises(CheckpointError, match=rf"^line {line}: .*{re.escape(named)}"):
        load_checkpoint(str(path))


def test_missing_block_names_the_params_line(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = lines.index("vector gate.0.bias 3")
    del lines[at:at + 2]
    params = next(i for i, text in enumerate(lines) if text.startswith("params "))
    lines[params] = f"params {int(lines[params].split()[1]) - 1}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {params + 1}: no block for .*'gate.0.bias'"):
        load_checkpoint(str(path))
