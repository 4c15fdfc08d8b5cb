import re
from dataclasses import replace

import numpy as np
import pytest

from checkpoint_v1 import save_v1, v1_text, value_lines
from dron.agents import (
    KINDS, MULTITASK_MODES, Agent, has_opponent_tower, quiz_agent_spec, soccer_agent_spec,
)
from dron.checkpoint import (
    Checkpoint,
    load_checkpoint,
    rng_from_state,
    rng_state_of,
    save_checkpoint,
)
from dron.config import ENVIRONMENTS, ExperimentConfig, agent_spec_for, env_params_for
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

    @pytest.mark.parametrize("words,fits", [((2**128 - 1, 2**128 - 1), True),
                                            ((0, 2**128), False), ((2**128, 1), False)])
    def test_rng_words_must_fit_128_bits(self, tmp_path, words, fits):
        # a PCG64 state is two 128-bit words; a larger one would only fail
        # later, as an OverflowError where the stream is restored
        ckpt, _ = make_checkpoint()
        ckpt.rng_state = words
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        if fits:
            rng_from_state(load_checkpoint(str(path)).rng_state).random()
            return
        line = 1 + path.read_text().splitlines().index(f"rng {words[0]} {words[1]}")
        with pytest.raises(CheckpointError,
                           match=rf"^line {line}: rng '\d+' does not fit in 128 bits$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("inc", [4, 0, 2**128 - 2])
    def test_rng_increment_must_be_odd(self, tmp_path, inc):
        # rng_state_of never writes an even increment, and numpy would take
        # one as given: a stream no seed gives
        ckpt, _ = make_checkpoint()
        ckpt.rng_state = (5, inc)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        line = 1 + path.read_text().splitlines().index(f"rng 5 {inc}")
        with pytest.raises(CheckpointError,
                           match=rf"^line {line}: rng increment '{inc}' is even; "
                                 r"a PCG64 stream's is odd$"):
            load_checkpoint(str(path))

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
    """Version 1 files, from the reference writer: decimal value text."""

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
        save_v1(ckpt, str(tmp_path / "edge.ckpt"))
        lines = (tmp_path / "edge.ckpt").read_text().splitlines()
        assert lines[0] == "dron-checkpoint 1"
        weight = ckpt.params["gate.0.weight"]
        at = lines.index(f"matrix gate.0.weight {weight.shape[0]} {weight.shape[1]}")
        for i, row in enumerate(weight):
            assert lines[at + 1 + i] == " ".join(f"{x:.17g}" for x in row)
        at = lines.index("vector gate.0.bias 3")
        assert lines[at + 1] == " ".join(f"{x:.17g}" for x in vector[:3])
        loaded = load_checkpoint(str(tmp_path / "edge.ckpt"))
        assert loaded.params["gate.0.bias"].tobytes() == vector[:3].tobytes()

    def test_v1_and_v2_load_to_the_same_bytes(self, tmp_path):
        ckpt, _ = make_checkpoint(multitask="type")
        save_v1(ckpt, str(tmp_path / "v1.ckpt"))
        save_checkpoint(ckpt, str(tmp_path / "v2.ckpt"))
        old, new = (load_checkpoint(str(tmp_path / f"{v}.ckpt")) for v in ("v1", "v2"))
        assert (old.agent_spec, old.steps, old.rng_state) == (new.agent_spec, new.steps,
                                                              new.rng_state)
        assert list(old.params) == list(new.params) == sorted(ckpt.params)
        for name, value in ckpt.params.items():
            assert old.params[name].tobytes() == new.params[name].tobytes() == value.tobytes()
        # the reference text of the reloaded v2 file is the v1 file
        assert v1_text(new) == (tmp_path / "v1.ckpt").read_text()


def _hex(values):
    return np.asarray(values, dtype="<f8").tobytes().hex()


SAVERS = [pytest.param(save_checkpoint, id="v2"), pytest.param(save_v1, id="v1")]


class TestHexRows:
    """Version 2, the format written: rows as little-endian float64 bytes in hex."""

    def test_file_holds_hex_rows(self, tmp_path):
        ckpt, _ = make_checkpoint()
        ckpt.params["gate.0.bias"] = np.array([1.0, -2.5, 0.0])
        save_checkpoint(ckpt, str(tmp_path / "model.ckpt"))
        lines = (tmp_path / "model.ckpt").read_text().splitlines()
        assert lines[0] == "dron-checkpoint 2"
        at = lines.index("vector gate.0.bias 3")
        # little-endian: 1.0 is 000000000000f03f
        assert lines[at + 1] == "000000000000f03f00000000000004c00000000000000000"
        weight = ckpt.params["gate.0.weight"]
        at = lines.index(f"matrix gate.0.weight {weight.shape[0]} {weight.shape[1]}")
        assert lines[at + 1:at + 1 + len(weight)] == [_hex(row) for row in weight]
        assert lines[at + 1 + len(weight)].split()[0] in ("matrix", "vector")

    def test_edge_values_round_trip(self, tmp_path):
        # every finite edge value and its negation, in a matrix and a vector;
        # the non-finite ones are refused at load
        finite = np.array(EDGE_VALUES[:-3])
        edge = np.concatenate([finite, -finite])
        agent = Agent(soccer_agent_spec("dqn"), seed=0)
        params = dict(agent.params)
        for name in ("q_net.0.weight", "q_net.0.bias"):
            params[name] = np.resize(edge, params[name].shape)
        path = tmp_path / "edge.ckpt"
        save_checkpoint(Checkpoint(agent_spec=agent.spec, params=params), str(path))
        loaded = load_checkpoint(str(path)).params
        for name, value in params.items():
            assert loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("save", SAVERS)
    def test_loaded_arrays_are_writable(self, tmp_path, save):
        ckpt, _ = make_checkpoint()
        save(ckpt, str(tmp_path / "model.ckpt"))
        for name, value in load_checkpoint(str(tmp_path / "model.ckpt")).params.items():
            assert value.dtype == np.float64 and value.flags.writeable, name
            value += 1.0


class TestErrors:
    def test_truncated_file_names_missing_section(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        text = path.read_text().splitlines()
        (tmp_path / "cut.ckpt").write_text("\n".join(text[: len(text) // 2]))
        # the error names the file's last line, where it ran out
        with pytest.raises(CheckpointError, match=rf"^line {len(text) // 2}: unexpected end of "
                                                  rf"file while reading matrix '[\w.]+' row \d+$"):
            load_checkpoint(str(tmp_path / "cut.ckpt"))
        # an empty file runs out on its first line
        (tmp_path / "empty.ckpt").write_text("")
        with pytest.raises(CheckpointError, match=r"^line 1: unexpected end of file while "
                                                  r"reading format header$"):
            load_checkpoint(str(tmp_path / "empty.ckpt"))

    @pytest.mark.parametrize("key", ["kind", "environment", "steps"])
    def test_missing_header_field_names_the_params_line(self, tmp_path, key):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        lines = [line for line in path.read_text().splitlines() if line.split()[0] != key]
        path.write_text("\n".join(lines) + "\n")
        line = next(i for i, text in enumerate(lines, 1) if text.startswith("params "))
        with pytest.raises(CheckpointError, match=rf"^line {line}: missing header field '{key}'$"):
            load_checkpoint(str(path))

    def test_version_bump_rejected(self, tmp_path):
        ckpt, _ = make_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, str(path))
        text = path.read_text().replace("dron-checkpoint 2", "dron-checkpoint 3", 1)
        (tmp_path / "v3.ckpt").write_text(text)
        with pytest.raises(CheckpointError,
                           match=r"^line 1: unsupported checkpoint version 3 \(supported: 1, 2\)$"):
            load_checkpoint(str(tmp_path / "v3.ckpt"))

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
# block size being a non-negative integer; the values are version 1 text
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
    "rng_negative": (lambda lines, i: lines[i].startswith("rng "),
                     lambda line: "rng -1 -2"),
    "steps_negative": (lambda lines, i: lines[i].startswith("steps "),
                       lambda line: "steps -7"),
    "env_vocab": (lambda lines, i: lines[i].startswith("env.vocab "),
                  lambda line: "env.vocab 5x"),
    "env_belief_alpha": (lambda lines, i: lines[i].startswith("env.belief_alpha "),
                         lambda line: "env.belief_alpha 8.0.1"),
    "params_count": (lambda lines, i: lines[i].startswith("params "),
                     lambda line: "params six"),
    "params_count_trailing": (lambda lines, i: lines[i].startswith("params "),
                              lambda line: line + " junk"),
}
# agent header lines: the config keys experts (an integer) and
# multitask_weight (a real), and the derived sizes, which hold the derived
# value's text
for _key, _bad in [("state_dim", "10x"), ("action_count", "5.0"), ("opponent_dim", "z"),
                   ("state_hidden", "50,x"), ("head_hidden", "5e1"),
                   ("opponent_hidden", "50x"), ("experts", "three"),
                   ("multitask_weight", "1,0"), ("multitask_outputs", "1.5")]:
    MALFORMED[_key] = (lambda lines, i, key=_key: lines[i].startswith(f"{key} "),
                       lambda line, key=_key, bad=_bad: f"{key} {bad}")


# fields of MALFORMED that are decimal value text, which only a version 1
# file holds
DECIMAL_FIELDS = ("matrix_value", "vector_value")


def _set_char(line, index, char):
    return line[:index] + char + line[index + 1:]


# (the line to edit, how) for each way a version 2 hex row can be malformed
MALFORMED_HEX = {
    "hex_row_short": (lambda lines, i: lines[i - 1].startswith("matrix "),
                      lambda line: line[:-1]),
    "hex_row_long": (lambda lines, i: lines[i - 1].startswith("vector "),
                     lambda line: line + "00"),
    "hex_row_digit": (lambda lines, i: lines[i - 1].startswith("matrix "),
                      lambda line: _set_char(line, 21, "g")),
    "hex_vector_space": (lambda lines, i: lines[i - 1].startswith("vector "),
                         lambda line: _set_char(line, 16, " ")),
}


def write_malformed(tmp_path, field):
    """A saved checkpoint with one field of MALFORMED or MALFORMED_HEX made
    malformed; returns its path and the 1-based number of the edited line."""
    ckpt = make_quiz_checkpoint() if field.startswith("env_") else make_checkpoint()[0]
    path = tmp_path / "model.ckpt"
    (save_v1 if field in DECIMAL_FIELDS else save_checkpoint)(ckpt, str(path))
    lines = path.read_text().splitlines()
    found, edit = {**MALFORMED, **MALFORMED_HEX}[field]
    at = next(i for i in range(1, len(lines)) if found(lines, i))
    lines[at] = edit(lines[at])
    bad = tmp_path / f"{field}.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad), at + 1


@pytest.mark.parametrize("field", list(MALFORMED))
def test_non_numeric_field_names_its_line(tmp_path, field):
    path, line = write_malformed(tmp_path, field)
    # a config key (env.*, experts, multitask_weight) goes through the config
    # parser, which words it its own way, and the params count has its own
    # wording; a derived size does not fit the agent
    with pytest.raises(CheckpointError,
                       match=rf"^line {line}: (.* is (not an integer|not a number|negative)"
                             rf"|malformed value for '\w+': .*"
                             rf"|malformed params count 'params .*'"
                             rf"|{field} \S+ does not fit the header's soccer dron_moe agent, "
                             rf"which has .*)$"):
        load_checkpoint(path)


# the first matrix block of make_checkpoint's file is expert.0.0.weight
# (50 x 50), and its first vector block expert.0.0.bias (50)
@pytest.mark.parametrize("field,named", [
    ("hex_row_short", "matrix 'expert.0.0.weight' row 0 has 799 characters, "
                      "expected 800 hex digits"),
    ("hex_row_long", "vector 'expert.0.0.bias' has 802 characters, expected 800 hex digits"),
    ("hex_row_digit", "matrix 'expert.0.0.weight' row 0 holds 'g', which is not a hex digit"),
    ("hex_vector_space", "vector 'expert.0.0.bias' holds ' ', which is not a hex digit"),
])
def test_malformed_hex_row_names_its_line(tmp_path, field, named):
    path, line = write_malformed(tmp_path, field)
    with pytest.raises(CheckpointError, match=rf"^line {line}: {re.escape(named)}$"):
        load_checkpoint(path)


def _env_lines(text):
    """The settings of config text other than its environment, as env.* lines."""
    return [f"env.{key} {value}" for key, _, value in
            (line.partition("=") for line in text.splitlines()) if key != "environment"]


# (header lines written over a quiz checkpoint's, a word its error names,
# the header key of the line it names, or None for the last edited line):
# the quiz rows of the config's table of refused values, then values only a
# checkpoint could hold wrongly typed or unknown, and environments the
# agent's state_dim does not fit, which name the state_dim line
BAD_ENV_LINES = [
    pytest.param(_env_lines(row.values[0]), row.values[1], None, id=row.id)
    for row in BAD_VALUES
    if row.values[1] in env_params_for(ExperimentConfig(environment="quizbowl"))
] + [
    pytest.param(["env.opponent_pool 2.5"], "opponent_pool", None, id="pool_fraction"),
    pytest.param(["env.vocab 50.7"], "vocab", None, id="vocab_fraction"),
    pytest.param(["env.belief_alpha nan"], "belief_alpha must be finite", None,
                 id="belief_alpha_nan"),
    pytest.param(["env.vocabb 7"], "vocabb", None, id="unknown_key"),
    pytest.param(["environment tennis"], "tennis", None, id="unknown_environment"),
    pytest.param(["env.vocab 60"], "state_dim 102 does not fit the header's quizbowl dqn agent, "
                 "which has 122", "state_dim", id="vocab_misfits_state_dim"),
    pytest.param(["environment soccer"], "state_dim 102 does not fit the header's soccer dqn "
                 "agent, which has 15", "state_dim", id="quiz_agent_on_soccer"),
]


@pytest.mark.parametrize("edits,named,named_key", BAD_ENV_LINES)
def test_bad_environment_line_fails_at_load(tmp_path, edits, named, named_key):
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
    line = max(edited) if named_key is None else next(
        i for i, text in enumerate(lines, 1) if text.split()[0] == named_key)
    with pytest.raises(CheckpointError, match=rf"^line {line}: .*{named}"):
        load_checkpoint(str(path))


def _misfit(key, value, has):
    """The error of a derived agent line that a soccer dron_moe agent does not fit."""
    return f"{key} {value} does not fit the header's soccer dron_moe agent, which has {has}"


# an explicit id keeps a case's name where the error's wording has changed
@pytest.mark.parametrize("key,value,named", [
    ("kind", "dqnx", "unknown agent kind 'dqnx'"),
    ("multitask", "bogus", "unknown multitask mode 'bogus'"),
    pytest.param("multitask_loss", "hinge", _misfit("multitask_loss", "hinge", "cross_entropy"),
                 id="multitask_loss-hinge-unknown multitask loss 'hinge'"),
    pytest.param("opponent_dim", "3", _misfit("opponent_dim", 3, 16),
                 id="opponent_dim-3-environment soccer needs opponent_dim 16, got 3"),
    pytest.param("multitask_outputs", "3", _misfit("multitask_outputs", 3, 1),
                 id="multitask_outputs-3-multitask_outputs must be 1 without a multitask head, "
                    "got 3"),
    ("multitask_weight", "nan", "multitask_weight must be finite and >= 0, got nan"),
    ("multitask_weight", "inf", "multitask_weight must be finite and >= 0, got inf"),
    ("multitask_weight", "-1", r"multitask_weight must be finite and >= 0, got -1\.0"),
])
def test_bad_agent_line_fails_at_load(tmp_path, key, value, named):
    # a soccer dron_moe checkpoint; each bad line is named
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[at] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {at + 1}: {named}$"):
        load_checkpoint(str(path))


def misfit_checkpoint(environment, kind, key, value):
    """A checkpoint of the environment's standard `kind` agent with its
    `key` width set to `value`: it builds and saves, but it does not fit the
    environment's states, moves or opponent features."""
    standard = soccer_agent_spec(kind) if environment == "soccer" else quiz_agent_spec(kind)
    agent = Agent(replace(standard, **{key: value}), seed=0)
    return Checkpoint(agent_spec=agent.spec, params=agent.params, environment=environment)


# (environment, kind, width, value, the error); a width the agent does not
# fit names its own line. An explicit id keeps a case's name where the
# error's wording has changed.
MISFITS = [
    pytest.param("soccer", "dqn", "action_count", 7,
                 "action_count 7 does not fit the header's soccer dqn agent, which has 5",
                 id="soccer-dqn-action_count-7-environment soccer needs action_count 5, got 7"),
    pytest.param("soccer", "dron_concat", "state_dim", 14,
                 "state_dim 14 does not fit the header's soccer dron_concat agent, which has 15",
                 id="soccer-dron_concat-state_dim-14-environment soccer needs state_dim 15, "
                    "got 14"),
    pytest.param("quizbowl", "dqn", "action_count", 3,
                 "action_count 3 does not fit the header's quizbowl dqn agent, which has 2",
                 id="quizbowl-dqn-action_count-3-environment quizbowl needs action_count 2, "
                    "got 3"),
    pytest.param("quizbowl", "dron_moe", "opponent_dim", 4,
                 "opponent_dim 4 does not fit the header's quizbowl dron_moe agent, which has 3",
                 id="quizbowl-dron_moe-opponent_dim-4-environment quizbowl needs opponent_dim 3, "
                    "got 4"),
    # a dqn agent reads no opponent features, and no run writes a width for them
    pytest.param("soccer", "dqn", "opponent_dim", 4,
                 "opponent_dim 4 does not fit the header's soccer dqn agent, which has 0",
                 id="soccer-dqn-opponent_dim-4"),
]


@pytest.mark.parametrize("environment,kind,key,value,named", MISFITS)
def test_agent_that_misfits_its_environment_fails_at_load(tmp_path, environment, kind, key,
                                                          value, named):
    path = tmp_path / "model.ckpt"
    save_checkpoint(misfit_checkpoint(environment, kind, key, value), str(path))
    line = next(i for i, text in enumerate(path.read_text().splitlines(), 1)
                if text.split()[0] == key)
    with pytest.raises(CheckpointError, match=rf"^line {line}: {named}$"):
        load_checkpoint(str(path))


# an env.<key> line is one of the environment's keys, never another config key
@pytest.mark.parametrize("line", ["stepz 3", "foo 1", "env 1", "params_count 30",
                                  "env.agent dron_moe", "env.gamma 0.5"])
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


@pytest.mark.parametrize("line", ["env.vocab 60", "env.opponent_pool 3", "env.belief_alpha 8.0"])
def test_env_line_in_a_soccer_checkpoint_names_its_line(tmp_path, line):
    # a soccer game reads no env.<key>, so a line for one is refused, not dropped
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.startswith("steps "))
    lines.insert(at, line)
    path.write_text("\n".join(lines) + "\n")
    key = line.split()[0]
    with pytest.raises(CheckpointError,
                       match=rf"^line {at + 1}: a soccer checkpoint has no {key} line$"):
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


# (header key, value, what the error names): a derived size other than the
# agent's names its own line; an expert count the saved parameters do not
# fit names the first block that does not fit it (blocks are saved in name
# order). An explicit id keeps a case's name where the named line changed.
@pytest.mark.parametrize("key,value,named", [
    ("multitask_outputs", "0", "multitask_outputs"),
    ("opponent_hidden", "0", "opponent_hidden"),
    ("state_hidden", "0", "state_hidden"),
    ("head_hidden", "-3", "head_hidden"),
    pytest.param("multitask_outputs", "3", "multitask_outputs",
                 id="multitask_outputs-3-opponent_head.0.bias"),
    pytest.param("action_count", "4", "action_count", id="action_count-4-expert.0.1.bias"),
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


def _dqn_checkpoint():
    agent = Agent(soccer_agent_spec("dqn"), seed=1)
    return Checkpoint(agent_spec=agent.spec, params=agent.params)


WRITERS = [pytest.param(save_checkpoint, _hex, id="v2"),
           pytest.param(save_v1, lambda values: " ".join(map(repr, values)), id="v1")]


@pytest.mark.parametrize("save,row_text", WRITERS)
def test_repeated_parameter_block_names_its_second_line(tmp_path, save, row_text):
    path = tmp_path / "model.ckpt"
    save(_dqn_checkpoint(), str(path))
    lines = path.read_text().splitlines()
    params = next(i for i, text in enumerate(lines) if text.startswith("params "))
    lines[params] = f"params {int(lines[params].split()[1]) + 1}"
    at = lines.index("end")
    lines[at:at] = ["vector q_net.2.bias 5", row_text([9.0] * 5)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError,
                       match=rf"^line {at + 1}: repeated parameter block 'q_net.2.bias'$"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("save", SAVERS)
def test_text_after_end_names_its_line(tmp_path, save):
    path = tmp_path / "model.ckpt"
    save(_dqn_checkpoint(), str(path))
    text = path.read_text()
    # blank lines after the end marker are skipped, as everywhere
    path.write_text(text + "\n  \n")
    load_checkpoint(str(path))
    path.write_text(text + "\ngarbage here\n")
    line = len(text.splitlines()) + 2
    with pytest.raises(CheckpointError, match=rf"^line {line}: text after 'end': 'garbage here'$"):
        load_checkpoint(str(path))


# (writer, parameter, row, the value's text): a non-finite value in place of
# the fourth value of a matrix's third row or of a vector
@pytest.mark.parametrize("save,name,row,value", [
    (save_v1, "q_net.1.weight", 2, "nan"),
    (save_v1, "q_net.0.bias", 0, "-inf"),
    (save_checkpoint, "q_net.1.weight", 2, _hex([np.nan])),
    (save_checkpoint, "q_net.1.weight", 2, _hex([np.inf])),
    (save_checkpoint, "q_net.1.weight", 2, _hex([-np.inf])),
    (save_checkpoint, "q_net.0.bias", 0, "010000000000f07f"),  # a signalling NaN
], ids=["v1-nan", "v1-vector-neg-inf", "v2-nan", "v2-inf", "v2-neg-inf", "v2-vector-snan"])
def test_non_finite_value_names_its_line(tmp_path, save, name, row, value):
    path = tmp_path / "model.ckpt"
    save(_dqn_checkpoint(), str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[1:2] == [name]) + 1 + row
    if save is save_v1:
        lines[at] = _set_token(lines[at], 3, value)
    else:
        lines[at] = lines[at][:48] + value + lines[at][64:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError,
                       match=rf"^line {at + 1}: parameter '{re.escape(name)}' "
                             rf"contains non-finite values$"):
        load_checkpoint(str(path))


# every agent a run can build: each environment, kind and multitask head,
# and a quiz agent with other config values for its derived sizes
RUN_CONFIGS = [
    pytest.param({"environment": env, "agent": kind, "multitask": mode}, id=f"{env}-{kind}-{mode}")
    for env in ENVIRONMENTS for kind in KINDS for mode in MULTITASK_MODES
    if mode == "none" or has_opponent_tower(kind)
] + [pytest.param({"environment": "quizbowl", "agent": "dron_moe", "multitask": "action",
                   "vocab": 7, "experts": 4, "multitask_weight": 0.25},
                  id="quizbowl-vocab7-experts4-weight0.25")]


def run_checkpoint(settings):
    """The checkpoint a run of ``settings`` would save, and its config."""
    config = ExperimentConfig(**settings)
    agent = Agent(agent_spec_for(config), seed=4)
    return Checkpoint(agent_spec=agent.spec, params=agent.params, environment=config.environment,
                      steps=7, env_params=env_params_for(config)), config


@pytest.mark.parametrize("settings", RUN_CONFIGS)
def test_loaded_agent_is_derived_from_the_config(tmp_path, settings):
    ckpt, config = run_checkpoint(settings)
    save_checkpoint(ckpt, str(tmp_path / "v2.ckpt"))
    save_v1(ckpt, str(tmp_path / "v1.ckpt"))
    for version in ("v1", "v2"):
        loaded = load_checkpoint(str(tmp_path / f"{version}.ckpt"))
        assert loaded.agent_spec == agent_spec_for(config), version
        assert (loaded.environment, loaded.env_params) == (config.environment,
                                                           env_params_for(config))
        assert loaded.params.keys() == ckpt.params.keys()


# a value other than the soccer dron_moe agent's for each derived agent line
WRONG_DERIVED = {"state_dim": "16", "action_count": "6", "opponent_dim": "15",
                 "state_hidden": "50,50", "head_hidden": "49", "opponent_hidden": "10",
                 "multitask_outputs": "2", "multitask_loss": "mean_squared"}


@pytest.mark.parametrize("save", SAVERS)
@pytest.mark.parametrize("key", list(WRONG_DERIVED))
def test_derived_line_that_disagrees_names_its_line(tmp_path, key, save):
    path = tmp_path / "model.ckpt"
    save(make_checkpoint()[0], str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, text in enumerate(lines) if text.split()[0] == key)
    has = lines[at].split()[1]
    lines[at] = f"{key} {WRONG_DERIVED[key]}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {at + 1}: "
                                              rf"{re.escape(_misfit(key, WRONG_DERIVED[key], has))}$"):
        load_checkpoint(str(path))
