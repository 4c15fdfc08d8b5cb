"""Versioned plain-text checkpoints.

Layout: a version line, flat header keys, a ``params`` count, then one block
per parameter ("matrix name rows cols" or "vector name n" followed by one
line per row), closed by an "end" line. Parse errors name the offending
line. A header key that ``save_checkpoint`` does not write is refused, as is
a second line for a key already read, a second block for a parameter, a
non-finite value and any text after "end"; each parameter block must be one
of the header's agent, in its shape.

Only the row encoding depends on the version. Version 2, the one written,
stores a row as its float64 values' little-endian IEEE-754 bytes in hex, 16
digits per value (1.0 is ``000000000000f03f``). The bytes are the float, so
every value, -0.0 and subnormals included, round-trips exactly by
construction, and neither side runs a binary-decimal conversion, which cost
about 0.5 µs per value each way. Version 1 stored each value as 17
significant decimal digits; it is still read, so older checkpoints load, but
never written.

The header's agent follows from its run's config, as ``config.agent_spec_for``
derives it. The lines that are config keys, ``environment``, the
``env.<key>`` lines and the agent's ``kind`` (the config's ``agent``),
``experts``, ``multitask`` and ``multitask_weight``, are parsed and checked
by the config's own parser and rules (``config_from_lines``): a bad value
fails at load naming its line. The ``env.<key>`` lines are the fields of
``quizbowl.QuizConfig``, in its order, and one that an older checkpoint
lacks takes its ``QuizConfig`` default. An ``env.<key>`` line that is not a
key of the header's environment (any in a soccer checkpoint) is refused,
naming its line. The agent is the spec derived from that config. The other
eight agent lines, ``state_dim``, ``action_count``,
``opponent_dim``, ``state_hidden``, ``head_hidden``, ``opponent_hidden``,
``multitask_outputs`` and ``multitask_loss``, hold derived values: they are
written for a reader of the file, and loading fails naming the first whose
text is not that of the derived value.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .agents import Agent, AgentSpec, param_layout
from .config import ExperimentConfig, agent_spec_for, config_from_lines, env_params_for
from .errors import CheckpointError, ConfigurationError
from .nn import ParamSet
from .quizbowl import QuizConfig

FORMAT_NAME = "dron-checkpoint"
FORMAT_VERSION = 2
# the header lines that are config keys, each with its config name
_CONFIG_KEYS = {"environment": "environment", "kind": "agent", "experts": "experts",
                "multitask": "multitask", "multitask_weight": "multitask_weight"}
_ENV_KEYS = tuple(f"env.{f.name}" for f in fields(QuizConfig))
# the header lines every file holds, in the order `save_checkpoint` writes them
_REQUIRED_KEYS = ("environment", *(f.name for f in fields(AgentSpec)), "steps")
# the agent lines whose values are derived from the config keys
_DERIVED_KEYS = tuple(f.name for f in fields(AgentSpec) if f.name not in _CONFIG_KEYS)
_HEADER_KEYS = frozenset({*_REQUIRED_KEYS, *_ENV_KEYS, "rng"})


@dataclass
class Checkpoint:
    agent_spec: AgentSpec
    params: ParamSet
    environment: str = ExperimentConfig.environment
    steps: int = 0
    rng_state: Optional[Tuple[int, int]] = None  # PCG64 (state, inc)
    env_params: Dict[str, float] = field(default_factory=dict)

    def build_agent(self) -> Agent:
        return Agent(self.agent_spec, params=self.params)


def rng_state_of(rng: np.random.Generator) -> Tuple[int, int]:
    state = rng.bit_generator.state
    return int(state["state"]["state"]), int(state["state"]["inc"])


def rng_from_state(state: Tuple[int, int]) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _text(value) -> str:
    """A header value as the file holds it: a float as its repr, a tuple of
    sizes comma separated."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    spec = checkpoint.agent_spec
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    header = {
        "environment": checkpoint.environment,
        **{f.name: getattr(spec, f.name) for f in fields(AgentSpec)},
        "steps": checkpoint.steps,
        **{f"env.{key}": value for key, value in checkpoint.env_params.items()},
    }
    if checkpoint.rng_state is not None:
        header["rng"] = f"{checkpoint.rng_state[0]} {checkpoint.rng_state[1]}"
    for key, value in header.items():
        lines.append(f"{key} {_text(value)}")
    lines.append(f"params {len(checkpoint.params)}")
    for name in sorted(checkpoint.params):
        value = checkpoint.params[name]
        if value.ndim == 2:
            lines.append(f"matrix {name} {value.shape[0]} {value.shape[1]}")
            rows = value
        elif value.ndim == 1:
            lines.append(f"vector {name} {value.shape[0]}")
            rows = value[None, :]
        else:
            raise CheckpointError(f"parameter {name!r} has unsupported rank {value.ndim}")
        lines.extend(row.tobytes().hex() for row in np.ascontiguousarray(rows, dtype="<f8"))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_or_none(self) -> Optional[str]:
        """The next non-blank line, stripped, or None at the end of the file."""
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        return None

    def next(self, context: str) -> str:
        line = self.next_or_none()
        if line is None:
            raise CheckpointError(f"line {max(self.pos, 1)}: unexpected end of file "
                                  f"while reading {context}")
        return line

    @property
    def line_no(self) -> int:
        return self.pos


def _parsed(convert, text: str, line: int, what: str):
    """``convert(text)`` (``int`` or ``float``), or a CheckpointError naming
    the line."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise CheckpointError(f"line {line}: {what} {text!r} is not {kind}") from None


def _size(text: str, line: int, what: str) -> int:
    """A non-negative integer (a block size or the step count), or a
    CheckpointError naming the line."""
    n = _parsed(int, text, line, what)
    if n < 0:
        raise CheckpointError(f"line {line}: {what} {text!r} is negative")
    return n


def _decimal_row(text: str, n: int, line: int, what: str) -> np.ndarray:
    """A version 1 row: ``n`` decimal numbers, space separated, or a
    CheckpointError naming the line and the first value that is not a
    number."""
    texts = text.split()
    if len(texts) != n:
        raise CheckpointError(f"line {line}: {what} has {len(texts)} values, expected {n}")
    try:
        return np.array([float(v) for v in texts])
    except ValueError:
        for value in texts:
            _parsed(float, value, line, f"{what} value")
        raise


def _hex_row(text: str, n: int, line: int, what: str) -> np.ndarray:
    """A version 2 row: ``n`` float64 values as little-endian bytes in hex,
    or a CheckpointError naming the line."""
    if len(text) != 16 * n:
        raise CheckpointError(f"line {line}: {what} has {len(text)} characters, "
                              f"expected {16 * n} hex digits")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raw = b""
    # fromhex skips whitespace, so a row of the right length can decode short
    if len(raw) != 8 * n:
        bad = next(c for c in text if c not in string.hexdigits)
        raise CheckpointError(f"line {line}: {what} holds {bad!r}, which is not a hex digit")
    return np.frombuffer(raw, "<f8")


# the row decoder of each version `load_checkpoint` reads
_ROW_DECODERS = {"1": _decimal_row, "2": _hex_row}


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        reader = _Reader(fh.read())

    head = reader.next("format header").split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise CheckpointError(f"line {reader.line_no}: not a {FORMAT_NAME} file")
    decode = _ROW_DECODERS.get(head[1])
    if decode is None:
        raise CheckpointError(
            f"line {reader.line_no}: unsupported checkpoint version {head[1]} "
            f"(supported: {', '.join(_ROW_DECODERS)})"
        )

    header: Dict[str, str] = {}
    header_line: Dict[str, int] = {}
    line = reader.next("header")
    while not line.startswith("params "):
        key, _, value = line.partition(" ")
        if not value:
            raise CheckpointError(f"line {reader.line_no}: malformed header line {line!r}")
        if key not in _HEADER_KEYS:
            raise CheckpointError(f"line {reader.line_no}: unknown header key {key!r}")
        if key in header:
            raise CheckpointError(f"line {reader.line_no}: repeated header key {key!r}")
        header[key] = value
        header_line[key] = reader.line_no
        line = reader.next("header")

    try:
        _, count = line.split()  # "params" and the count, nothing after
        param_count = int(count)
    except ValueError:
        raise CheckpointError(f"line {reader.line_no}: malformed params count {line!r}") from None
    params_line = reader.line_no

    missing = next((key for key in _REQUIRED_KEYS if key not in header), None)
    if missing is not None:  # the header ends at the params line
        raise CheckpointError(f"line {params_line}: missing header field {missing!r}")

    # the config keys go through the config's parser and rules, and the agent
    # is derived from the config as a run derives it
    try:
        config = config_from_lines(
            (header_line[key], _CONFIG_KEYS.get(key, key.removeprefix("env.")), value)
            for key, value in header.items() if key in _CONFIG_KEYS or key in _ENV_KEYS)
    except ConfigurationError as exc:
        raise CheckpointError(str(exc)) from None
    spec = agent_spec_for(config)
    for name in _DERIVED_KEYS:
        want = _text(getattr(spec, name))
        if header[name] != want:
            raise CheckpointError(
                f"line {header_line[name]}: {name} {header[name]} does not fit the header's "
                f"{config.environment} {config.agent} agent, which has {want}")
    env_params = env_params_for(config)
    for key in _ENV_KEYS:
        if key in header and key.removeprefix("env.") not in env_params:
            raise CheckpointError(f"line {header_line[key]}: a {config.environment} "
                                  f"checkpoint has no {key} line")

    rng_state = None
    if "rng" in header:
        parts = header["rng"].split()
        if len(parts) != 2:
            raise CheckpointError(f"line {header_line['rng']}: malformed rng state in header")
        rng_state = tuple(_size(part, header_line["rng"], "rng") for part in parts)
        if max(rng_state) >= 1 << 128:  # a PCG64 state is two 128-bit words
            raise CheckpointError(f"line {header_line['rng']}: rng "
                                  f"'{max(rng_state)}' does not fit in 128 bits")
        if rng_state[1] % 2 == 0:  # a PCG64 stream's increment is odd
            raise CheckpointError(f"line {header_line['rng']}: rng increment "
                                  f"'{rng_state[1]}' is even; a PCG64 stream's is odd")
    steps = _size(header["steps"], header_line["steps"], "steps")

    # every block must be one the header's agent has, in its shape
    layout = dict(param_layout(spec))
    params: ParamSet = {}
    for _ in range(param_count):
        block = reader.next("parameter block").split()
        at = reader.line_no
        if block[0] == "matrix" and len(block) == 4:
            shape = (_size(block[2], at, f"matrix {block[1]!r} row count"),
                     _size(block[3], at, f"matrix {block[1]!r} column count"))
        elif block[0] == "vector" and len(block) == 3:
            shape = (_size(block[2], at, f"vector {block[1]!r} length"),)
        else:
            raise CheckpointError(
                f"line {at}: expected a matrix/vector block, got {' '.join(block)!r}"
            )
        name = block[1]
        if name in params:
            raise CheckpointError(f"line {at}: repeated parameter block {name!r}")
        if name not in layout:
            raise CheckpointError(f"line {at}: parameter {name!r} does not belong to "
                                  f"the header's {spec.kind} agent")
        if shape != layout[name]:
            raise CheckpointError(f"line {at}: parameter {name!r} has shape {shape}, "
                                  f"the header's agent needs {layout[name]}")
        # a vector is read as a matrix of one row
        rows, cols = shape if len(shape) == 2 else (1, shape[0])
        data = np.empty((rows, cols))
        row_lines = []
        for r in range(rows):
            what = f"matrix {name!r} row {r}" if len(shape) == 2 else f"vector {name!r}"
            data[r] = decode(reader.next(what), cols, reader.line_no, what)
            row_lines.append(reader.line_no)
        finite = np.isfinite(data)
        if not finite.all():
            first = int(np.argmin(finite)) // cols
            raise CheckpointError(f"line {row_lines[first]}: parameter {name!r} "
                                  f"contains non-finite values")
        params[name] = data.reshape(shape)
    missing = [name for name in layout if name not in params]
    if missing:
        raise CheckpointError(f"line {params_line}: no block for parameter {missing[0]!r}, "
                              f"which the header's agent needs")

    closing = reader.next("end marker")
    if closing != "end":
        raise CheckpointError(f"line {reader.line_no}: expected 'end', got {closing!r}")
    extra = reader.next_or_none()
    if extra is not None:
        raise CheckpointError(f"line {reader.line_no}: text after 'end': {extra!r}")

    return Checkpoint(
        agent_spec=spec,
        params=params,
        environment=config.environment,
        steps=steps,
        rng_state=rng_state,
        env_params=env_params,
    )
