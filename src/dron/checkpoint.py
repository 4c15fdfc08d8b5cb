"""Versioned plain-text checkpoints.

Layout: a version line, flat header keys, then one block per parameter
("matrix name rows cols" or "vector name n" followed by the values with 17
significant digits, which round-trips 64-bit reals exactly), closed by an
"end" line. Parse errors name the offending line. A header key that
``save_checkpoint`` does not write is refused, as is a second line for a
key already read, and each parameter block must be one of the header's
agent, in its shape.

The ``environment`` and ``env.<key>`` header lines are config keys, parsed
and checked by the config's own parser and rules (``config_from_lines``): a
bad value fails at load naming its line, and a key an older checkpoint lacks
takes its ``ExperimentConfig`` default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .agents import Agent, AgentSpec, param_layout, quiz_agent_spec, soccer_agent_spec
from .config import config_from_lines, env_params_for
from .errors import CheckpointError, ConfigurationError
from .nn import ParamSet

FORMAT_NAME = "dron-checkpoint"
FORMAT_VERSION = 1
# the header keys `save_checkpoint` writes, besides the env.<key> lines
_HEADER_KEYS = frozenset({"environment", "steps", "rng", *(f.name for f in fields(AgentSpec))})


@dataclass
class Checkpoint:
    agent_spec: AgentSpec
    params: ParamSet
    environment: str = "soccer"
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


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    spec = checkpoint.agent_spec
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    header = {
        "environment": checkpoint.environment,
        "kind": spec.kind,
        "state_dim": spec.state_dim,
        "action_count": spec.action_count,
        "opponent_dim": spec.opponent_dim,
        "state_hidden": ",".join(map(str, spec.state_hidden)),
        "head_hidden": ",".join(map(str, spec.head_hidden)),
        "opponent_hidden": spec.opponent_hidden,
        "experts": spec.experts,
        "multitask": spec.multitask,
        "multitask_weight": repr(spec.multitask_weight),
        "multitask_outputs": spec.multitask_outputs,
        "multitask_loss": spec.multitask_loss,
        "steps": checkpoint.steps,
    }
    for key, value in checkpoint.env_params.items():
        header[f"env.{key}"] = repr(value) if isinstance(value, float) else value
    if checkpoint.rng_state is not None:
        header["rng"] = f"{checkpoint.rng_state[0]} {checkpoint.rng_state[1]}"
    for key, value in header.items():
        lines.append(f"{key} {value}")
    lines.append(f"params {len(checkpoint.params)}")
    for name in sorted(checkpoint.params):
        value = checkpoint.params[name]
        if value.ndim == 2:
            lines.append(f"matrix {name} {value.shape[0]} {value.shape[1]}")
            lines.extend(value_lines(value))
        elif value.ndim == 1:
            lines.append(f"vector {name} {value.shape[0]}")
            lines.extend(value_lines(value[None, :]))
        else:
            raise CheckpointError(f"parameter {name!r} has unsupported rank {value.ndim}")
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def value_lines(rows: np.ndarray) -> List[str]:
    """One line per row: its values with 17 significant digits, space
    separated. ``"%.17g"`` on a Python float gives the same text as
    ``f"{x:.17g}"`` on the numpy scalar, and one template per row formats
    about twice as fast as one f-string per value."""
    template = " ".join(["%.17g"] * rows.shape[1])
    # row by row, so the Python floats of a whole matrix never exist at once
    return [template % tuple(row.tolist()) for row in rows]


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, context: str) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise CheckpointError(
            f"unexpected end of file while reading {context} (line {self.pos})"
        )

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
    """A block size: a non-negative integer, or a CheckpointError naming
    the line."""
    n = _parsed(int, text, line, what)
    if n < 0:
        raise CheckpointError(f"line {line}: {what} {text!r} is negative")
    return n


def _values(texts: List[str], line: int, what: str) -> List[float]:
    """One line of parameter values as floats, or a CheckpointError naming
    the line and the first value that is not a number."""
    try:
        return [float(v) for v in texts]
    except ValueError:
        for text in texts:
            _parsed(float, text, line, f"{what} value")
        raise


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        reader = _Reader(fh.read())

    head = reader.next("format header").split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise CheckpointError(f"line {reader.line_no}: not a {FORMAT_NAME} file")
    if head[1] != str(FORMAT_VERSION):
        raise CheckpointError(
            f"line {reader.line_no}: unsupported checkpoint version {head[1]} "
            f"(supported: {FORMAT_VERSION})"
        )

    header: Dict[str, str] = {}
    header_line: Dict[str, int] = {}
    line = reader.next("header")
    while not line.startswith("params "):
        key, _, value = line.partition(" ")
        if not value:
            raise CheckpointError(f"line {reader.line_no}: malformed header line {line!r}")
        if key not in _HEADER_KEYS and not key.startswith("env."):
            raise CheckpointError(f"line {reader.line_no}: unknown header key {key!r}")
        if key in header:
            raise CheckpointError(f"line {reader.line_no}: repeated header key {key!r}")
        header[key] = value
        header_line[key] = reader.line_no
        line = reader.next("header")

    try:
        param_count = int(line.split()[1])
    except (IndexError, ValueError):
        raise CheckpointError(f"line {reader.line_no}: malformed params count {line!r}") from None
    params_line = reader.line_no

    def need(key: str) -> str:
        if key not in header:
            raise CheckpointError(f"missing header field {key!r}")
        return header[key]

    def number(convert, key: str):
        return _parsed(convert, need(key), header_line[key], key)

    def sizes(key: str) -> Tuple[int, ...]:
        return tuple(_parsed(int, s, header_line[key], key) for s in need(key).split(","))

    fields = dict(
        kind=need("kind"),
        state_dim=number(int, "state_dim"),
        action_count=number(int, "action_count"),
        opponent_dim=number(int, "opponent_dim"),
        state_hidden=sizes("state_hidden"),
        head_hidden=sizes("head_hidden"),
        opponent_hidden=number(int, "opponent_hidden"),
        experts=number(int, "experts"),
        multitask=need("multitask"),
        multitask_weight=number(float, "multitask_weight"),
        multitask_outputs=number(int, "multitask_outputs"),
        multitask_loss=need("multitask_loss"),
    )
    try:
        spec = AgentSpec(**fields)
    except ConfigurationError as exc:
        raise CheckpointError(f"line {max(header_line[key] for key in exc.keys)}: {exc}") from None

    rng_state = None
    if "rng" in header:
        parts = header["rng"].split()
        if len(parts) != 2:
            raise CheckpointError(f"line {header_line['rng']}: malformed rng state in header")
        rng_state = tuple(_parsed(int, part, header_line["rng"], "rng") for part in parts)

    need("environment")
    try:
        config = config_from_lines(
            (header_line[key], key.removeprefix("env."), value)
            for key, value in header.items()
            if key == "environment" or key.startswith("env."))
    except ConfigurationError as exc:
        raise CheckpointError(str(exc)) from None
    if config.environment == "quizbowl":
        width = quiz_agent_spec(spec.kind, vocab=config.vocab).state_dim
        if spec.state_dim != width:
            line = header_line.get("env.vocab", header_line["state_dim"])
            raise CheckpointError(f"line {line}: vocab {config.vocab} needs state_dim {width}, "
                                  f"got {spec.state_dim}")
    else:
        standard = soccer_agent_spec(spec.kind)
        for key in ("state_dim",) if spec.kind == "dqn" else ("state_dim", "opponent_dim"):
            want, got = getattr(standard, key), getattr(spec, key)
            if got != want:
                raise CheckpointError(f"line {header_line['environment']}: environment soccer "
                                      f"needs {key} {want}, got {got}")

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
        if name not in layout:
            raise CheckpointError(f"line {at}: parameter {name!r} does not belong to "
                                  f"the header's {spec.kind} agent")
        if shape != layout[name]:
            raise CheckpointError(f"line {at}: parameter {name!r} has shape {shape}, "
                                  f"the header's agent needs {layout[name]}")
        if len(shape) == 2:
            data = np.empty(shape)
            for r in range(shape[0]):
                values = reader.next(f"matrix {name!r} row {r}").split()
                if len(values) != shape[1]:
                    raise CheckpointError(
                        f"line {reader.line_no}: matrix {name!r} row {r} has "
                        f"{len(values)} values, expected {shape[1]}"
                    )
                data[r] = _values(values, reader.line_no, f"matrix {name!r} row {r}")
        else:
            values = reader.next(f"vector {name!r}").split()
            if len(values) != shape[0]:
                raise CheckpointError(
                    f"line {reader.line_no}: vector {name!r} has {len(values)} "
                    f"values, expected {shape[0]}"
                )
            data = np.array(_values(values, reader.line_no, f"vector {name!r}"))
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"parameter {name!r} contains non-finite values")
        params[name] = data
    missing = [name for name in layout if name not in params]
    if missing:
        raise CheckpointError(f"line {params_line}: no block for parameter {missing[0]!r}, "
                              f"which the header's agent needs")

    closing = reader.next("end marker")
    if closing != "end":
        raise CheckpointError(f"line {reader.line_no}: expected 'end', got {closing!r}")

    return Checkpoint(
        agent_spec=spec,
        params=params,
        environment=config.environment,
        steps=number(int, "steps"),
        rng_state=rng_state,
        env_params=env_params_for(config),
    )
