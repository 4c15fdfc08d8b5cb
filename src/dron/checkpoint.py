"""Versioned plain-text checkpoints.

Layout: a version line, flat header keys, then one block per parameter
("matrix name rows cols" or "vector name n" followed by the values with 17
significant digits, which round-trips 64-bit reals exactly), closed by an
"end" line. Parse errors name the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .agents import Agent, AgentSpec
from .errors import CheckpointError
from .nn import ParamSet

FORMAT_NAME = "dron-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    agent_spec: AgentSpec
    params: ParamSet
    environment: str = "soccer"
    steps: int = 0
    rng_state: Optional[Tuple[int, int]] = None  # PCG64 (state, inc)
    env_params: Dict[str, float] = None

    def __post_init__(self) -> None:
        if self.env_params is None:
            self.env_params = {}

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
    line = reader.next("header")
    while not line.startswith("params "):
        key, _, value = line.partition(" ")
        if not value:
            raise CheckpointError(f"line {reader.line_no}: malformed header line {line!r}")
        header[key] = value
        line = reader.next("header")

    try:
        param_count = int(line.split()[1])
    except (IndexError, ValueError):
        raise CheckpointError(f"line {reader.line_no}: malformed params count {line!r}") from None

    def need(key: str) -> str:
        if key not in header:
            raise CheckpointError(f"missing header field {key!r}")
        return header[key]

    try:
        spec = AgentSpec(
            kind=need("kind"),
            state_dim=int(need("state_dim")),
            action_count=int(need("action_count")),
            opponent_dim=int(need("opponent_dim")),
            state_hidden=tuple(int(s) for s in need("state_hidden").split(",")),
            head_hidden=tuple(int(s) for s in need("head_hidden").split(",")),
            opponent_hidden=int(need("opponent_hidden")),
            experts=int(need("experts")),
            multitask=need("multitask"),
            multitask_weight=float(need("multitask_weight")),
            multitask_outputs=int(need("multitask_outputs")),
            multitask_loss=need("multitask_loss"),
        )
    except ValueError as exc:
        raise CheckpointError(f"malformed agent spec in header: {exc}") from None

    rng_state = None
    if "rng" in header:
        parts = header["rng"].split()
        if len(parts) != 2:
            raise CheckpointError("malformed rng state in header")
        rng_state = (int(parts[0]), int(parts[1]))

    env_params = {}
    for key, value in header.items():
        if key.startswith("env."):
            try:
                env_params[key[4:]] = float(value) if "." in value or "e" in value else int(value)
            except ValueError:
                env_params[key[4:]] = value

    params: ParamSet = {}
    for _ in range(param_count):
        block = reader.next("parameter block").split()
        if block[0] == "matrix" and len(block) == 4:
            name, rows, cols = block[1], int(block[2]), int(block[3])
            data = np.empty((rows, cols))
            for r in range(rows):
                values = reader.next(f"matrix {name!r} row {r}").split()
                if len(values) != cols:
                    raise CheckpointError(
                        f"line {reader.line_no}: matrix {name!r} row {r} has "
                        f"{len(values)} values, expected {cols}"
                    )
                data[r] = [float(v) for v in values]
            params[name] = data
        elif block[0] == "vector" and len(block) == 3:
            name, n = block[1], int(block[2])
            values = reader.next(f"vector {name!r}").split()
            if len(values) != n:
                raise CheckpointError(
                    f"line {reader.line_no}: vector {name!r} has {len(values)} "
                    f"values, expected {n}"
                )
            params[name] = np.array([float(v) for v in values])
        else:
            raise CheckpointError(
                f"line {reader.line_no}: expected a matrix/vector block, got "
                f"{' '.join(block)!r}"
            )
        if not np.all(np.isfinite(params[name])):
            raise CheckpointError(f"parameter {name!r} contains non-finite values")

    closing = reader.next("end marker")
    if closing != "end":
        raise CheckpointError(f"line {reader.line_no}: expected 'end', got {closing!r}")

    checkpoint = Checkpoint(
        agent_spec=spec,
        params=params,
        environment=need("environment"),
        steps=int(need("steps")),
        rng_state=rng_state,
        env_params=env_params,
    )
    # shape validation happens when an Agent is built
    checkpoint.build_agent()
    return checkpoint
