"""Reference writer of version 1 checkpoints.

``dron.checkpoint`` writes version 2 (hex rows) and still reads version 1,
whose rows hold each value as 17 significant decimal digits. This is the
version 1 writer as it was, kept so the tests can make version 1 files, edit
their value text, and rebuild the exact bytes older runs wrote.
"""

from typing import List

import numpy as np

from dron.checkpoint import FORMAT_NAME, Checkpoint


def v1_text(checkpoint: Checkpoint) -> str:
    """The text of ``checkpoint`` as a version 1 file."""
    spec = checkpoint.agent_spec
    lines = [f"{FORMAT_NAME} 1"]
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
        else:
            lines.append(f"vector {name} {value.shape[0]}")
            lines.extend(value_lines(value[None, :]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_v1(checkpoint: Checkpoint, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(v1_text(checkpoint))


def value_lines(rows: np.ndarray) -> List[str]:
    """One line per row: its values with 17 significant digits, space
    separated. ``"%.17g"`` on a Python float gives the same text as
    ``f"{x:.17g}"`` on the numpy scalar."""
    template = " ".join(["%.17g"] * rows.shape[1])
    return [template % tuple(row.tolist()) for row in rows]
