"""Spans around the public functions of each dron module, recorded from the
benchmark's side.

Each function is replaced, for the duration of one measured chunk, at the name
its caller looks it up (``dron.rl.td_update``, ``dron.harness.save_checkpoint``
for the name the harness imported, ``Agent.q_values`` on the class), and put
back afterwards. A function that a later version of the program no longer has
is skipped and reports zero calls.

A span is ``[layer, start_ns, end_ns, parent]``; ``parent`` is the index of the
enclosing span or -1 for a top-level span. A layer's self time is its span
durations minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

# (layer, module, attribute path) -- the module and attribute its caller uses
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("rl.td_update", "dron.rl", "td_update"),
    ("rl.q_targets", "dron.rl", "q_targets"),
    ("rl.ReplayBuffer.push", "dron.rl", "ReplayBuffer.push"),
    ("rl.ReplayBuffer.sample", "dron.rl", "ReplayBuffer.sample"),
    ("agents.q_values", "dron.agents", "Agent.q_values"),
    ("agents.forward_train", "dron.agents", "Agent.forward_train"),
    ("agents.backward_train", "dron.agents", "Agent.backward_train"),
    ("nn.mlp_forward", "dron.nn", "mlp_forward"),
    ("nn.mlp_backward", "dron.nn", "mlp_backward"),
    ("nn.adagrad_update", "dron.nn", "adagrad_update"),
    ("nn.loss_and_grad", "dron.nn", "loss_and_grad"),
    ("soccer.reset", "dron.soccer", "reset"),
    ("soccer.step", "dron.soccer", "step"),
    ("soccer.rule_agent_act", "dron.soccer", "rule_agent_act"),
    ("soccer.classify_move", "dron.soccer", "classify_move"),
    ("soccer.featurize_state", "dron.soccer", "featurize_state"),
    ("soccer.opponent_features", "dron.soccer", "opponent_features"),
    ("quizbowl.sample_episode", "dron.quizbowl", "sample_episode"),
    ("quizbowl.step", "dron.quizbowl", "step"),
    ("quizbowl.featurize", "dron.quizbowl", "featurize"),
    ("quizbowl.opponent_features", "dron.quizbowl", "opponent_features"),
    ("harness.SoccerDriver.step", "dron.harness", "SoccerDriver.step"),
    ("harness.QuizDriver.step", "dron.harness", "QuizDriver.step"),
    ("harness.evaluate_soccer", "dron.harness", "evaluate_soccer"),
    ("harness.evaluate_quiz", "dron.harness", "evaluate_quiz"),
    ("harness.save_checkpoint", "dron.harness", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "dron.checkpoint", "load_checkpoint"),
)

# the untraced run only counts these, which costs well under 1% of a call
COUNTED = frozenset({"rl.td_update", "agents.q_values"})

# agents.q_values is reported as two layers: the one-row acting call and
# the batch call made under rl.q_targets
Q_VALUES_ACT = "agents.q_values.act"
Q_VALUES_BATCH = "agents.q_values.batch"

LAYERS: Tuple[str, ...] = tuple(
    name
    for layer, _, _ in TARGETS
    for name in ((Q_VALUES_ACT, Q_VALUES_BATCH) if layer == "agents.q_values" else (layer,))
)


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # only plain functions bind as methods when replaced by a wrapper
        fn = vars(owner).get(attr)
        if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
            return None
    else:
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return None
    return owner, attr, fn


def _layer_namer(layer: str) -> Callable[[tuple], str]:
    if layer != "agents.q_values":
        return lambda args: layer
    # args[0] is the agent, args[1] the state features
    return lambda args: Q_VALUES_ACT if np.ndim(args[1]) == 1 else Q_VALUES_BATCH


class Tracer:
    """Counts calls (``timed=False``) or records spans (``timed=True``)."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.spans: List[list] = []
        self._open: List[int] = []

    def reset(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.spans = []
        self._open = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name_of = _layer_namer(layer)

        if not self.timed:
            def counted(*args, **kwargs):
                self.calls[name_of(args)] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            name = name_of(args)
            self.calls[name] += 1
            spans, stack = self.spans, self._open
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every target (or, untimed, every counted target) for the
        duration of the block."""
        saved = []
        try:
            for layer, module, path in TARGETS:
                if not self.timed and layer not in COUNTED:
                    continue
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, attr, fn = found
                setattr(owner, attr, self._wrap(layer, fn))
                saved.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> Tuple[Dict[str, int], int]:
        """Self time per layer in ns, and the time top-level spans cover."""
        covered_by_children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered_by_children[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        top_ns = 0
        for (name, start, end, parent), children in zip(self.spans, covered_by_children):
            self_ns[name] += end - start - children
            if parent < 0:
                top_ns += end - start
        return self_ns, top_ns
