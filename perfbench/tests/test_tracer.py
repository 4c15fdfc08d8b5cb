"""Self time and top-level coverage of the span tracer, on toy functions."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = Tracer(timed=True)
    inner = tracer._wrap("nn.mlp_forward", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer._wrap("rl.td_update", outer_body)
    outer()
    self_ns, top_ns = tracer.self_times()
    assert tracer.calls["rl.td_update"] == 1 and tracer.calls["nn.mlp_forward"] == 2
    assert 0.04 <= self_ns["nn.mlp_forward"] / 1e9 < 0.06
    assert 0.01 <= self_ns["rl.td_update"] / 1e9 < 0.02
    # the only top-level span is the outer call, which covers everything
    assert top_ns == sum(self_ns.values())
    assert [parent for _, _, _, parent in tracer.spans] == [-1, 0, 0]


def test_untimed_tracer_only_counts():
    tracer = Tracer(timed=False)
    tracer._wrap("rl.td_update", lambda: None)()
    assert tracer.calls["rl.td_update"] == 1 and tracer.spans == []
