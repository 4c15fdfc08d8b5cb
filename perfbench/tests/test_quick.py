"""Quick-mode self-test: each workload runs tiny, untraced and traced, and
must emit every metric BENCHMARK.json names, with its unit, and pass its
output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_with_its_unit(workload, trace):
    info, result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # the side job ran in its own process and repeated its fingerprint
        assert info["side_job"]["fingerprint"]["sha256"]
    assert info["environment"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                                   "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    assert len(info["fingerprint"]["sha256"]) == 64


def test_traced_call_counts_and_hashes_repeat():
    runs = [result_of(run("soccer-dqn-train", 1)) for _ in range(2)]
    (info_a, a), (info_b, b) = runs
    calls = {n: m["value"] for n, m in a["metrics"].items() if n.endswith(".calls")}
    assert calls == {n: m["value"] for n, m in b["metrics"].items() if n.endswith(".calls")}
    assert calls["rl.td_update.calls"] > 0 and calls["harness.save_checkpoint.calls"] == 1
    assert info_a["fingerprint"] == info_b["fingerprint"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
