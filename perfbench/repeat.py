"""Run the benchmark over ten seeds and summarise each metric.

    python3 perfbench/repeat.py [--record COMMIT]

Runs ``run.py`` once per seed (1..10) for every workload in BENCHMARK.json,
one after another, and prints for each end-to-end metric the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them. Each spread
is marked ``ok`` below a third of the metric's bound, ``WITHIN BOUND`` up to
the bound and ``OVER`` past it; any ``OVER`` makes the exit status 1.
``--record COMMIT`` appends the medians and quartiles, with the run
environment, to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", metavar="COMMIT")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"commit": args.record, "date": time.strftime("%Y-%m-%d"), "runs": RUNS,
             "seconds": bench["run_seconds"], "workloads": {}}
    worst_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in range(1, RUNS + 1):
            info, result = run_once(workload, seed, bench["run_seconds"])
            attempted += result["attempted"]
            failed += result["failed"]
            if seed == 1:
                seed1_sha256 = info["fingerprint"]["sha256"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        print(f"{workload}: {RUNS} runs, {failed} of {attempted} chunks failed")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER")
            worst_ok &= spread <= bound
            print(f"  {name:32s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%} {flag}", flush=True)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        entry["workloads"][workload] = {
            "metrics": summary, "attempted": attempted, "failed": failed,
            "sha256_seed1": seed1_sha256}
        entry["environment"] = {k: info[k] for k in
                                ("numpy", "blas", "python", "nproc", "environment")}
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
