"""One benchmark run of one workload.

    python3 perfbench/run.py --workload soccer-dqn-train --seed 1 --seconds 10 --trace 0

Run it from the root of a dron checkout. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is an ``info`` object with the environment
(commit, numpy, BLAS, cores, thread variables) and the determinism
fingerprint. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of the traced run. ``--quick`` runs
tiny sizes, for the self-test; ``--main-only`` runs only the main job, which
is how a run starts its side job (see ``Run.untraced``). perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads. A fixed hash seed removes a
# per-process speed difference (dict and set layout) of a few percent that
# is not the program's doing; no output depends on it.
PINNED_ENV = {**dict.fromkeys(THREAD_VARS, "1"), "PYTHONHASHSEED": "0"}

WORKLOAD_NAMES = ("soccer-dqn-train", "quiz-moe3-train", "greedy-eval")
SETUP_REPEATS = 15
SIDE_SHARE = 0.75  # the side job runs for this share of --seconds
MIN_CHUNKS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--main-only", action="store_true",
                        help="only the main job: no set-up probes, side job or peak RSS")
    args = parser.parse_args(argv)

    if not (SRC / "dron" / "harness.py").is_file():
        print(f"error: no dron sources under {SRC}; run from a dron checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        # restart this process (same pid) with the pinned environment, which
        # every child inherits
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, info = Run(args, str(workdir)).execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


class Run:
    def __init__(self, args, workdir: str):
        import speed
        import tracer
        import workloads

        self.speed = speed
        self.tracer_module = tracer
        self.w = workloads
        self.args = args
        self.workdir = workdir
        self.sizes = workloads.QUICK if args.quick else workloads.FULL
        self.is_eval = args.workload == workloads.EVAL_WORKLOAD
        self.calibration = speed.Calibration()
        self.counter = tracer.Tracer(timed=False)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.fingerprints = {}  # chunk identity -> its first fingerprint
        self.extra_info = {}

    # -- chunks ---------------------------------------------------------------

    def train_job(self, workload: str):
        return lambda tracer, clock: self.w.run_train(
            workload, self.args.seed, self.workdir, self.sizes, tracer, clock)

    def eval_job(self, index: int):
        return lambda tracer, clock: self.w.run_eval(
            self.args.seed, index, self.workdir, self.sizes, tracer, clock)

    def attempt(self, identity: str, job, tracer=None, clock=time.perf_counter):
        """Run one chunk and check it. A chunk that raises, fails a check, or
        does not repeat the fingerprint of an earlier chunk with the same
        identity counts as failed."""
        tracer = tracer or self.counter
        self.attempted += 1
        tracer.reset()
        try:
            chunk = job(tracer, clock)
        except Exception:  # any failure of the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        chunk.fingerprint.update(
            td_updates=tracer.calls["rl.td_update"],
            decisions=tracer.calls[self.tracer_module.Q_VALUES_ACT])
        first = self.fingerprints.setdefault(identity, chunk.fingerprint)
        if chunk.fingerprint != first:
            self.mismatches += 1
            chunk.problems.append(f"not deterministic: {chunk.fingerprint} != {first}")
        if chunk.problems:
            for problem in chunk.problems:
                print(f"check failed ({identity}): {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return chunk

    def series(self, seconds: float, make):
        """Chunks ``make(i)`` for i = 1, 2, ... until ``seconds`` have passed
        and at least ``MIN_CHUNKS`` ran, after a warm-up chunk ``make(0)`` that
        is run again at the end and must repeat its fingerprint. Returns
        (chunk, scale) pairs: ``scale`` turns the chunk's times into times at
        the reference speed, from the calibration passes run during it."""
        calibration = self.calibration
        self.attempt(*make(0), clock=calibration.clock)
        deadline = time.perf_counter() + seconds
        done, scaled = 0, []
        while done < MIN_CHUNKS or time.perf_counter() < deadline:
            done += 1
            first_sample = len(calibration.samples)
            chunk = self.attempt(*make(done), clock=calibration.clock)
            if chunk is not None:
                scaled.append((chunk, calibration.scale_since(first_sample)))
        self.attempt(*make(0), clock=calibration.clock)
        return scaled

    def main_series(self, seconds: float):
        if self.is_eval:
            return self.series(seconds,
                               lambda i: (f"{self.w.EVAL_WORKLOAD}#{i}", self.eval_job(i)))
        # every train chunk is the same run, so each repeats the warm-up
        workload = self.args.workload
        return self.series(seconds, lambda i: (workload, self.train_job(workload)))

    def main_identity(self) -> str:
        return f"{self.w.EVAL_WORKLOAD}#0" if self.is_eval else self.args.workload

    # -- the run --------------------------------------------------------------

    def execute(self):
        if self.is_eval:
            self.w.write_eval_checkpoints(self.workdir, self.sizes)
        metrics = self.traced() if self.args.trace else self.untraced()
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return result, self.info()

    def untraced(self):
        """End-to-end metrics at the reference machine speed. Every workload
        reports every end-to-end metric, so after the main job has run for
        ``--seconds``, a side job in a child process gives the ones it does
        not: eval chunks for a train workload, soccer-dqn-train chunks for
        greedy-eval. The child is ``run.py --main-only`` on that workload;
        its memory is its own, so ``peak_rss_mb`` is the main job's."""
        metrics = {}
        if not self.args.main_only:
            metrics.update(self.setup_metrics())
        with self.calibration.sampling():
            chunks = self.main_series(self.args.seconds)
        metrics.update(self.main_metrics(chunks))
        self.extra_info.update(calibration_pass_s=self.calibration.pass_s,
                               calibration_reference_s=self.speed.REFERENCE_S,
                               calibration_samples=len(self.calibration.samples))
        if not self.args.main_only:
            metrics.update(self.side_job())
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
        return metrics

    def main_metrics(self, chunks):
        """The main job's metrics, from (chunk, scale) pairs; the unscaled
        figures go into the ``info`` line as ``raw``."""
        raw, metrics = {}, {}
        if chunks and self.is_eval:
            # games differ between chunks, so pool them rather than take a median
            for env in ("soccer", "quiz"):
                name = f"{env}_eval_ms_per_game"
                games = sum(getattr(c, f"{env}_games") for c, _ in chunks)
                raw[name] = 1000 * sum(getattr(c, f"{env}_eval_s") for c, _ in chunks) / games
                metrics[name] = (1000 * sum(
                    getattr(c, f"{env}_eval_s") * scale for c, scale in chunks) / games, "ms")
        elif chunks:
            raw["train_steps_per_s"] = statistics.median(
                c.train_steps / c.wall_s for c, _ in chunks)
            metrics["train_steps_per_s"] = (statistics.median(
                c.train_steps / (c.wall_s * scale) for c, scale in chunks), "1/s")
        self.extra_info.setdefault("raw", {}).update(raw)
        return metrics

    def setup_metrics(self):
        setups = self.time_setups(2 if self.args.quick else SETUP_REPEATS)
        if not setups:
            return {}
        self.extra_info.setdefault("raw", {})["setup_s"] = statistics.median(
            t for t, _ in setups)
        # each probe is scaled by the passes its own process timed
        return {"setup_s": (statistics.median(
            t * self.speed.REFERENCE_S / pass_s for t, pass_s in setups), "s")}

    def side_job(self):
        """Run the side job in a child process; its chunks count as this
        run's attempted and failed operations."""
        side = "soccer-dqn-train" if self.is_eval else self.w.EVAL_WORKLOAD
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", side,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds * SIDE_SHARE),
               "--trace", "0", "--main-only"] + (["--quick"] if self.args.quick else [])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            *_, info_line, result_line = proc.stdout.splitlines()
            info, result = json.loads(info_line)["info"], json.loads(result_line)
        except (subprocess.SubprocessError, ValueError) as exc:
            print(f"side job failed: {exc}", file=sys.stderr)
            if isinstance(exc, subprocess.CalledProcessError):
                print(exc.stderr, file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return {}
        sys.stderr.write(proc.stderr)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.mismatches += info["determinism_mismatches"]
        self.extra_info["side_job"] = {key: info[key] for key in (
            "workload", "fingerprint", "raw", "calibration_pass_s", "calibration_samples")}
        return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}

    def traced(self):
        """Alternate untraced and traced runs of one main chunk for
        ``--seconds``; report each layer's calls, self time and share of the
        traced wall time. Times here are wall times, not scaled."""
        identity = self.main_identity()
        job = self.eval_job(0) if self.is_eval else self.train_job(self.args.workload)
        timed = self.tracer_module.Tracer(timed=True)
        self.attempt(identity, job)  # warm-up
        untraced_walls, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        turn = 0
        while turn < 4 or time.perf_counter() < deadline:
            is_traced = turn % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
            turn += 1
            chunk = self.attempt(identity, job, timed if is_traced else None)
            if chunk is None:
                continue
            if not is_traced:
                untraced_walls.append(chunk.wall_s)
                continue
            self_ns, top_ns = timed.self_times()
            traced.append((chunk.wall_s, dict(timed.calls), self_ns, top_ns))
            if timed.calls != traced[0][1]:
                self.mismatches += 1
                self.failed += 1
                print("check failed: traced call counts differ between chunks",
                      file=sys.stderr)
        if not (traced and untraced_walls):
            return {}

        metrics = {}
        calls = traced[0][1]
        for layer in self.tracer_module.LAYERS:
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.self_us"] = (
                statistics.median(s[layer] / 1e3 for _, _, s, _ in traced), "us")
            metrics[f"{layer}.share"] = (
                statistics.median(s[layer] / 1e9 / wall for wall, _, s, _ in traced), "fraction")
        traced_wall = statistics.median(wall for wall, _, _, _ in traced)
        untraced_wall = statistics.median(untraced_walls)
        fingerprint = self.fingerprints[identity]
        metrics.update({
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.top_span_share": (
                statistics.median(top / 1e9 / wall for wall, _, _, top in traced), "fraction"),
            "count.env_steps": (fingerprint.get("env_steps", fingerprint["decisions"]), "count"),
            "count.td_updates": (fingerprint["td_updates"], "count"),
            "count.decisions": (fingerprint["decisions"], "count"),
            "count.determinism_mismatches": (self.mismatches, "count"),
        })
        return metrics

    def time_setups(self, repeats: int):
        """(seconds from starting a fresh ``setup_probe.py`` to the end of its
        set-up, mean calibration pass that process timed right after) for
        each probe; one extra, untimed start first warms the file cache. A
        probe that fails counts as a failed operation."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), self.args.workload,
               str(self.args.seed), self.workdir] + (["--quick"] if self.args.quick else [])
        timings = []
        for i in range(repeats + 1):
            self.attempted += 1
            start = time.monotonic()  # one clock for all processes
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                      check=True)
                ready_at, pass_s = map(float, proc.stdout.split())
            except (subprocess.SubprocessError, ValueError) as exc:
                print(f"set-up probe failed: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            if i:
                timings.append((ready_at - start, pass_s))
        return timings

    def info(self):
        import numpy as np

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
        except (TypeError, KeyError):  # numpy before 1.26 prints only
            blas_name = "unknown"
        commit = "unknown (not a git checkout)"
        if (ROOT / ".git").exists():
            try:
                commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                        capture_output=True, timeout=30).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                commit = "unknown (git failed)"
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "commit": commit,
            "numpy": np.__version__,
            "blas": blas_name,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "environment": {var: os.environ[var] for var in PINNED_ENV},
            # the main job's first chunk, which every run repeats
            "fingerprint": self.fingerprints.get(self.main_identity()),
            "fingerprints": self.fingerprints,
            "determinism_mismatches": self.mismatches,
            **self.extra_info,
        }


if __name__ == "__main__":
    sys.exit(main())
