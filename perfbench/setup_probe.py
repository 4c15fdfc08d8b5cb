"""Child process that starts one workload through the program's own entry
point and stops it at its first step, then prints the ``time.monotonic()`` at
which the set-up ended and the mean time of a few calibration passes
(speed.py) run after it.

The first step is the first ``Agent.q_values`` call: the action of the first
training step, or the first move of the first eval game. Everything before it
is set-up: interpreter start, importing numpy and dron, parsing the config,
agent init, driver, population and replay build, checkpoint load. ``run.py``
starts this probe several times, times each from just before the process
starts, and scales each by that probe's calibration passes. The pinned
environment comes from ``run.py``.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> [--quick]
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PASSES = 9  # calibration passes, timed after the set-up


class FirstStep(BaseException):
    """Raised in place of the first ``Agent.q_values`` call, with its time."""


def until_first_step(run) -> float:
    """Run ``run()`` up to its first ``Agent.q_values`` call, stop it there
    and return the ``time.monotonic()`` of that call."""
    from dron.agents import Agent

    def first_step(*args, **kwargs):
        raise FirstStep(time.monotonic())

    original = Agent.q_values
    Agent.q_values = first_step
    try:
        run()
    except FirstStep as stop:
        return stop.args[0]
    finally:
        Agent.q_values = original
    raise RuntimeError("the run ended without taking a step")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    import workloads
    from dron import checkpoint, harness
    from dron.config import parse_config

    sizes = workloads.QUICK if args.quick else workloads.FULL
    if args.workload == workloads.EVAL_WORKLOAD:
        # as workloads.run_eval does: reload both checkpoints, then evaluate
        # each; the set-up inside the first quiz eval (agent, opponent pool)
        # counts
        soccer_ck, quiz_ck = (
            checkpoint.load_checkpoint(workloads.eval_checkpoint(args.workdir, env))
            for env in ("soccer", "quizbowl"))
        games_seed = workloads.eval_seed(args.seed, 0, 0)
        ready_at = until_first_step(lambda: harness.evaluate(
            soccer_ck, "mixed", sizes.soccer_eval_games, games_seed))
        quiz_start = time.monotonic()
        ready_at += until_first_step(lambda: harness.evaluate(
            quiz_ck, "mixed", sizes.quiz_eval_games, games_seed)) - quiz_start
    else:
        config = parse_config(workloads.train_config_text(args.workload, args.seed, sizes))
        ready_at = until_first_step(lambda: harness.train(
            config, output_dir=os.path.join(args.workdir, "probe")))

    import speed

    print(ready_at, statistics.fmean(speed.one_pass() for _ in range(PASSES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
