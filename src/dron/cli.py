"""Command-line entry points.

Subcommands: train, eval, sweep, ttest, gradcheck, selfcheck. Output paths
honor the DRON_OUTPUT_DIR environment variable over the config value.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__
from .checkpoint import load_checkpoint
from .config import load_config
from .errors import DronError, UsageError
from .harness import evaluate, sweep_experts, train
from .stats import paired_ttest


def _output_dir(config_dir: str) -> str:
    return os.environ.get("DRON_OUTPUT_DIR", config_dir)


def cmd_train(args) -> int:
    config = load_config(args.config)
    out = _output_dir(config.output_dir)

    def progress(seed, epoch, m):
        print(f"seed {seed} epoch {epoch:3d}: reward {m.mean_reward:+.4f} "
              f"win {m.win_rate:.3f} tie {m.tie_rate:.3f} "
              f"rush {m.rush_rate:.3f} miss {m.miss_rate:.3f}", flush=True)

    results = train(config, output_dir=out, progress=progress if args.verbose else None)
    for r in results:
        print(f"seed {r.seed}: mean_r(last10) {r.mean_r:.4f} max_r {r.max_r:.4f}")
        print(f"  curve:      {r.curve_path}")
        print(f"  checkpoint: {r.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    trace_rows = [] if args.traces else None
    with contextlib.ExitStack() as stack:
        traces = None
        if args.traces and checkpoint.environment == "quizbowl":
            # opened before any game is played, so a bad path costs nothing,
            # and emptied only after them, so a failed evaluation leaves an
            # old file as it was and removes a new one; soccer traces are
            # refused by `evaluate` before a file exists
            created = not os.path.exists(args.traces)
            traces = stack.enter_context(open(args.traces, "a", encoding="utf-8"))
        try:
            summary = evaluate(checkpoint, args.opponent, args.games, args.seed,
                               render=args.render, trace_rows=trace_rows)
        except BaseException:
            if traces is not None and created:
                traces.close()
                os.remove(args.traces)
            raise
        print(f"games {summary.games} mean_reward {summary.mean_reward:+.4f}")
        print(f"win {summary.win_rate:.4f} tie {summary.tie_rate:.4f} "
              f"loss {summary.loss_rate:.4f}")
        if checkpoint.environment == "quizbowl":
            print(f"rush {summary.rush_rate:.4f} miss {summary.miss_rate:.4f}")
        if traces is not None:
            keys = list(trace_rows[0].keys()) if trace_rows else []
            traces.truncate(0)
            traces.write(",".join(keys) + "\n")
            for row in trace_rows:
                traces.write(",".join(str(row[k]) for k in keys) + "\n")
    if traces is not None:
        print(f"traces: {args.traces}")
    return 0


def _expert_counts(text: str) -> list:
    """The `--experts` list: comma-separated integers such as ``2,3,4``."""
    counts = []
    for item in text.split(","):
        try:
            counts.append(int(item))
        except ValueError:
            raise UsageError(f"--experts {text!r}: {item!r} is not an integer") from None
    return counts


def cmd_sweep(args) -> int:
    k_values = _expert_counts(args.experts)
    config = load_config(args.config)
    out = _output_dir(config.output_dir)

    def progress(k, seed, epoch, m):
        print(f"K={k} seed {seed} epoch {epoch:3d}: reward {m.mean_reward:+.4f}",
              flush=True)

    points = sweep_experts(config, k_values, output_dir=out,
                           progress=progress if args.verbose else None)
    for p in points:
        note = " (single seed; interval is a point)" if p.degenerate else ""
        print(f"K={p.experts}: mean {p.mean:.4f} +- {p.ci_halfwidth:.4f} "
              f"(90% CI over {len(p.seed_means)} seeds){note}")
    print(f"sweep CSV in {out}/sweep.csv")
    return 0


def _read_reward_column(path: str) -> list:
    """The mean_reward column of a learning-curve CSV; blank lines are skipped
    and every other line must have a finite number in that column."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    if not rows:
        raise DronError(f"{path}: line 1: empty file, expected a header")
    header_line, header = rows[0]
    try:
        col = header.split(",").index("mean_reward")
    except ValueError:
        raise DronError(f"{path}: line {header_line}: no mean_reward column") from None
    rewards = []
    for n, line in rows[1:]:
        cells = line.split(",")
        if len(cells) <= col:
            raise DronError(f"{path}: line {n}: {len(cells)} cells, "
                            f"mean_reward is cell {col + 1}")
        try:
            reward = float(cells[col])
        except ValueError:
            raise DronError(f"{path}: line {n}: mean_reward {cells[col]!r} "
                            "is not a number") from None
        if not math.isfinite(reward):
            raise DronError(f"{path}: line {n}: mean_reward {cells[col]!r} is not finite")
        rewards.append(reward)
    return rewards


def cmd_ttest(args) -> int:
    series_a = _read_reward_column(args.csv_a)
    series_b = _read_reward_column(args.csv_b)
    result = paired_ttest(series_a, series_b)
    print(f"n {len(series_a)} pairs (rows paired by position / shared eval seeds)")
    print(f"t {result.t:.6g} df {result.df} two-tailed p {result.p:.6g}")
    if result.degenerate:
        print("warning: zero-variance differences (degenerate statistic)")
    return 0


def cmd_gradcheck(args) -> int:
    from .selfcheck import GRADCHECK_TOLERANCE, gradient_check_all_kinds

    worst = gradient_check_all_kinds(trials=args.trials, verbose=True)
    print(f"worst relative error: {worst:.3g}")
    if worst > GRADCHECK_TOLERANCE:
        print(f"FAIL: exceeds {GRADCHECK_TOLERANCE:g}")
        return 1
    print("OK")
    return 0


def cmd_selfcheck(_args) -> int:
    from .selfcheck import run_selfcheck

    return 0 if run_selfcheck() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dron",
        description="Opponent-aware deep Q-learning on grid soccer and quiz bowl.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the configured agent")
    p_train.add_argument("config", help="key=value experiment config file")
    p_train.add_argument("-v", "--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--opponent", default="mixed",
                        help="soccer: mixed/offensive/defensive; quiz: mixed/type1..4, drawn "
                             "as a pool of the run's opponent_pool (stored in the checkpoint)")
    p_eval.add_argument("--games", type=int, default=1000)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--render", action="store_true",
                        help="print the soccer board each step (use few games)")
    p_eval.add_argument("--traces", metavar="CSV",
                        help="quiz only: write per-episode buzz traces")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train across expert counts")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--experts", default="2,3,4")
    p_sweep.add_argument("-v", "--verbose", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ttest = sub.add_parser("ttest", help="paired t-test of two learning curves")
    p_ttest.add_argument("csv_a")
    p_ttest.add_argument("csv_b")
    p_ttest.set_defaults(func=cmd_ttest)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_self = sub.add_parser("selfcheck", help="run the invariant suite")
    p_self.set_defaults(func=cmd_selfcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing input file or an unwritable output path
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
