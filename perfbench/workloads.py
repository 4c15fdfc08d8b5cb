"""What each workload runs, one chunk at a time, and the checks on its output.

A chunk is a fixed amount of work through the public entry points:
``harness.train`` on one config (train workloads) or ``harness.evaluate`` on
two reloaded checkpoints (``greedy-eval``). Repeating a chunk with the same
seed (and, for eval chunks, the same index) must give the same bytes and the
same counts; that is the determinism contract the benchmark checks.

Import this module only after the thread variables are pinned, because it
imports numpy.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from dron import checkpoint, harness
from dron.agents import Agent, soccer_agent_spec
from dron.config import parse_config

EVAL_WORKLOAD = "greedy-eval"

CSV_HEADER = "epoch,mean_reward,rush,miss,win,tie"
EPOCHS = 2
# the greedy-eval checkpoints hold initial parameters from this fixed seed;
# --seed picks the games they play
PARAM_SEED = 7

_SOCCER_TRAIN = """\
environment = soccer
agent = dqn
opponent = mixed
epochs = {epochs}
steps_per_epoch = {steps}
eval_games = {games}
replay_capacity = {capacity}
replay_min = {replay_min}
seeds = {seed}
"""

_QUIZ_TRAIN = """\
environment = quizbowl
agent = dron_moe
experts = 3
multitask = type
opponent = mixed
epochs = {epochs}
steps_per_epoch = {steps}
eval_games = {games}
replay_min = {replay_min}
seeds = {seed}
"""


@dataclass(frozen=True)
class Sizes:
    soccer_steps: int  # per epoch
    quiz_steps: int  # per epoch
    train_eval_games: int  # per epoch
    replay_min: int
    soccer_eval_games: int  # per harness.evaluate call of a greedy-eval chunk
    quiz_eval_games: int


FULL = Sizes(soccer_steps=500, quiz_steps=150, train_eval_games=4, replay_min=64,
             soccer_eval_games=14, quiz_eval_games=10)
QUICK = Sizes(soccer_steps=60, quiz_steps=50, train_eval_games=2, replay_min=32,
              soccer_eval_games=2, quiz_eval_games=2)


def train_config_text(workload: str, seed: int, sizes: Sizes) -> str:
    if workload == "soccer-dqn-train":
        steps = sizes.soccer_steps
        # below the run's step count, so the replay ring evicts
        capacity = EPOCHS * steps * 3 // 5
        return _SOCCER_TRAIN.format(epochs=EPOCHS, steps=steps, games=sizes.train_eval_games,
                                    capacity=capacity, replay_min=sizes.replay_min, seed=seed)
    return _QUIZ_TRAIN.format(epochs=EPOCHS, steps=sizes.quiz_steps,
                              games=sizes.train_eval_games, replay_min=sizes.replay_min,
                              seed=seed)


def write_eval_checkpoints(workdir: str, sizes: Sizes) -> None:
    """Save the soccer dqn and quiz dron_moe K=3 checkpoints greedy-eval
    reloads; both hold fixed-seed initial parameters."""
    quiz_cfg = parse_config(train_config_text("quiz-moe3-train", 1, sizes))
    agents = {
        "soccer": (Agent(soccer_agent_spec("dqn"), seed=PARAM_SEED), {}),
        "quizbowl": (Agent(harness.agent_spec_for(quiz_cfg), seed=PARAM_SEED),
                     harness.env_params_for(quiz_cfg)),
    }
    for env, (agent, env_params) in agents.items():
        checkpoint.save_checkpoint(
            checkpoint.Checkpoint(agent_spec=agent.spec, params=agent.params,
                                  environment=env, env_params=env_params),
            eval_checkpoint(workdir, env))


def eval_checkpoint(workdir: str, env: str) -> str:
    """Path of the greedy-eval checkpoint for ``env`` (soccer or quizbowl)."""
    return os.path.join(workdir, f"{env}.ckpt")


# -- one chunk ------------------------------------------------------------------


@dataclass
class Chunk:
    """What one chunk did, as the benchmark saw it from outside."""

    wall_s: float = 0.0
    train_steps: int = 0
    soccer_eval_s: float = 0.0
    soccer_games: int = 0
    quiz_eval_s: float = 0.0
    quiz_games: int = 0
    # bytes hash and counts that must repeat exactly on a rerun
    fingerprint: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def run_train(workload: str, seed: int, workdir: str, sizes: Sizes, tracer, clock) -> Chunk:
    """One ``harness.train`` call, timed whole: per-epoch eval, CSV and
    checkpoint writing included."""
    config = parse_config(train_config_text(workload, seed, sizes))
    with tracer.installed():
        start = clock()
        results = harness.train(config, output_dir=os.path.join(workdir, "train"))
        wall_s = clock() - start
    chunk = Chunk(wall_s=wall_s, train_steps=config.epochs * config.steps_per_epoch)
    check_train(config, results, chunk)
    return chunk


def check_train(config, results, chunk: Chunk) -> None:
    problems = chunk.problems
    if len(results) != 1:
        problems.append(f"expected one seed's result, got {len(results)}")
        return
    result = results[0]
    with open(result.curve_path, "rb") as fh:
        csv_bytes = fh.read()
    with open(result.checkpoint_path, "rb") as fh:
        ckpt_bytes = fh.read()
    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"CSV header is {lines[:1]}")
    rows = lines[1:]
    if len(rows) != config.epochs:
        problems.append(f"CSV has {len(rows)} rows, expected {config.epochs}")
    for number, row in enumerate(rows, start=1):
        cells = row.split(",")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            problems.append(f"CSV row {number} is not numeric: {row!r}")
            continue
        if len(values) != 6 or values[0] != number or not all(map(math.isfinite, values)):
            problems.append(f"CSV row {number} is malformed: {row!r}")
    for epoch, summary in enumerate(result.epoch_metrics, start=1):
        check_summary(f"epoch {epoch} eval", summary, config.eval_games, problems)
    loaded = checkpoint.load_checkpoint(result.checkpoint_path)
    params = result.checkpoint.params
    if set(loaded.params) != set(params) or not all(
            np.array_equal(loaded.params[k], params[k]) for k in params):
        problems.append("checkpoint does not reload to the trained params")
    if loaded.steps != chunk.train_steps:
        problems.append(f"checkpoint counts {loaded.steps} steps, ran {chunk.train_steps}")
    chunk.fingerprint.update(
        sha256=hashlib.sha256(csv_bytes + ckpt_bytes).hexdigest(), env_steps=loaded.steps)


# harness.evaluate calls per checkpoint in one greedy-eval chunk. A quiz eval
# call draws one opponent pool for all its games, and pools differ in how long
# their games last, so many short calls give a steadier mean game than a few
# long ones: the mean quiz game length of 600 games spread 6.5% across seeds
# as 20 calls of 30 games and 3.7% as 60 calls of 10.
EVAL_CALLS = 3


def eval_seed(seed: int, index: int, call: int) -> int:
    """Eval seed of call ``call`` of chunk ``index``: every call of a run
    plays new games."""
    return int(np.random.SeedSequence([seed, index, call]).generate_state(1)[0])


def run_eval(seed: int, index: int, workdir: str, sizes: Sizes, tracer, clock) -> Chunk:
    """Reload both checkpoints, then play each ``EVAL_CALLS`` times against
    its mixed opponents; the per-game times cover ``harness.evaluate`` only."""
    chunk = Chunk()
    summaries = []
    with tracer.installed():
        start = clock()
        soccer_ck = checkpoint.load_checkpoint(eval_checkpoint(workdir, "soccer"))
        quiz_ck = checkpoint.load_checkpoint(eval_checkpoint(workdir, "quizbowl"))
        for call in range(EVAL_CALLS):
            games_seed = eval_seed(seed, index, call)
            t0 = clock()
            soccer = harness.evaluate(soccer_ck, "mixed", sizes.soccer_eval_games, games_seed)
            t1 = clock()
            quiz = harness.evaluate(quiz_ck, "mixed", sizes.quiz_eval_games, games_seed)
            t2 = clock()
            chunk.soccer_eval_s += t1 - t0
            chunk.quiz_eval_s += t2 - t1
            summaries.append((soccer, quiz))
        chunk.wall_s = clock() - start
    for soccer, quiz in summaries:
        chunk.soccer_games += soccer.games
        chunk.quiz_games += quiz.games
        check_summary("soccer eval", soccer, sizes.soccer_eval_games, chunk.problems)
        check_summary("quiz eval", quiz, sizes.quiz_eval_games, chunk.problems)
    chunk.fingerprint["sha256"] = hashlib.sha256(repr(summaries).encode("utf-8")).hexdigest()
    return chunk


def check_summary(what: str, summary, games: int, problems: List[str]) -> None:
    rates = (summary.win_rate, summary.tie_rate, summary.loss_rate)
    if summary.games != games:
        problems.append(f"{what}: {summary.games} games, expected {games}")
    if not math.isfinite(summary.mean_reward):
        problems.append(f"{what}: mean reward {summary.mean_reward}")
    if abs(sum(rates) - 1.0) > 1e-9 or not all(0.0 <= r <= 1.0 for r in rates):
        problems.append(f"{what}: win/tie/loss rates {rates} do not sum to 1")
    if not (0.0 <= summary.rush_rate <= 1.0 and 0.0 <= summary.miss_rate <= 1.0):
        problems.append(f"{what}: rush/miss rates out of [0, 1]")
