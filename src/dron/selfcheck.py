"""Runtime invariant suite: fast randomized checks of the core algebra,
usable from the CLI without the test harness."""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional

import numpy as np

from . import nn, rl, soccer
from . import quizbowl as qb
from .agents import Agent, AgentSpec
from .config import ExperimentConfig
from .errors import UsageError

GRADCHECK_TOLERANCE = 1e-4  # worst accepted relative error, backprop vs finite differences
FD_STEP = 1e-5  # the central difference's step


def _finite_difference(loss: Callable[[nn.ParamSet], float], params: nn.ParamSet) -> nn.ParamSet:
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat, gflat = value.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + FD_STEP
            hi = loss(params)
            flat[k] = orig - FD_STEP
            lo = loss(params)
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * FD_STEP)
        grads[name] = g
    return grads


def _mini_spec(kind: str, multitask: str, rng: np.random.Generator) -> AgentSpec:
    # the categorical head of `type`, and the sigmoid head with one output
    # that `action` trains with a mean-squared loss
    outputs = {"none": 1, "type": 2, "action": 1}[multitask]
    return AgentSpec(
        kind=kind,
        state_dim=int(rng.integers(2, 6)),
        action_count=int(rng.integers(2, 5)),
        opponent_dim=0 if kind == "dqn" else int(rng.integers(2, 6)),
        state_hidden=(int(rng.integers(2, 9)),),
        head_hidden=(int(rng.integers(2, 9)),),
        opponent_hidden=int(rng.integers(2, 9)),
        experts=int(rng.integers(1, 4)),
        multitask=multitask,
        multitask_outputs=outputs,
        multitask_loss="mean_squared" if multitask == "action" else "cross_entropy",
    )


def gradient_check_all_kinds(trials: int = 20, verbose: bool = False,
                             rng: Optional[np.random.Generator] = None) -> float:
    """Backprop vs central finite differences on random miniature networks of
    every agent kind; returns the worst relative error seen."""
    if trials < 1:
        raise UsageError(f"a gradient check needs at least one trial, got {trials}")
    rng = rng if rng is not None else np.random.default_rng(12345)
    worst = 0.0
    # a new variant goes last, so the draws of those before it stay the same
    variants = [("dqn", "none"), ("dron_concat", "none"),
                ("dron_moe", "none"), ("dron_moe", "type"), ("dron_concat", "action")]
    for kind, multitask in variants:
        kind_worst = 0.0
        for trial in range(trials):
            spec = _mini_spec(kind, multitask, rng)
            agent = Agent(spec, seed=int(rng.integers(1 << 30)))
            # move every parameter (biases start at zero) off the ReLU kinks,
            # where finite differences are not a valid derivative oracle
            for value in agent.params.values():
                value += rng.uniform(-0.1, 0.1, size=value.shape)
            batch = 2
            S = rng.normal(size=(batch, spec.state_dim))
            O = None if kind == "dqn" else rng.normal(size=(batch, spec.opponent_dim))
            wq = rng.normal(size=(batch, spec.action_count))
            sup_target = None
            lam = spec.multitask_weight
            if multitask == "action":  # how far the opponent is toward its buzz
                sup_target = rng.random(batch)
            elif multitask != "none":
                sup_target = rng.integers(0, spec.multitask_outputs, size=batch)

            def total_loss(_params):  # agent.params, perturbed in place
                fwd = agent.forward_train(S, O)
                value = float((wq * fwd.q).sum())
                if sup_target is not None:
                    losses, _ = nn.loss_and_grad(spec.multitask_loss, fwd.supervision, sup_target)
                    for loss_b in losses:  # in row order
                        value += lam * float(loss_b)
                return value

            fwd = agent.forward_train(S, O)
            dsup = None
            if sup_target is not None:
                dsup = lam * nn.loss_and_grad(spec.multitask_loss, fwd.supervision, sup_target)[1]
            analytic = agent.backward_train(fwd, wq, dsup)
            numeric = _finite_difference(total_loss, agent.params)
            for name in analytic:
                a, n = analytic[name].ravel(), numeric[name].ravel()
                denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
                kind_worst = max(kind_worst, float(np.max(np.abs(a - n) / denom)))
        if verbose:
            print(f"  {kind}{'+' + multitask if multitask != 'none' else '':9s} "
                  f"max rel err {kind_worst:.3g}")
        worst = max(worst, kind_worst)
    return worst


def _check(name: str, fn: Callable[[], bool], lines: List[str]) -> bool:
    try:
        ok = fn()
    except Exception as exc:  # a crash is a failure with a reason
        lines.append(f"FAIL {name}: {exc}")
        return False
    lines.append(f"{'ok  ' if ok else 'FAIL'} {name}")
    return ok


def run_selfcheck() -> bool:
    """Condensed invariant suite; prints one line per check."""
    lines: List[str] = []
    rng = np.random.default_rng(777)
    ok = True

    def moe_algebra() -> bool:
        spec = AgentSpec(kind="dron_moe", state_dim=5, action_count=4, opponent_dim=6,
                         state_hidden=(8,), head_hidden=(8,), opponent_hidden=7, experts=3)
        agent = Agent(spec, seed=11)
        for _ in range(1000):
            fwd = agent.forward_train(rng.normal(size=(1, 5)), rng.normal(size=(1, 6)))
            gate = fwd.gate[0]
            if not (np.all(gate >= 0.0) and abs(gate.sum() - 1.0) <= 1e-6):
                return False
            stacked = fwd.expert_q[:, 0]
            if np.any(fwd.q[0] < stacked.min(axis=0) - 1e-12):
                return False
            if np.any(fwd.q[0] > stacked.max(axis=0) + 1e-12):
                return False
        return True

    def gradcheck() -> bool:
        return (gradient_check_all_kinds(trials=3, rng=np.random.default_rng(5))
                <= GRADCHECK_TOLERANCE)

    def softmax_simplex() -> bool:
        for _ in range(500):
            p = nn.softmax(rng.uniform(-1e3, 1e3, size=rng.integers(1, 9)))
            if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9):
                return False
        return True

    def epsilon_monotone() -> bool:
        cfg = ExperimentConfig()
        values = [rl.epsilon_at(s, cfg.epsilon_start, cfg.epsilon_end, cfg.epsilon_decay_steps)
                  for s in range(0, 700_000, 5_000)]
        return all(a >= b for a, b in zip(values, values[1:]))

    def soccer_invariants() -> bool:
        # B plays by its rules, ties included; A moves at random
        for _ in range(300):
            joint, mode = soccer.reset(rng)
            for _ in range(soccer.HORIZON):
                action_b = soccer.rule_agent(mode, joint, rng.integers)
                joint, _, outcome = soccer.step(joint, int(rng.integers(0, 5)), action_b)
                cell_a, cell_b, holder = soccer.STATE_FIELDS[:, joint].tolist()
                if cell_a == cell_b or holder not in (0, 1) or outcome not in (-1, 0, 1):
                    return False
                if outcome:
                    break
        return True

    def quiz_invariants() -> bool:
        cfg = qb.DEFAULT_QUIZ_CONFIG
        pop = qb.make_population("mixed", rng)
        for _ in range(200):
            state, _ = qb.sample_episode(cfg, pop, rng)
            total, decisions = 0.0, 0
            while True:
                action = qb.BUZZ if rng.random() < 0.05 else qb.WAIT
                state, reward, done, _ = qb.step(state, action, cfg, rng)
                total += reward
                decisions += 1
                if done:
                    break
            if not (-15.0 <= total <= 10.0) or decisions > state.length + 1:
                return False
        return True

    def replay_uniform() -> bool:
        buf = rl.ReplayBuffer(10)
        for v in range(10):
            buf.push(np.array([float(v)]), np.zeros(1), 0, 0.0, np.zeros(1), np.zeros(1),
                     True, None)
        draws = 50_000
        sampled = buf.sample(draws, np.random.default_rng(3)).state[:, 0]
        counts = np.bincount(sampled.astype(np.intp), minlength=10)
        sigma = math.sqrt(draws * 0.1 * 0.9)
        return bool(np.all(np.abs(counts - draws * 0.1) <= 4 * sigma))

    started = time.time()
    for name, fn in [
        ("moe gate simplex + convex bounds (1000 trials)", moe_algebra),
        ("gradient check, all agent kinds", gradcheck),
        ("softmax stays on the simplex", softmax_simplex),
        ("epsilon schedule non-increasing", epsilon_monotone),
        ("soccer rollout invariants", soccer_invariants),
        ("quiz rollout invariants", quiz_invariants),
        ("replay sampling uniform", replay_uniform),
    ]:
        ok = _check(name, fn, lines) and ok
    print("\n".join(lines))
    print(f"selfcheck {'PASSED' if ok else 'FAILED'} in {time.time() - started:.1f}s")
    return ok
