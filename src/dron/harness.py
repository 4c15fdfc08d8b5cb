"""Experiment driver: training epochs, periodic greedy evaluation, metric
aggregation, checkpoints, and CSV emission.

Training and greedy evaluation play their episodes through one driver per
environment (`SoccerDriver`, `QuizDriver`, `SelfPlayDriver`). A driver holds
the game state, the opponent history and the current observation `obs`;
`step(action)` plays one move and returns `(reward, done, info)`. A driver
never starts the next episode by itself: its owner calls `reset()`, so an
evaluation game draws nothing from its random stream after the game ends.

A run's environment is one dict, `env_params_for(config)`, which its
checkpoint stores. Greedy evaluation has one path, `_evaluate`, fed that dict:
a run's per-epoch evaluation and a later `evaluate` of its checkpoint play the
same games. Soccer games share nothing, so `evaluate_soccer` plays them in
lockstep: one batched Q-value call per step for every game still running.
Each game keeps its own random stream, so the games are those of one-by-one
play; a batched forward can differ from a one-row forward by up to 1e-15
(numpy uses gemm for a batch and gemv for one row), which has not been seen
to change a greedy action. Quiz games see the buzz histories of the games
before them and are played one at a time.

Determinism contract: (config, seed) fully determine every CSV byte and
checkpoint parameter. All random streams derive from the run seed via named
integer sub-keys, and per-game evaluation streams derive from (eval seed,
game index) so results do not depend on scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import quizbowl as qb
from . import rl, soccer
from .agents import Agent, AgentSpec, quiz_agent_spec, soccer_agent_spec
from .checkpoint import Checkpoint, rng_state_of, save_checkpoint
from .config import ExperimentConfig
from .errors import TrainingError, UsageError
from .nn import AdaGradState
from .stats import mean_confidence_halfwidth

CSV_HEADER = "epoch,mean_reward,rush,miss,win,tie"

# sub-keys for deriving independent random streams from the run seed
_STREAM_ENV = 100
_STREAM_EXPLORE = 101
_STREAM_REPLAY = 102
_STREAM_POPULATION = 103
_STREAM_EVAL = 200


@dataclass
class MetricsSummary:
    mean_reward: float
    games: int = 0
    win_rate: float = 0.0
    tie_rate: float = 0.0
    loss_rate: float = 0.0
    rush_rate: float = 0.0
    miss_rate: float = 0.0


@dataclass
class RunResult:
    seed: int
    epoch_metrics: List[MetricsSummary]
    checkpoint: Checkpoint
    curve_path: Optional[str] = None
    checkpoint_path: Optional[str] = None

    @property
    def epoch_rewards(self) -> List[float]:
        return [m.mean_reward for m in self.epoch_metrics]

    @property
    def mean_r(self) -> float:
        """Average test reward over the last 10 epochs (all, if fewer)."""
        rewards = self.epoch_rewards
        window = rewards[-10:] if len(rewards) >= 10 else rewards
        return float(np.mean(window))

    @property
    def max_r(self) -> float:
        return float(np.max(self.epoch_rewards))


def agent_spec_for(config: ExperimentConfig) -> AgentSpec:
    if config.environment == "soccer":
        return soccer_agent_spec(
            config.agent, multitask=config.multitask, experts=config.experts,
            multitask_weight=config.multitask_weight,
        )
    return quiz_agent_spec(
        config.agent, vocab=config.vocab, multitask=config.multitask,
        experts=config.experts, multitask_weight=config.multitask_weight,
    )


def env_params_for(config: ExperimentConfig) -> dict:
    """The environment keys of a run: all a checkpoint needs to play its games."""
    if config.environment != "quizbowl":
        return {}
    return {
        "vocab": config.vocab, "question_min": config.question_min,
        "question_max": config.question_max, "belief_alpha": config.belief_alpha,
        "belief_kappa": config.belief_kappa, "opponent_pool": config.opponent_pool,
    }


def quiz_config_for(env_params: dict) -> qb.QuizConfig:
    """Quiz-bowl settings from a run's environment parameters (as made by
    `env_params_for` and stored in checkpoints); a missing key keeps the
    QuizConfig default."""
    default = qb.DEFAULT_QUIZ_CONFIG
    return qb.QuizConfig(
        vocab=int(env_params.get("vocab", default.vocab)),
        min_length=int(env_params.get("question_min", default.min_length)),
        max_length=int(env_params.get("question_max", default.max_length)),
        alpha=float(env_params.get("belief_alpha", default.alpha)),
        kappa=float(env_params.get("belief_kappa", default.kappa)),
    )


# -- environment drivers ------------------------------------------------------


@dataclass
class StepInfo:
    """What one driver step shows besides the reward."""

    supervision: Optional[Union[int, float]] = None  # multitask target of the move
    opponent_won: bool = False  # the quiz opponent buzzed correctly


class SoccerDriver:
    """The primary agent (player A) against the rule-based opponent."""

    bootstrap = True  # TD targets look past non-terminal steps

    def __init__(self, rng: np.random.Generator, opponent: str = "mixed",
                 multitask: str = "none"):
        self.cfg = soccer.DEFAULT_CONFIG
        self.rng = rng
        self.mode_policy = opponent
        self.multitask = multitask
        self.reset()

    def reset(self) -> None:
        self.state, self.mode = soccer.reset(self.cfg, self.rng, self.mode_policy)
        self.stats = soccer.OpponentStats()
        self._observe()

    def _observe(self) -> None:
        self.obs = (soccer.featurize_state(self.state, self.cfg, "A"),
                    soccer.opponent_features(self.stats))

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        action_b = soccer.rule_agent_act(self.state, self.mode, self.rng, self.cfg, "B")
        category = soccer.classify_move(self.state, action_b, self.cfg, "B")
        self.state, reward, done, events = soccer.step(self.state, action, action_b, self.cfg)
        self.stats.observe(category, action_b, lost_ball=events.ball_taken_by == "B")
        self._observe()
        supervision = None
        if self.multitask == "type":
            supervision = soccer.MODES.index(self.mode)
        elif self.multitask == "action":
            supervision = soccer.MOVE_CATEGORIES.index(category)
        return reward, done, StepInfo(supervision)


class QuizDriver:
    """The agent against an opponent drawn per episode from a persistent
    pool; each opponent's buzz history carries over between episodes."""

    bootstrap = True

    def __init__(self, rng: np.random.Generator, quiz_cfg: qb.QuizConfig,
                 population: qb.Population, multitask: str = "none"):
        self.rng = rng
        self.quiz_cfg = quiz_cfg
        self.population = population
        self.multitask = multitask
        self.reset()

    def reset(self) -> None:
        self.state, self.profile = qb.sample_episode(self.quiz_cfg, self.population, self.rng)
        self.obs = (qb.featurize(self.state), qb.opponent_features(self.profile))

    def _supervision(self) -> Optional[Union[int, float]]:
        if self.multitask == "type":
            return qb.opponent_type(self.profile) - 1
        if self.multitask == "action":
            return qb.action_supervision_target(self.state.t, self.state.opponent_buzz_pos)
        return None

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        supervision = self._supervision()
        before = self.state
        self.state, reward, done, outcome = qb.step(before, action, self.quiz_cfg, self.rng)
        buzzed_wrong = self.state.opponent_locked and not before.opponent_locked
        opponent_won = outcome is not None and outcome.who == "opponent" and outcome.correct
        phi_o = self.obs[1]
        if buzzed_wrong or opponent_won:
            # history updates as soon as the buzz is observed, so a failed
            # opponent buzz becomes visible in the opponent features
            self.profile.record_buzz(before.opponent_buzz_pos / before.length,
                                     wrong=buzzed_wrong)
            phi_o = qb.opponent_features(self.profile)
        self.obs = (qb.featurize(self.state), phi_o)
        return reward, done, StepInfo(supervision, opponent_won)


class SelfPlayDriver:
    """Opponent-free quiz bowl with shaped immediate rewards for buzzing or
    waiting on each word; every step is its own one-step TD episode."""

    bootstrap = False

    def __init__(self, rng: np.random.Generator, quiz_cfg: qb.QuizConfig):
        self.rng = rng
        self.quiz_cfg = quiz_cfg
        # a question source only: this opponent never takes part
        self._questions = qb.Population([qb.OpponentProfile(1.0, 0.0, 0.0)])
        self.reset()

    def reset(self) -> None:
        self.state, _ = qb.sample_episode(self.quiz_cfg, self._questions, self.rng)
        self.obs = (qb.featurize(self.state), np.zeros(3))

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        reward = qb.dqnself_reward(action == qb.BUZZ, qb.belief_correct(self.state),
                                   self.quiz_cfg)
        done = self.state.t >= self.state.length
        if not done:
            self.state = qb.advance_belief(self.state, self.quiz_cfg, self.rng)
        self.obs = (qb.featurize(self.state), self.obs[1])
        return reward, done, StepInfo()


def _population(opponent: str, seed: int, size: int) -> qb.Population:
    return qb.make_population(opponent, np.random.default_rng([seed, _STREAM_POPULATION]),
                              size=size)


def make_driver(config: ExperimentConfig, rng: np.random.Generator, seed: int):
    if config.environment == "soccer":
        return SoccerDriver(rng, config.opponent, config.multitask)
    env_params = env_params_for(config)
    quiz_cfg = quiz_config_for(env_params)
    if config.opponent == "self":
        return SelfPlayDriver(rng, quiz_cfg)
    population = _population(config.opponent, seed, env_params["opponent_pool"])
    return QuizDriver(rng, quiz_cfg, population, config.multitask)


# -- evaluation ---------------------------------------------------------------


def evaluate_soccer(agent: Agent, opponent: str, n_games: int, seed: int,
                    render: bool = False) -> MetricsSummary:
    """Greedy play of `n_games` games in lockstep. Game g draws from its own
    stream `default_rng([seed, g])`; each step stacks the observations of the
    games still running into one batch for one `agent.q_values` call, then
    steps those games in game order. A batched forward differs from a one-row
    forward by up to 1e-15 (gemm against gemv), which has not been seen to
    move an argmax. `render` prints each game's boards, game by game,
    once all games are over."""
    drivers = [SoccerDriver(np.random.default_rng([seed, game]), opponent)
               for game in range(n_games)]
    frames: List[List[str]] = [[] for _ in drivers]
    rewards = [0.0] * n_games
    live = list(range(n_games))
    while live:
        phi_s = np.array([drivers[g].obs[0] for g in live])
        phi_o = np.array([drivers[g].obs[1] for g in live])
        actions = agent.q_values(phi_s, phi_o).argmax(axis=1).tolist()
        running = []
        for game, action in zip(live, actions):
            driver = drivers[game]
            reward, done, _ = driver.step(action)
            if render:
                frames[game].append(soccer.render(driver.state, driver.cfg))
            if done:
                rewards[game] = reward
            else:
                running.append(game)
        live = running
    for game_frames in frames:
        for frame in game_frames:
            print(frame)
            print()
    n = len(rewards)
    wins = sum(r > 0 for r in rewards)
    ties = sum(r == 0 for r in rewards)
    return MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=ties / n, loss_rate=(n - wins - ties) / n,
    )


def evaluate_quiz(agent: Agent, opponent: str, n_games: int, seed: int,
                  quiz_cfg: qb.QuizConfig, pool_size: int = ExperimentConfig.opponent_pool,
                  trace_rows: Optional[list] = None) -> MetricsSummary:
    if opponent == "self":
        raise UsageError("evaluation always runs against a real opponent pool")
    population = _population(opponent, seed, pool_size)
    rewards = []
    rushes = misses = wins = losses = 0
    for game in range(n_games):
        driver = QuizDriver(np.random.default_rng([seed, game]), quiz_cfg, population)
        trace = qb.EpisodeTrace()
        agent_buzz_t = -1
        opponent_won = done = False
        while not done:
            state = driver.state
            action = int(np.argmax(agent.q_values(*driver.obs)))
            record = qb.StepRecord(
                t=state.t, belief_was_correct=qb.belief_correct(state),
                agent_action=action, agent_had_buzzed=state.agent_locked,
            )
            trace.steps.append(record)
            if action == qb.BUZZ and not state.agent_locked:
                # not taken from qb.step's outcome, which is the opponent's
                # when it answers correctly on the same word
                trace.agent_buzzed = True
                trace.agent_buzz_correct = record.belief_was_correct
                agent_buzz_t = state.t
            reward, done, info = driver.step(action)
            trace.total_reward += reward
            opponent_won = opponent_won or info.opponent_won
        trace.completed = True
        reward, rush, miss = qb.score_episode(trace)
        rewards.append(reward)
        rushes += rush
        misses += miss
        wins += trace.agent_buzz_correct
        losses += opponent_won
        if trace_rows is not None:
            trace_rows.append({
                "game": game,
                "length": driver.state.length,
                "opponent_mean_buzz_frac": driver.profile.mean_buzz_frac,
                "opponent_buzz_pos": driver.state.opponent_buzz_pos,
                "agent_buzz_pos": agent_buzz_t,
                "agent_buzz_correct": int(trace.agent_buzz_correct),
                "reward": reward,
            })
    n = len(rewards)
    return MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=(n - wins - losses) / n, loss_rate=losses / n,
        rush_rate=rushes / n, miss_rate=misses / n,
    )


def _evaluate(agent: Agent, environment: str, env_params: dict, opponent: str,
              n_games: int, seed: int, render: bool = False,
              trace_rows: Optional[list] = None) -> MetricsSummary:
    """Greedy-policy evaluation in a run's environment; deterministic given seed.
    Checkpoints written before `opponent_pool` was stored get the default pool."""
    if n_games < 1:
        raise UsageError("n_games must be at least 1")
    if environment == "soccer":
        if trace_rows is not None:
            raise UsageError("buzz traces are recorded for quiz bowl only")
        return evaluate_soccer(agent, opponent, n_games, seed, render=render)
    if render:
        raise UsageError("rendering is available for soccer only")
    pool_size = int(env_params.get("opponent_pool", ExperimentConfig.opponent_pool))
    return evaluate_quiz(agent, opponent, n_games, seed, quiz_config_for(env_params),
                         pool_size=pool_size, trace_rows=trace_rows)


def evaluate(checkpoint: Checkpoint, opponent: str, n_games: int, seed: int,
             render: bool = False, trace_rows: Optional[list] = None) -> MetricsSummary:
    """Greedy-policy evaluation of a checkpoint in its run's environment."""
    return _evaluate(checkpoint.build_agent(), checkpoint.environment, checkpoint.env_params,
                     opponent, n_games, seed, render=render, trace_rows=trace_rows)


# -- training -----------------------------------------------------------------


def csv_row(epoch: int, m: MetricsSummary) -> str:
    return (f"{epoch},{m.mean_reward:.6f},{m.rush_rate:.6f},{m.miss_rate:.6f},"
            f"{m.win_rate:.6f},{m.tie_rate:.6f}")


def train_run(config: ExperimentConfig, seed: int,
              progress: Optional[Callable[[int, MetricsSummary], None]] = None) -> RunResult:
    """One fully seeded training run: epochs of environment interaction with
    one TD update per step (once the buffer is warm), greedy evaluation after
    every epoch."""
    agent = Agent(agent_spec_for(config), seed=seed)
    qcfg = rl.QLearningConfig(
        discount=config.gamma, batch_size=config.batch_size,
        target_sync=config.target_sync, learning_rate=config.learning_rate,
        grad_clip=config.effective_grad_clip,
    )
    schedule = rl.EpsilonSchedule(
        start=config.epsilon_start, end=config.epsilon_end,
        decay_steps=config.epsilon_decay_steps,
    )
    env_rng = np.random.default_rng([seed, _STREAM_ENV])
    explore_rng = np.random.default_rng([seed, _STREAM_EXPLORE])
    replay_rng = np.random.default_rng([seed, _STREAM_REPLAY])
    driver = make_driver(config, env_rng, seed)
    env_params = env_params_for(config)
    eval_opponent = config.opponent if config.opponent != "self" else "mixed"
    replay = rl.ReplayBuffer(config.replay_capacity)
    opt_state = AdaGradState.for_params(agent.params, config.learning_rate)
    target = rl.sync_target(agent)
    updates = 0
    global_step = 0
    metrics: List[MetricsSummary] = []

    for epoch in range(1, config.epochs + 1):
        for _ in range(config.steps_per_epoch):
            phi_s, phi_o = driver.obs
            eps = rl.epsilon_at(schedule, global_step)
            action = rl.act_epsilon_greedy(agent.q_values(*driver.obs), eps, explore_rng)
            reward, done, info = driver.step(action)
            next_s, next_o = driver.obs
            replay.push(rl.Transition(
                state=phi_s, opponent=phi_o, action=action, reward=reward,
                next_state=next_s, next_opponent=next_o,
                terminal=done or not driver.bootstrap, supervision=info.supervision,
            ))
            if done:
                driver.reset()
            global_step += 1
            if len(replay) >= config.replay_min:
                batch = replay.sample(config.batch_size, replay_rng)
                try:
                    rl.td_update(agent, batch, qcfg, opt_state, target)
                except TrainingError as exc:
                    raise TrainingError(f"epoch {epoch}: {exc}") from exc
                updates += 1
                if updates % config.target_sync == 0:
                    target = rl.sync_target(agent)
        eval_seed = int(np.random.SeedSequence([seed, _STREAM_EVAL, epoch]).generate_state(1)[0])
        summary = _evaluate(agent, config.environment, env_params, eval_opponent,
                            config.eval_games, eval_seed)
        metrics.append(summary)
        if progress is not None:
            progress(epoch, summary)

    checkpoint = Checkpoint(
        agent_spec=agent.spec, params=agent.params,
        environment=config.environment, steps=global_step,
        rng_state=rng_state_of(env_rng), env_params=env_params,
    )
    return RunResult(seed=seed, epoch_metrics=metrics, checkpoint=checkpoint)


def train(config: ExperimentConfig, output_dir: Optional[str] = None,
          progress: Optional[Callable[[int, int, MetricsSummary], None]] = None
          ) -> List[RunResult]:
    """Train every seed in the config, writing a learning-curve CSV and a
    checkpoint per seed into the output directory."""
    out = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out, exist_ok=True)
    results = []
    for seed in config.seeds:
        hook = (lambda e, m, s=seed: progress(s, e, m)) if progress else None
        result = train_run(config, seed, progress=hook)
        curve_path = os.path.join(out, f"curve_seed{seed}.csv")
        with open(curve_path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for epoch, m in enumerate(result.epoch_metrics, start=1):
                fh.write(csv_row(epoch, m) + "\n")
        ckpt_path = os.path.join(out, f"checkpoint_seed{seed}.ckpt")
        save_checkpoint(result.checkpoint, ckpt_path)
        result.curve_path = curve_path
        result.checkpoint_path = ckpt_path
        results.append(result)
    return results


# -- expert sweep ---------------------------------------------------------------


@dataclass
class SweepPoint:
    experts: int
    seed_means: List[float]
    mean: float
    ci_halfwidth: float
    degenerate: bool  # single seed: the interval collapses to a point


def sweep_experts(config: ExperimentConfig, k_values: Sequence[int],
                  output_dir: Optional[str] = None,
                  progress: Optional[Callable[..., None]] = None) -> List[SweepPoint]:
    """Full train+evaluate per expert count per seed; 90% normal-approximation
    confidence intervals over seed means."""
    if not k_values:
        raise UsageError("at least one expert count is required")
    points = []
    out = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out, exist_ok=True)
    for k in k_values:
        cfg_k = replace(config, agent="dron_moe", experts=int(k))
        seed_means = []
        for seed in cfg_k.seeds:
            hook = None
            if progress is not None:
                hook = (lambda e, m, s=seed, kk=k: progress(kk, s, e, m))
            result = train_run(cfg_k, seed, progress=hook)
            seed_means.append(result.mean_r)
        points.append(SweepPoint(
            experts=int(k), seed_means=seed_means,
            mean=float(np.mean(seed_means)),
            ci_halfwidth=mean_confidence_halfwidth(seed_means),
            degenerate=len(seed_means) < 2,
        ))
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("experts,mean_reward,ci_halfwidth,seeds,degenerate\n")
        for p in points:
            fh.write(f"{p.experts},{p.mean:.6f},{p.ci_halfwidth:.6f},"
                     f"{len(p.seed_means)},{int(p.degenerate)}\n")
    return points
