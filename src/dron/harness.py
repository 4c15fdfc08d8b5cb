"""Experiment driver: training epochs, periodic greedy evaluation, metric
aggregation, checkpoints, and CSV emission.

Training and quiz evaluation play their episodes through one driver per
environment (`SoccerDriver`, `QuizDriver`, `SelfPlayDriver`); soccer
evaluation plays without one, in lockstep (below). A driver holds the game
state, the opponent history and the current observation `obs`;
`step(action)` plays one move and returns `(reward, done, info)`. A driver
never starts the next episode by itself: its owner calls `reset()`, so an
evaluation game draws nothing from its random stream after the game ends.

Nothing is computed that the agent does not read. A `dqn` agent has no
opponent tower (`agents.has_opponent_tower`), so it is shown no opponent:
its drivers' `obs[1]` is the empty `NO_OPPONENT`, and its replay rows hold
no opponent columns (33 floats per soccer row where a DRON agent's hold
65, 66 with a multitask head). The soccer driver and lockstep evaluation
then do not tally the opponent's moves, and the quiz driver builds no
opponent features but still records every buzz, since the buzz histories
are the pool's state.
Training draws its exploration first (`rl.act_epsilon_greedy`), so an
exploratory move runs no Q-value forward. None of this changes a draw or an
output byte.

A run's environment is one dict, `env_params_for(config)`, which its
checkpoint stores as `env.<key>` lines, and its agent is
`config.agent_spec_for(config)`; loading reads those lines and the agent's
config lines back through the config's parser and rules, so a bad line
fails there naming itself, and derives the agent the same way. Greedy
evaluation has one path, `_evaluate`, fed that dict: a run's per-epoch
evaluation and a later `evaluate` of its checkpoint play the same games.
The quiz game is `qb.QuizConfig(**env_params)`, so a key an in-memory
`Checkpoint` lacks takes the default a load gives it.
A soccer game is a joint state everywhere, an index of the `soccer`
module's tables, with the opponent mode and move category as table
indices, so `SoccerDriver` hands the mode or category index on as the
multitask supervision as it comes. `SoccerDriver` plays one game through
`soccer.rule_agent` and `soccer.step`; soccer games share nothing, so
`evaluate_soccer` plays them in lockstep through the same two functions on
an array of the joint states of the games still running, with one batched
Q-value call per step. Each game keeps its own random stream, and
`soccer.TieDraws` breaks the ties of all games in one vectorised step
from words drawn from those streams, as one-by-one play's draws would
give them, so the games are those of one-by-one play; a batched forward
can differ from a one-row forward by up to 1e-15 (numpy uses gemm for a
batch and gemv for one row), which has not been seen to change a greedy
action. Both keep the opponent's moves in one `soccer.OpponentTallies`, a
row per game: the driver's has one row.

Quiz games share the opponent pool's buzz histories, and only the opponent
features read them: drawing an episode (`qb.sample_episode`) reads the
game's own stream and no history. So `evaluate_quiz` draws every game's
episode up front and plays the games in lockstep, one batched Q-value call
per step, each game stepping through its own `QuizDriver`, under one
ordering rule: a game reads its opponent's features when it starts, and for
an agent with an opponent tower it starts once the previous game against
the same opponent has ended, so each opponent's games run in game order and
see the histories one-at-a-time play would show them. A `dqn` agent reads
no history and plays all its games at once. `tests/test_harness.py`
(`TestLockstepQuizOrder`, `TestLockoutQuiz`) holds lockstep play to a
word-by-word, game-by-game reference. As in soccer, a batched forward
differs from a one-row one: by at most 7e-15 over 300-game evaluations of
the three agent kinds, whose smallest gap between the two actions' values
was 9e-5, so no greedy action changed. A quiz game stops calling the agent
at its lockout: once a wrong buzz has locked the agent out it has no
decision left, so `QuizDriver.finish` settles the game from the opponent's
pre-drawn buzz, with the reward and history update that word-by-word play
would give. The words it skips would only draw beliefs from the game's own
stream, which nothing reads after the game, so the summaries and trace
rows are those of word-by-word play. Training still steps every word: it
learns from the transitions after a lockout.

Determinism contract: (config, seed) fully determine every CSV byte and
checkpoint parameter. All random streams derive from the run seed via named
integer sub-keys, and per-game evaluation streams derive from (eval seed,
game index) so results do not depend on scheduling.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import quizbowl as qb
from . import rl, soccer
from .agents import Agent, AgentSpec, has_opponent_tower
from .checkpoint import Checkpoint, rng_state_of, save_checkpoint
from .config import ExperimentConfig, agent_spec_for, env_params_for
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


# -- environment drivers ------------------------------------------------------

NO_OPPONENT = np.zeros(0)  # obs[1] for an agent without an opponent tower


@dataclass
class StepInfo:
    """What one driver step shows besides the reward."""

    supervision: Optional[Union[int, float]] = None  # multitask target of the move
    opponent_won: bool = False  # the quiz opponent answered right on this word


class SoccerDriver:
    """The primary agent (player A) against the rule-based opponent (player
    B): joint state `joint`, an int, after `steps` moves, over (`done`) on a
    goal or at `soccer.HORIZON`. `obs[1]` is the one row of B's
    `soccer.OpponentTallies`; with `sees_opponent` false (a `dqn` agent) B's
    moves are not tallied, and `obs[1]` is `NO_OPPONENT`. The `action`
    supervision is the category of B's move, which the tally reads."""

    bootstrap = True  # TD targets look past non-terminal steps

    def __init__(self, rng: np.random.Generator, opponent: str,
                 multitask: str = AgentSpec.multitask, sees_opponent: bool = True):
        self.rng = rng
        self.mode_policy = opponent
        self.multitask = multitask
        self.sees_opponent = sees_opponent
        self.reset()

    def reset(self) -> None:
        self.joint, self.mode = soccer.reset(self.rng, self.mode_policy)
        self.steps, self.done = 0, False
        self.tallies = soccer.OpponentTallies(1) if self.sees_opponent else None
        self._observe()

    def _observe(self) -> None:
        phi_o = self.tallies.features()[0] if self.sees_opponent else NO_OPPONENT
        self.obs = (soccer.FEATURES[self.joint], phi_o)

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        if self.done:
            raise UsageError("cannot step a finished episode")
        before = self.joint
        action_b = soccer.rule_agent(self.mode, before, self.rng.integers)
        joint, blocked, outcome = soccer.step(before, action, action_b)
        self.joint = int(joint)
        self.steps += 1
        self.done = bool(outcome) or self.steps >= soccer.HORIZON
        if self.sees_opponent:
            self.tallies.observe(before, action_b, self.joint, blocked)
        self._observe()
        supervision = None
        if self.multitask == "type":
            supervision = self.mode
        elif self.multitask == "action":
            supervision = self.tallies.last_category
        return float(outcome), self.done, StepInfo(supervision)


class QuizDriver:
    """The agent against an opponent drawn per episode from a persistent
    pool; each opponent's buzz history carries over between episodes. With
    `sees_opponent` false (a `dqn` agent) `obs[1]` is `NO_OPPONENT`, but every
    buzz is still recorded: the histories are the pool's state.

    `reset()` is `draw()` then `observe()`. Drawing the episode reads only
    the driver's own stream, never a buzz history; the observation reads the
    opponent's history as it stands when `observe()` runs. Lockstep
    evaluation leans on that split: with `observed` false the first episode
    is drawn but `obs` is left for `observe()`, called when the game starts."""

    bootstrap = True

    def __init__(self, rng: np.random.Generator, quiz_cfg: qb.QuizConfig,
                 population: Sequence[qb.OpponentProfile],
                 multitask: str = AgentSpec.multitask,
                 sees_opponent: bool = True, observed: bool = True):
        self.rng = rng
        self.quiz_cfg = quiz_cfg
        self.population = population
        self.multitask = multitask
        self.sees_opponent = sees_opponent
        self.draw()
        if observed:
            self.observe()

    def reset(self) -> None:
        self.draw()
        self.observe()

    def draw(self) -> None:
        """Draw the next episode: question, answer, opponent and its buzz."""
        self.state, self.profile = qb.sample_episode(self.quiz_cfg, self.population, self.rng)

    def observe(self) -> None:
        """Build `obs` from the state and the opponent's history as it is now."""
        self.obs = (qb.featurize(self.state), self._opponent_features())

    def _opponent_features(self) -> np.ndarray:
        return qb.opponent_features(self.profile) if self.sees_opponent else NO_OPPONENT

    def _supervision(self) -> Optional[Union[int, float]]:
        if self.multitask == "type":
            return qb.opponent_type(self.profile) - 1
        if self.multitask == "action":
            return qb.action_supervision_target(self.state.t, self.state.opponent_buzz_pos)
        return None

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        supervision = self._supervision()
        before = self.state
        self.state, reward, done, opponent = qb.step(before, action, self.quiz_cfg, self.rng)
        self._record_opponent(before, opponent)
        phi_o = self._opponent_features() if opponent is not None else self.obs[1]
        self.obs = (qb.featurize(self.state), phi_o)
        return reward, done, StepInfo(supervision, bool(opponent))

    def finish(self) -> Tuple[float, bool]:
        """End a game whose agent is locked out without playing its words:
        returns the reward and `opponent_won` that stepping to the end would
        give, and records the opponent's buzz as stepping would. Nothing is
        drawn from `rng`, and `obs` is left as it was."""
        before = self.state
        self.state, reward, opponent = qb.finish_locked_out(before)
        self._record_opponent(before, opponent)
        return reward, bool(opponent)

    def _record_opponent(self, before: qb.QuizState, opponent: Optional[bool]) -> None:
        """Add the opponent's buzz (`qb.step`'s last value), if it buzzed
        since `before`, to its history at once, so a failed buzz shows in the
        opponent features."""
        if opponent is not None:
            self.profile.record_buzz(before.opponent_buzz_pos / before.length,
                                     wrong=not opponent)


class SelfPlayDriver:
    """Opponent-free quiz bowl with shaped immediate rewards for buzzing or
    waiting on each word; every step is its own one-step TD episode. Only a
    `dqn` agent trains here, so `obs[1]` is `NO_OPPONENT`.

    A word is revealed by `qb.step` with the agent waiting. The question
    source's one opponent buzzes only on the last word, where the driver
    stops, so no buzz is ever played."""

    bootstrap = False

    def __init__(self, rng: np.random.Generator, quiz_cfg: qb.QuizConfig):
        self.rng = rng
        self.quiz_cfg = quiz_cfg
        # a question source only: this opponent buzzes on the last word
        self._questions = (qb.OpponentProfile(1.0, 0.0, 0.0),)
        self.reset()

    def reset(self) -> None:
        self.state, _ = qb.sample_episode(self.quiz_cfg, self._questions, self.rng)
        self.obs = (qb.featurize(self.state), NO_OPPONENT)

    def step(self, action: int) -> Tuple[float, bool, StepInfo]:
        reward = qb.dqnself_reward(action == qb.BUZZ, qb.belief_correct(self.state))
        done = self.state.t >= self.state.length
        if not done:
            self.state = qb.step(self.state, qb.WAIT, self.quiz_cfg, self.rng)[0]
        self.obs = (qb.featurize(self.state), NO_OPPONENT)
        return reward, done, StepInfo()


def _population(opponent: str, seed: int, size: int) -> Tuple[qb.OpponentProfile, ...]:
    return qb.make_population(opponent, np.random.default_rng([seed, _STREAM_POPULATION]),
                              size=size)


def make_driver(config: ExperimentConfig, rng: np.random.Generator, seed: int):
    sees = has_opponent_tower(config.agent)
    if config.environment == "soccer":
        return SoccerDriver(rng, config.opponent, config.multitask, sees)
    quiz_cfg = qb.QuizConfig(**env_params_for(config))
    if config.opponent == "self":
        return SelfPlayDriver(rng, quiz_cfg)
    population = _population(config.opponent, seed, quiz_cfg.opponent_pool)
    return QuizDriver(rng, quiz_cfg, population, config.multitask, sees)


# -- evaluation ---------------------------------------------------------------


def _check_games_and_seed(n_games: int, seed: int) -> None:
    """Reject a game count or a seed that no evaluation can play."""
    if n_games < 1:
        raise UsageError("n_games must be at least 1")
    if seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"seed must be >= 0, got {seed}")


def evaluate_soccer(agent: Agent, opponent: str, n_games: int, seed: int,
                    render: bool = False) -> MetricsSummary:
    """Greedy play of `n_games` games in lockstep. Game g draws from its own
    stream `default_rng([seed, g])`: its start (`soccer.reset`), then words
    from which `soccer.TieDraws` gives each tie-break as `integers(0,
    count)` calls would while nothing else reads the stream (`soccer` says
    why; `TestTieDraws` checks it). The games still running are arrays of
    joint states, modes and, for an agent with an opponent tower, rows of
    `soccer.OpponentTallies`; each step is one batched `agent.q_values` call;
    games left after `soccer.HORIZON` steps are ties. The games and draws
    are those of one-by-one play with `SoccerDriver` (the module docstring
    says how near a batched forward is to a one-row one). `render` prints
    each game's boards at the end."""
    _check_games_and_seed(n_games, seed)
    rngs = [np.random.default_rng([seed, game]) for game in range(n_games)]
    state, mode = np.array([soccer.reset(rng, opponent) for rng in rngs]).T
    draws = soccer.TieDraws(rngs)
    games = np.arange(n_games)  # the games still running
    tallies = soccer.OpponentTallies(n_games) if has_opponent_tower(agent.spec.kind) else None
    frames: List[List[str]] = [[] for _ in range(n_games)]
    rewards = np.zeros(n_games)  # a game still running after HORIZON steps is a 0-0 tie
    for _ in range(soccer.HORIZON):
        phi_s = soccer.FEATURES.take(state, axis=0)
        observation = (phi_s,) if tallies is None else (phi_s, tallies.features())
        action_a = agent.q_values(*observation).argmax(axis=1)
        action_b = soccer.rule_agent(mode, state, draws.draw)
        before = state
        state, blocked, outcome = soccer.step(state, action_a, action_b)
        if tallies is not None:
            tallies.observe(before, action_b, state, blocked)
        if render:
            for game, joint in zip(games.tolist(), state.tolist()):
                frames[game].append(soccer.render(joint))
        scored = outcome != 0
        if scored.any():
            rewards[games[scored]] = outcome[scored]
            running = ~scored
            games, state, mode = games[running], state[running], mode[running]
            draws.keep(running)
            if tallies is not None:
                tallies.keep(running)
            if not len(games):
                break
    for game_frames in frames:
        for frame in game_frames:
            print(frame)
            print()
    n = n_games
    wins = int(np.count_nonzero(rewards > 0))
    ties = int(np.count_nonzero(rewards == 0))
    return MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=ties / n, loss_rate=(n - wins - ties) / n,
    )


def evaluate_quiz(agent: Agent, opponent: str, n_games: int, seed: int,
                  quiz_cfg: qb.QuizConfig, trace_rows: Optional[list] = None) -> MetricsSummary:
    """Greedy play of `n_games` games in lockstep against one pool of
    `quiz_cfg.opponent_pool` opponents drawn from `seed`. Game g draws its
    episode up front from its own stream `default_rng([seed, g])`, which
    only the game reads, and sees the buzz histories the games before it
    left. Only the opponent features read a history, so for an agent with an
    opponent tower a game starts (reads its opponent's features) once the
    previous game against the same opponent has ended; a `dqn` agent reads
    none and plays all its games at once.
    Each lockstep step is one batched `agent.q_values` call over the running
    games; each game then steps through its own `QuizDriver`. A game stops
    at the agent's lockout: `QuizDriver.finish` settles the rest from the
    opponent's pre-drawn buzz, with no more Q-value calls or belief draws.
    The result is that of playing every word of one game after another
    (`TestLockoutQuiz` and `TestLockstepQuizOrder` in `tests/test_harness.py`
    check it): a locked-out agent's buzz is ignored, game g's stream is read
    by nothing after the game, the miss indicator reads only decisions from
    before the lockout, and a trace row reads only the question length, the
    opponent's buzz word and its μ (the module docstring says how near a
    batched forward is to a one-row one). A game is tallied in four counters: its total reward, the
    agent's buzz word (-1 if it never buzzed), whether that buzz was right,
    and whether the belief was right at any decision the agent made. The
    game is a rush if the agent buzzed wrong, and a miss if the belief was
    right at one of its decisions but the agent never buzzed right.
    `trace_rows`, when given, gets one dict per game, in game order."""
    _check_games_and_seed(n_games, seed)
    if opponent == "self":
        raise UsageError("evaluation always runs against a real opponent pool")
    population = _population(opponent, seed, quiz_cfg.opponent_pool)
    sees = has_opponent_tower(agent.spec.kind)
    drivers = [QuizDriver(np.random.default_rng([seed, game]), quiz_cfg, population,
                          sees_opponent=sees, observed=False) for game in range(n_games)]
    # chains of games played one after another: each opponent's games, or
    # for an agent that reads no history each game on its own
    running, successor, last = [], {}, {}
    for game, driver in enumerate(drivers):
        chain = id(driver.profile) if sees else game
        if chain in last:
            successor[last[chain]] = game
        else:
            running.append(game)
        last[chain] = game
    for game in running:
        drivers[game].observe()
    totals = [0.0] * n_games
    buzz_t = [-1] * n_games
    buzz_correct = [False] * n_games
    saw_answer = [False] * n_games
    opponent_won = [False] * n_games
    while running:
        phi_s = np.stack([drivers[game].obs[0] for game in running])
        if sees:
            q = agent.q_values(phi_s, np.stack([drivers[game].obs[1] for game in running]))
        else:
            q = agent.q_values(phi_s)
        still_running = []
        for game, action in zip(running, q.argmax(axis=1).tolist()):
            driver = drivers[game]
            state = driver.state
            right = qb.belief_correct(state)
            saw_answer[game] = saw_answer[game] or right
            if action == qb.BUZZ:
                buzz_t[game], buzz_correct[game] = state.t, right
            reward, done, info = driver.step(action)
            totals[game] += reward
            opponent_won[game] = info.opponent_won
            if not done and driver.state.agent_locked:
                reward, opponent_won[game] = driver.finish()
                totals[game] += reward
                done = True
            if not done:
                still_running.append(game)
            elif game in successor:
                drivers[successor[game]].observe()
                still_running.append(successor[game])
        running = still_running
    if trace_rows is not None:
        for game, driver in enumerate(drivers):
            trace_rows.append({
                "game": game,
                "length": driver.state.length,
                "opponent_mean_buzz_frac": driver.profile.mean_buzz_frac,
                "opponent_buzz_pos": driver.state.opponent_buzz_pos,
                "agent_buzz_pos": buzz_t[game],
                "agent_buzz_correct": int(buzz_correct[game]),
                "reward": totals[game],
            })
    n = n_games
    wins = sum(buzz_correct)
    losses = sum(opponent_won)
    rushes = sum(t >= 0 and not c for t, c in zip(buzz_t, buzz_correct))
    misses = sum(s and not c for s, c in zip(saw_answer, buzz_correct))
    return MetricsSummary(
        mean_reward=float(np.mean(totals)), games=n,
        win_rate=wins / n, tie_rate=(n - wins - losses) / n, loss_rate=losses / n,
        rush_rate=rushes / n, miss_rate=misses / n,
    )


def _evaluate(agent: Agent, environment: str, env_params: dict, opponent: str,
              n_games: int, seed: int, render: bool = False,
              trace_rows: Optional[list] = None) -> MetricsSummary:
    """Greedy-policy evaluation in a run's environment; deterministic given seed."""
    if environment == "soccer":
        if trace_rows is not None:
            raise UsageError("buzz traces are recorded for quiz bowl only")
        return evaluate_soccer(agent, opponent, n_games, seed, render=render)
    if render:
        raise UsageError("rendering is available for soccer only")
    return evaluate_quiz(agent, opponent, n_games, seed, qb.QuizConfig(**env_params),
                         trace_rows=trace_rows)


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
    grad_clip = config.effective_grad_clip
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
            eps = rl.epsilon_at(global_step, config.epsilon_start, config.epsilon_end,
                                config.epsilon_decay_steps)
            action = rl.act_epsilon_greedy(agent, driver.obs, eps, explore_rng)
            reward, done, info = driver.step(action)
            next_s, next_o = driver.obs
            replay.push(phi_s, phi_o, action, reward, next_s, next_o,
                        done or not driver.bootstrap, info.supervision)
            if done:
                driver.reset()
            global_step += 1
            if len(replay) >= config.replay_min:
                batch = replay.sample(config.batch_size, replay_rng)
                try:
                    rl.td_update(agent, batch, opt_state, target, config.gamma, grad_clip)
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


def _remove_if_present(path: str) -> None:
    """Remove the file at ``path`` if there is one, so that an output is
    written as a new file and never through a link to an earlier run's. Any
    error but a missing file propagates, as the open's would."""
    with suppress(FileNotFoundError):
        os.remove(path)


def train(config: ExperimentConfig, output_dir: Optional[str] = None,
          progress: Optional[Callable[[int, int, MetricsSummary], None]] = None
          ) -> List[RunResult]:
    """Train every seed in the config, writing a learning-curve CSV and a
    checkpoint per seed into the output directory. The CSV's header is
    written before the run and each epoch's row, flushed, as that epoch's
    evaluation ends, so a run that raises leaves the rows of the epochs it
    finished and no checkpoint: a seed's run starts by removing the
    checkpoint an earlier run left. Each output is a new file
    (`_remove_if_present`): a symlink or hard link at its path is replaced,
    not written through, and the directory must be writable even where the
    old file is (`dron` then exits 2 naming the path)."""
    out = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out, exist_ok=True)
    results = []
    for seed in config.seeds:
        curve_path = os.path.join(out, f"curve_seed{seed}.csv")
        ckpt_path = os.path.join(out, f"checkpoint_seed{seed}.ckpt")
        _remove_if_present(ckpt_path)
        _remove_if_present(curve_path)
        # line-buffered: the header and each row reach the file as written
        with open(curve_path, "w", encoding="utf-8", buffering=1) as fh:
            fh.write(CSV_HEADER + "\n")

            def on_epoch(epoch: int, m: MetricsSummary) -> None:
                fh.write(csv_row(epoch, m) + "\n")
                if progress is not None:
                    progress(seed, epoch, m)

            result = train_run(config, seed, progress=on_epoch)
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
    """`train` of the config as a `dron_moe` agent with each expert count k,
    into `<output_dir>/experts<k>/` (a learning curve and a checkpoint per
    seed), then `sweep.csv` in `output_dir`: per count, the mean over seeds of
    each run's `mean_r` with its 90% normal-approximation confidence
    interval. `progress(k, seed, epoch, summary)` follows every epoch.
    `sweep.csv` is a new file, as each of `train`'s outputs is: a link at its
    path is replaced, not written through."""
    if not k_values:
        raise UsageError("at least one expert count is required")
    counts = [int(k) for k in k_values]
    # a repeated count trains the same runs again and writes the same row twice
    repeated = sorted({k for k in counts if counts.count(k) > 1})
    if repeated:
        raise UsageError(f"expert counts must be distinct, got "
                         f"{', '.join(map(str, repeated))} more than once")
    # every count is checked before the first run, so a bad one costs no training
    configs = [replace(config, agent="dron_moe", experts=k) for k in counts]
    points = []
    out = output_dir if output_dir is not None else config.output_dir
    for k, cfg_k in zip(counts, configs):
        hook = (lambda s, e, m: progress(k, s, e, m)) if progress else None
        results = train(cfg_k, os.path.join(out, f"experts{k}"), progress=hook)
        seed_means = [r.mean_r for r in results]
        points.append(SweepPoint(
            experts=k, seed_means=seed_means,
            mean=float(np.mean(seed_means)),
            ci_halfwidth=mean_confidence_halfwidth(seed_means),
            degenerate=len(seed_means) < 2,
        ))
    path = os.path.join(out, "sweep.csv")
    _remove_if_present(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("experts,mean_reward,ci_halfwidth,seeds,degenerate\n")
        for p in points:
            fh.write(f"{p.experts},{p.mean:.6f},{p.ci_halfwidth:.6f},"
                     f"{len(p.seed_means)},{int(p.degenerate)}\n")
    return points
