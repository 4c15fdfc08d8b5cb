import functools
import hashlib
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dron import harness
from dron import quizbowl as qb
from dron import rl, soccer
from dron.agents import Agent, has_opponent_tower, quiz_agent_spec, soccer_agent_spec
from dron.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dron.cli import main
from dron.config import ExperimentConfig, parse_config
from dron.errors import ConfigurationError, TrainingError, UsageError
from dron.harness import evaluate, sweep_experts, train, train_run
import soccer_reference as ref
from checkpoint_v1 import v1_text

TINY_SOCCER = """
environment = soccer
agent = dqn
epochs = 1
steps_per_epoch = 100
eval_games = 10
replay_min = 20
seeds = 1
"""

TINY_QUIZ = """
environment = quizbowl
agent = dron_moe
epochs = 1
steps_per_epoch = 150
eval_games = 5
replay_min = 20
seeds = 1
opponent = mixed
"""


class TestTrain:
    def test_csv_header_plus_one_row(self, tmp_path):
        cfg = parse_config(TINY_SOCCER)
        results = train(cfg, output_dir=str(tmp_path))
        text = (tmp_path / "curve_seed1.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,mean_reward,rush,miss,win,tie"
        assert len(lines) == 2
        assert results[0].checkpoint_path is not None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(TINY_SOCCER + "epochs = 2\n")
        train(cfg, output_dir=str(tmp_path / "a"))
        train(cfg, output_dir=str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "curve_seed1.csv").read_bytes()
        csv_b = (tmp_path / "b" / "curve_seed1.csv").read_bytes()
        assert csv_a == csv_b
        ck_a = (tmp_path / "a" / "checkpoint_seed1.ckpt").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint_seed1.ckpt").read_bytes()
        assert ck_a == ck_b

    def test_crashed_run_keeps_the_epochs_it_finished(self, tmp_path, monkeypatch):
        cfg = parse_config(TINY_SOCCER + "epochs = 2\n")
        train(cfg, output_dir=str(tmp_path / "whole"))
        want = (tmp_path / "whole" / "curve_seed1.csv").read_text().splitlines()
        assert len(want) == 3
        curve = tmp_path / "crashed" / "curve_seed1.csv"
        seen = []  # the file as each epoch's row is reported

        def td_update(*args):
            if seen:  # any update of epoch 2
                raise TrainingError("crashed")
            return real_td_update(*args)

        real_td_update = rl.td_update
        monkeypatch.setattr(rl, "td_update", td_update)
        with pytest.raises(TrainingError, match="epoch 2: crashed"):
            train(cfg, output_dir=str(tmp_path / "crashed"),
                  progress=lambda seed, epoch, m: seen.append(curve.read_text()))
        # the row is flushed before the epoch is reported, and kept
        assert seen == ["\n".join(want[:2]) + "\n"]
        assert curve.read_text().splitlines() == want[:2]
        assert not (tmp_path / "crashed" / "checkpoint_seed1.ckpt").exists()

    def test_crashed_rerun_leaves_no_old_checkpoint(self, tmp_path, monkeypatch):
        cfg = parse_config(TINY_SOCCER + "epochs = 2\n")
        train(cfg, output_dir=str(tmp_path))
        want = (tmp_path / "curve_seed1.csv").read_text().splitlines()
        reported = []

        def td_update(*args):
            if reported:  # any update of epoch 2
                raise TrainingError("crashed")
            return real_td_update(*args)

        real_td_update = rl.td_update
        monkeypatch.setattr(rl, "td_update", td_update)
        with pytest.raises(TrainingError, match="epoch 2: crashed"):
            train(cfg, output_dir=str(tmp_path), progress=lambda *args: reported.append(args))
        assert (tmp_path / "curve_seed1.csv").read_text().splitlines() == want[:2]
        # the finished run's checkpoint is gone, not left beside the new rows
        assert not (tmp_path / "checkpoint_seed1.ckpt").exists()

    def test_outputs_are_replaced_not_written_through(self, tmp_path):
        names = ("curve_seed1.csv", "checkpoint_seed1.ckpt")
        run, fresh = tmp_path / "run", tmp_path / "fresh"
        train(parse_config(TINY_SOCCER + "epochs = 2\n"), output_dir=str(run))
        first = {name: (run / name).read_bytes() for name in names}
        for name in names:
            os.link(run / name, tmp_path / f"link_{name}")
        cfg = parse_config(TINY_SOCCER)
        train(cfg, output_dir=str(run))
        train(cfg, output_dir=str(fresh))
        for name in names:
            assert (tmp_path / f"link_{name}").read_bytes() == first[name]
            assert (run / name).read_bytes() == (fresh / name).read_bytes() != first[name]

    def test_quiz_training_smoke(self, tmp_path):
        cfg = parse_config(TINY_QUIZ)
        results = train(cfg, output_dir=str(tmp_path))
        assert len(results[0].epoch_metrics) == 1
        loaded = load_checkpoint(results[0].checkpoint_path)
        assert loaded.environment == "quizbowl"
        assert loaded.env_params["belief_alpha"] == 8.0

    def test_quiz_multitask_smoke(self, tmp_path):
        cfg = parse_config(TINY_QUIZ + "multitask = type\n")
        results = train(cfg, output_dir=str(tmp_path))
        assert np.isfinite(results[0].epoch_metrics[0].mean_reward)

    def test_self_play_smoke(self, tmp_path):
        cfg = parse_config(
            "environment = quizbowl\nagent = dqn\nopponent = self\ngamma = 0\n"
            "epochs = 1\nsteps_per_epoch = 150\neval_games = 5\nreplay_min = 20\nseeds = 2\n"
        )
        results = train(cfg, output_dir=str(tmp_path))
        assert len(results) == 1

    def test_mean_r_last_ten_convention(self):
        cfg = parse_config(TINY_SOCCER)
        result = train_run(cfg, seed=1)
        # synthesize a 12-epoch series to check the window arithmetic
        from dron.harness import MetricsSummary
        result.epoch_metrics = [MetricsSummary(mean_reward=float(i)) for i in range(12)]
        assert result.mean_r == pytest.approx(np.mean(range(2, 12)))
        assert result.max_r == 11.0


class TestEvaluate:
    def make_checkpoint(self, seed=0):
        agent = Agent(soccer_agent_spec("dqn"), seed=seed)
        return Checkpoint(agent_spec=agent.spec, params=agent.params,
                          environment="soccer")

    def test_deterministic(self):
        ckpt = self.make_checkpoint()
        a = evaluate(ckpt, "mixed", 50, seed=9)
        b = evaluate(ckpt, "mixed", 50, seed=9)
        assert a == b

    def test_fresh_agent_vs_defensive_ties(self):
        ckpt = self.make_checkpoint()
        summary = evaluate(ckpt, "defensive", 100, seed=3)
        assert summary.tie_rate > 0.0

    def test_does_not_mutate_params(self):
        ckpt = self.make_checkpoint()
        before = {k: v.copy() for k, v in ckpt.params.items()}
        evaluate(ckpt, "offensive", 20, seed=1)
        for name in before:
            assert np.array_equal(ckpt.params[name], before[name])

    def test_zero_games_rejected(self):
        with pytest.raises(UsageError):
            evaluate(self.make_checkpoint(), "mixed", 0, seed=1)

    @pytest.mark.parametrize("n_games,seed,message", [
        (0, 1, "n_games must be at least 1"), (-3, 1, "n_games must be at least 1"),
        (5, -1, "seed must be >= 0, got -1")])
    @pytest.mark.parametrize("environment", ["soccer", "quizbowl"])
    def test_evaluation_functions_check_their_arguments(self, environment, n_games, seed,
                                                        message):
        with pytest.raises(UsageError, match=message):
            if environment == "soccer":
                agent = Agent(soccer_agent_spec("dqn"), seed=0)
                harness.evaluate_soccer(agent, "mixed", n_games, seed)
            else:
                agent = Agent(quiz_agent_spec("dron_moe"), seed=0)
                harness.evaluate_quiz(agent, "mixed", n_games, seed, qb.DEFAULT_QUIZ_CONFIG)

    def test_rates_sum_to_one(self):
        ckpt = self.make_checkpoint(seed=5)
        summary = evaluate(ckpt, "mixed", 60, seed=2)
        total = summary.win_rate + summary.tie_rate + summary.loss_rate
        assert total == pytest.approx(1.0)

    def test_soccer_traces_rejected(self):
        with pytest.raises(UsageError, match="quiz bowl only"):
            evaluate(self.make_checkpoint(), "mixed", 1, seed=1, trace_rows=[])

    def test_quiz_render_rejected(self):
        agent = Agent(quiz_agent_spec("dqn"), seed=0)
        ckpt = Checkpoint(agent_spec=agent.spec, params=agent.params, environment="quizbowl")
        with pytest.raises(UsageError, match="soccer only"):
            evaluate(ckpt, "mixed", 1, seed=1, render=True)

    def test_checkpoint_without_pool_plays_the_default_pool(self, tmp_path):
        # checkpoints written before the run's opponent_pool was stored
        agent = Agent(quiz_agent_spec("dron_moe"), seed=3)
        env_params = {"vocab": 50, "question_min": 60, "question_max": 120,
                      "belief_alpha": 8.0, "belief_kappa": 1.0}
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(Checkpoint(agent_spec=agent.spec, params=agent.params,
                                   environment="quizbowl", env_params=env_params), path)
        got = evaluate(load_checkpoint(path), "mixed", 20, seed=7)
        want = harness.evaluate_quiz(agent, "mixed", 20, 7, qb.QuizConfig(**env_params))
        assert qb.QuizConfig(**env_params).opponent_pool == 40
        assert got == want

    @pytest.mark.parametrize("keys", [0, 5], ids=["no_env_keys", "pre_pool_keys"])
    def test_in_memory_checkpoint_plays_as_saved_and_reloaded(self, tmp_path, keys):
        # a quiz key the dict lacks takes the default a load gives it
        agent = Agent(quiz_agent_spec("dron_moe"), seed=3)
        env_params = dict(list(harness.env_params_for(
            ExperimentConfig(environment="quizbowl", question_max=90)).items())[:keys])
        ckpt = Checkpoint(agent_spec=agent.spec, params=agent.params, environment="quizbowl",
                          env_params=env_params)
        path = str(tmp_path / "memory.ckpt")
        save_checkpoint(ckpt, path)
        got_rows, want_rows = [], []
        got = evaluate(ckpt, "mixed", 20, seed=7, trace_rows=got_rows)
        want = evaluate(load_checkpoint(path), "mixed", 20, seed=7, trace_rows=want_rows)
        assert got == want
        assert got_rows == want_rows


def per_game_soccer(agent, opponent, n_games, seed, render=False):
    """Reference for `evaluate_soccer`: the games one after another, one
    one-row `q_values` call per move, each board printed as it is played."""
    rewards = []
    for game in range(n_games):
        driver = harness.SoccerDriver(np.random.default_rng([seed, game]), opponent)
        done = False
        while not done:
            reward, done, _ = driver.step(int(np.argmax(agent.q_values(*driver.obs))))
            if render:
                print(soccer.render(driver.joint))
                print()
        rewards.append(reward)
    n = len(rewards)
    wins = sum(r > 0 for r in rewards)
    ties = sum(r == 0 for r in rewards)
    return harness.MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=ties / n, loss_rate=(n - wins - ties) / n,
    )


class RecordingAgent:
    """Scripted soccer agent: a fixed random linear map of every state and
    opponent feature, so that each feature can change its move. It records
    every (state, opponent) row it is shown, and scores a batch row by row,
    so a row gets the same values alone or in a batch."""

    spec = SimpleNamespace(kind="dron_concat")

    def __init__(self):
        rng = np.random.default_rng(0)
        self.ws = rng.normal(size=(15, 5))
        self.wo = rng.normal(size=(16, 5))
        self.rows = []

    def q_values(self, phi_s, phi_o):
        rows = list(zip(np.atleast_2d(phi_s), np.atleast_2d(phi_o)))
        self.rows += [s.tobytes() + o.tobytes() for s, o in rows]
        q = np.array([s @ self.ws + o @ self.wo for s, o in rows])
        return q if np.ndim(phi_s) == 2 else q[0]


class Shown:
    """An agent that records every (state, opponent) row it is shown; a call
    without opponent features records the state rows alone."""

    def __init__(self, agent):
        self.agent, self.spec, self.rows = agent, agent.spec, []

    def q_values(self, phi_s, phi_o=None):
        states = np.atleast_2d(phi_s)
        opponents = np.zeros((len(states), 0)) if phi_o is None else np.atleast_2d(phi_o)
        self.rows += [s.tobytes() + o.tobytes() for s, o in zip(states, opponents)]
        return self.agent.q_values(phi_s, phi_o)


@functools.lru_cache(maxsize=None)
def soccer_agent(kind, trained):
    """Initial parameters, or the parameters after one short training epoch."""
    if not trained:
        return Agent(soccer_agent_spec(kind), seed=4)
    config = parse_config(f"environment = soccer\nagent = {kind}\nepochs = 1\n"
                          "steps_per_epoch = 150\neval_games = 1\nreplay_min = 20\n")
    return train_run(config, seed=4).checkpoint.build_agent()


class TestSoccerDriverOpponentFeatures:
    """`SoccerDriver`'s opponent features against the straight-line
    reference in `soccer_reference`, at every step of random-action play."""

    @pytest.mark.parametrize("multitask", ["action", "type"])
    @pytest.mark.parametrize("opponent", ["offensive", "defensive", "mixed"])
    def test_equal_the_reference_bit_for_bit(self, monkeypatch, opponent, multitask):
        moves_b = []

        def recorded(*args, original=soccer.rule_agent):
            moves_b.append(original(*args))
            return moves_b[-1]

        monkeypatch.setattr(soccer, "rule_agent", recorded)
        driver = harness.SoccerDriver(np.random.default_rng(3), opponent, multitask)
        seen = []  # (category, action, lost ball) of B's moves this game
        games = 0
        for action in np.random.default_rng(4).integers(0, 5, size=1500).tolist():
            before, steps = driver.joint, driver.steps
            _, done, info = driver.step(action)
            cell_a, cell_b, holder = soccer.STATE_FIELDS[:, before].tolist()
            pos_a, pos_b = divmod(cell_a, ref.HEIGHT), divmod(cell_b, ref.HEIGHT)
            ball = "AB"[holder]
            category = ref.classify("B", pos_b, moves_b[-1], pos_a)
            next_ball = ref.reference_step(pos_a, pos_b, ball, steps, action, moves_b[-1])[2]
            seen.append((category, moves_b[-1], ball == "A" and next_ball == "B"))
            assert driver.obs[1].tobytes() == ref.opponent_features(seen).tobytes()
            if multitask == "action":
                assert info.supervision == ref.CATEGORIES.index(category)
            else:
                assert info.supervision == driver.mode
            if done:
                driver.reset()
                seen, games = [], games + 1
                assert driver.obs[1].tobytes() == ref.opponent_features(seen).tobytes()
        assert games >= 10


class TestSoccerDriver:
    def test_timeout_tie(self):
        # A holds the ball and stands; defensive B heads for its guard cell
        driver = harness.SoccerDriver(np.random.default_rng(0), "defensive")
        driver.joint = soccer.STATE_INDEX.item(soccer.index((2, 2)), soccer.index((6, 3)), 0)
        driver.steps = soccer.HORIZON - 1
        reward, done, _ = driver.step(soccer.STAND)
        assert reward == 0.0 and done and driver.done
        assert driver.steps == soccer.HORIZON

    def test_step_after_done_raises(self):
        driver = harness.SoccerDriver(np.random.default_rng(1), "mixed")
        done, moves = False, 0
        while not done:
            _, done, _ = driver.step(moves % len(soccer.ACTIONS))
            moves += 1
        assert moves <= soccer.HORIZON
        with pytest.raises(UsageError, match="cannot step a finished episode"):
            driver.step(soccer.STAND)
        driver.reset()
        assert driver.steps == 0 and not driver.done
        driver.step(soccer.STAND)


class TestLockstepSoccer:
    @pytest.mark.parametrize("trained", [False, True], ids=["initial", "trained"])
    @pytest.mark.parametrize("n_games", [1, 2, 14, 60])
    @pytest.mark.parametrize("kind", ["dqn", "dron_concat", "dron_moe"])
    def test_equals_per_game_play(self, kind, n_games, trained):
        agent = soccer_agent(kind, trained)
        got = harness.evaluate_soccer(agent, "mixed", n_games, seed=8)
        assert got == per_game_soccer(agent, "mixed", n_games, seed=8)
        assert got.games == n_games

    @pytest.mark.parametrize("opponent,n_games", [("offensive", 14), ("defensive", 14),
                                                  ("mixed", 200)])
    @pytest.mark.parametrize("kind", ["dqn", "dron_moe"])
    def test_equals_per_game_play_against_each_opponent(self, kind, opponent, n_games):
        agent = soccer_agent(kind, True)
        got = harness.evaluate_soccer(agent, opponent, n_games, seed=3)
        assert got == per_game_soccer(agent, opponent, n_games, seed=3)

    def test_equals_per_game_play_over_many_trained_games(self):
        # enough games of a trained agent that they end both ways, so that
        # every tie-break path of the vectorised draws shows; games of
        # initial parameters mostly time out
        agent = soccer_agent("dron_moe", True)
        lockstep, one_by_one = Shown(agent), Shown(agent)
        got = harness.evaluate_soccer(lockstep, "mixed", 500, seed=6)
        assert got == per_game_soccer(one_by_one, "mixed", 500, seed=6)
        assert got.loss_rate > 0.25 and got.tie_rate > 0.25
        assert sorted(lockstep.rows) == sorted(one_by_one.rows)

    @pytest.mark.parametrize("opponent", ["mixed", "offensive", "defensive"])
    def test_shows_the_agent_the_per_game_features(self, opponent):
        lockstep, one_by_one = RecordingAgent(), RecordingAgent()
        got = harness.evaluate_soccer(lockstep, opponent, 60, seed=2)
        assert got == per_game_soccer(one_by_one, opponent, 60, seed=2)
        # the same rows, met in step order instead of game order
        assert sorted(lockstep.rows) == sorted(one_by_one.rows)

    def test_render_prints_the_per_game_boards(self, tmp_path, capsys):
        agent = soccer_agent("dron_moe", True)
        path = str(tmp_path / "moe.ckpt")
        save_checkpoint(Checkpoint(agent_spec=agent.spec, params=agent.params,
                                   environment="soccer"), path)
        assert main(["eval", path, "--games", "2", "--seed", "5", "--render"]) == 0
        out = capsys.readouterr().out
        want = per_game_soccer(agent, "mixed", 2, seed=5, render=True)
        boards = capsys.readouterr().out
        assert boards.count("\n\n") >= 2  # at least one board per game
        assert out == boards + (
            f"games 2 mean_reward {want.mean_reward:+.4f}\n"
            f"win {want.win_rate:.4f} tie {want.tie_rate:.4f} loss {want.loss_rate:.4f}\n"
        )


class Watched:
    """A rule table that calls `hit` on every lookup."""

    def __init__(self, table, hit):
        self.table, self.hit = table, hit

    def __getitem__(self, key):
        self.hit()
        return self.table[key]

    def item(self, *key):
        self.hit()
        return self.table.item(*key)


def watch_opponent_work(monkeypatch, forbidden):
    """The names of the soccer opponent work used: move classification, the
    opponent tallies and the category table. With `forbidden`, any of them
    raises."""
    used = set()

    def hit(name):
        if forbidden:
            raise AssertionError(f"{name} computed for an agent without an opponent tower")
        used.add(name)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            hit(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(soccer, "OpponentTallies",
                        counted("OpponentTallies", soccer.OpponentTallies))
    monkeypatch.setattr(soccer, "MOVE_CATEGORY",
                        Watched(soccer.MOVE_CATEGORY, lambda: hit("categories")))
    return used


class TestOpponentWorkFollowsTheAgentKind:
    """A `dqn` agent has no opponent tower, so nothing computes what it would
    read there; the DRON kinds still get every opponent feature."""

    @pytest.mark.parametrize("kind", ["dqn", "dron_concat"])
    def test_soccer_training(self, monkeypatch, kind):
        config = parse_config(f"environment = soccer\nagent = {kind}\nepochs = 1\n"
                              "steps_per_epoch = 120\neval_games = 3\nreplay_min = 20\n")
        used = watch_opponent_work(monkeypatch, forbidden=kind == "dqn")
        train_run(config, seed=1)
        if kind != "dqn":
            assert used == {"OpponentTallies", "categories"}

    @pytest.mark.parametrize("kind", ["dqn", "dron_concat"])
    def test_soccer_evaluation(self, monkeypatch, kind):
        agent = soccer_agent(kind, False)
        used = watch_opponent_work(monkeypatch, forbidden=kind == "dqn")
        harness.evaluate_soccer(agent, "mixed", 14, seed=2)
        if kind != "dqn":
            assert used == {"OpponentTallies", "categories"}

    @pytest.mark.parametrize("kind", ["dqn", "dron_concat"])
    def test_quiz_training_and_evaluation(self, monkeypatch, kind):
        config = parse_config(f"environment = quizbowl\nagent = {kind}\nepochs = 1\n"
                              "steps_per_epoch = 120\neval_games = 3\nreplay_min = 20\n")
        calls = []

        def opponent_features(profile, original=qb.opponent_features):
            assert kind != "dqn", "opponent features computed for a dqn agent"
            calls.append(profile)
            return original(profile)

        monkeypatch.setattr(qb, "opponent_features", opponent_features)
        train_run(config, seed=1)
        assert bool(calls) == (kind != "dqn")

    # (config, state and opponent columns of each replay row): the state,
    # opponent, next state and next opponent, then three scalars per row and
    # the supervision target in a run with a multitask head
    REPLAY_RUNS = {
        "soccer-dqn": ("environment = soccer\nagent = dqn\n", 15, 0),
        "soccer-concat": ("environment = soccer\nagent = dron_concat\n", 15, 16),
        "soccer-concat-action": ("environment = soccer\nagent = dron_concat\n"
                                 "multitask = action\n", 15, 16),
        "quiz-dqn": ("environment = quizbowl\nagent = dqn\n", 102, 0),
        "quiz-self-dqn": ("environment = quizbowl\nagent = dqn\nopponent = self\n", 102, 0),
        "quiz-moe": ("environment = quizbowl\nagent = dron_moe\n", 102, 3),
        "quiz-moe-type": ("environment = quizbowl\nagent = dron_moe\nmultitask = type\n",
                          102, 3),
    }

    @pytest.mark.parametrize("name", list(REPLAY_RUNS))
    def test_replay_rows_hold_opponent_columns_for_dron_only(self, monkeypatch, name):
        text, state_dim, opponent_dim = self.REPLAY_RUNS[name]
        buffers = []

        class Recorded(rl.ReplayBuffer):
            def __init__(self, capacity):
                super().__init__(capacity)
                buffers.append(self)

        monkeypatch.setattr(rl, "ReplayBuffer", Recorded)
        train_run(parse_config(text + "epochs = 1\nsteps_per_epoch = 40\neval_games = 1\n"
                                      "replay_min = 20\n"), seed=1)
        (buffer,) = buffers
        assert len(buffer) == 40
        batch = buffer.sample(40, np.random.default_rng(0))
        assert batch.opponent.shape == batch.next_opponent.shape == (40, opponent_dim)
        supervised = "multitask" in text
        assert (batch.supervision is None) == (not supervised)
        # soccer dqn 33, concat 65, concat with a head 66
        assert batch.rows.shape[1] == 2 * (state_dim + opponent_dim) + 3 + supervised

    def test_quiz_driver_records_every_buzz_without_features(self):
        # the same game with and without opponent features: the same steps,
        # states and buzz histories, and an empty opponent observation
        drivers = [harness.QuizDriver(np.random.default_rng(1), qb.DEFAULT_QUIZ_CONFIG,
                                      harness._population("mixed", 3, 5), sees_opponent=sees)
                   for sees in (True, False)]
        buzz = np.random.default_rng(2).random(3000) < 0.02
        for action in np.where(buzz, qb.BUZZ, qb.WAIT).tolist():
            seen, blind = (driver.step(action) for driver in drivers)
            assert seen == blind
            assert np.array_equal(drivers[0].obs[0], drivers[1].obs[0])
            assert drivers[0].obs[1].shape == (3,) and drivers[1].obs[1].shape == (0,)
            if seen[1]:
                for driver in drivers:
                    driver.reset()
        histories = [[(p.games, p.frac_sum, p.error_sum) for p in driver.population]
                     for driver in drivers]
        assert histories[0] == histories[1]
        assert sum(games for games, _, _ in histories[0]) > 10


# A run's last per-epoch evaluation and an evaluation of its checkpoint with
# the same eval seed play the same games: with the run's opponent pool, and
# against mixed opponents after self-play.
CHECKPOINT_EVAL_RUNS = {
    "soccer-dqn": "environment = soccer\nagent = dqn\n",
    "quiz-moe-pool3": "environment = quizbowl\nagent = dron_moe\nopponent_pool = 3\n",
    "quiz-self-dqn": "environment = quizbowl\nagent = dqn\nopponent = self\n",
}


@pytest.mark.parametrize("name", list(CHECKPOINT_EVAL_RUNS))
def test_checkpoint_evaluates_like_the_last_epoch(tmp_path, name):
    config = parse_config(CHECKPOINT_EVAL_RUNS[name] + "epochs = 2\nsteps_per_epoch = 60\n"
                          "eval_games = 30\nreplay_min = 20\nseeds = 1\n")
    (result,) = train(config, output_dir=str(tmp_path))
    eval_key = [1, harness._STREAM_EVAL, config.epochs]
    eval_seed = int(np.random.SeedSequence(eval_key).generate_state(1)[0])
    summary = evaluate(load_checkpoint(result.checkpoint_path), "mixed", config.eval_games,
                       eval_seed)
    assert summary == result.epoch_metrics[-1]


class BuzzAt:
    """Scripted quiz agent: waits until more than a share of the question is
    read, then buzzes. It scores one observation or a batch, row by row."""

    spec = SimpleNamespace(kind="dqn")

    def __init__(self, fraction):
        self.fraction = fraction

    def q_values(self, phi_s, phi_o=None):
        read = np.asarray(phi_s)[..., -2:-1]  # featurize: ..., t / length, agent locked
        return np.where(read > self.fraction, [0.0, 1.0], [1.0, 0.0])


class TestEvaluateQuiz:
    def test_rush_counts_every_wrong_buzz(self):
        # A wrong buzz scores -5, or -15 when the opponent also answers
        # correctly, on the same word or later. Each such game is a rush.
        rows = []
        summary = harness.evaluate_quiz(BuzzAt(0.3), "mixed", 1000, 0,
                                        qb.DEFAULT_QUIZ_CONFIG, trace_rows=rows)
        wrong = sum(row["reward"] in (-5.0, -15.0) for row in rows)
        assert summary.rush_rate == wrong / len(rows)

    # With belief_alpha = +-1000 the answer's logit moves by at least 1000/120
    # from word 1 on, so from there the belief is always right (alpha > 0) or
    # never right (alpha < 0). BuzzAt(0.0) buzzes on word 1, before any
    # opponent can, and BuzzAt(1.0) never buzzes.

    def test_correct_buzz_is_neither_rush_nor_miss(self):
        summary = harness.evaluate_quiz(BuzzAt(0.0), "mixed", 30, 0, qb.QuizConfig(belief_alpha=1000.0))
        assert summary == harness.MetricsSummary(mean_reward=10.0, games=30, win_rate=1.0)

    def test_wrong_buzz_is_rush(self):
        summary = harness.evaluate_quiz(BuzzAt(0.0), "mixed", 30, 0,
                                        qb.QuizConfig(belief_alpha=-1000.0))
        assert summary.rush_rate == 1.0 and summary.win_rate == 0.0

    def test_waiting_past_correct_belief_is_miss(self):
        summary = harness.evaluate_quiz(BuzzAt(1.0), "mixed", 30, 0, qb.QuizConfig(belief_alpha=1000.0))
        assert summary.miss_rate == 1.0 and summary.rush_rate == 0.0


def per_word_quiz(agent, opponent, n_games, seed, quiz_cfg, trace_rows=None, shown=None):
    """Reference for `evaluate_quiz`: every game played word by word to its
    end, one after another, one one-row `q_values` call per word, after a
    lockout too. `shown`, when given, gets the (state, opponent) row of each
    decision before a lockout, the opponent part only for an agent with an
    opponent tower."""
    if opponent == "self":
        raise UsageError("evaluation always runs against a real opponent pool")
    population = harness._population(opponent, seed, quiz_cfg.opponent_pool)
    rewards = []
    rushes = misses = wins = losses = 0
    for game in range(n_games):
        driver = harness.QuizDriver(np.random.default_rng([seed, game]), quiz_cfg, population)
        total = 0.0
        buzz_t = -1
        buzz_correct = saw_answer = opponent_won = done = False
        while not done:
            state = driver.state
            action = int(np.argmax(agent.q_values(*driver.obs)))
            right = qb.belief_correct(state)
            if not state.agent_locked:  # a locked-out agent's decisions count for nothing
                if shown is not None:
                    sees = has_opponent_tower(agent.spec.kind)
                    phi_o = driver.obs[1] if sees else harness.NO_OPPONENT
                    shown.append(driver.obs[0].tobytes() + phi_o.tobytes())
                saw_answer = saw_answer or right
                if action == qb.BUZZ:
                    buzz_t, buzz_correct = state.t, right
            reward, done, info = driver.step(action)
            total += reward
            opponent_won = opponent_won or info.opponent_won
        rewards.append(total)
        rushes += buzz_t >= 0 and not buzz_correct
        misses += saw_answer and not buzz_correct
        wins += buzz_correct
        losses += opponent_won
        if trace_rows is not None:
            trace_rows.append({
                "game": game,
                "length": driver.state.length,
                "opponent_mean_buzz_frac": driver.profile.mean_buzz_frac,
                "opponent_buzz_pos": driver.state.opponent_buzz_pos,
                "agent_buzz_pos": buzz_t,
                "agent_buzz_correct": int(buzz_correct),
                "reward": total,
            })
    n = len(rewards)
    return harness.MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=(n - wins - losses) / n, loss_rate=losses / n,
        rush_rate=rushes / n, miss_rate=misses / n,
    )


@functools.lru_cache(maxsize=None)
def quiz_agent(name):
    """A learned agent, `<kind>-initial` or `<kind>-trained` (one short
    epoch), or a scripted one: buzz after 30% or 60% of the question, or
    never."""
    scripted = {"buzz-0.3": BuzzAt(0.3), "buzz-0.6": BuzzAt(0.6), "never": BuzzAt(1.0)}
    if name in scripted:
        return scripted[name]
    kind, params = name.split("-")
    if params == "initial":
        return Agent(quiz_agent_spec(kind), seed=4)
    config = parse_config(f"environment = quizbowl\nagent = {kind}\nepochs = 1\n"
                          "steps_per_epoch = 150\neval_games = 1\nreplay_min = 20\n")
    return train_run(config, seed=4).checkpoint.build_agent()


QUIZ_AGENTS = [f"{kind}-{params}" for kind in ("dqn", "dron_concat", "dron_moe")
               for params in ("initial", "trained")] + ["buzz-0.3", "buzz-0.6", "never"]


class CountingAgent:
    """Counts the Q-value calls of the agent it wraps and the rows they score."""

    def __init__(self, agent):
        self.agent = agent
        self.spec = agent.spec
        self.calls = self.rows = 0

    def q_values(self, phi_s, phi_o=None):
        self.calls += 1
        self.rows += len(np.atleast_2d(phi_s))
        return self.agent.q_values(phi_s, phi_o)


class TestLockoutQuiz:
    @pytest.mark.parametrize("n_games", [1, 40])
    @pytest.mark.parametrize("opponent", ["mixed", "type1", "type4"])
    @pytest.mark.parametrize("name", QUIZ_AGENTS)
    def test_equals_per_word_play(self, name, opponent, n_games):
        agent = quiz_agent(name)
        got_rows, want_rows = [], []
        got = harness.evaluate_quiz(agent, opponent, n_games, 6, qb.DEFAULT_QUIZ_CONFIG,
                                    trace_rows=got_rows)
        want = per_word_quiz(agent, opponent, n_games, 6, qb.DEFAULT_QUIZ_CONFIG,
                             trace_rows=want_rows)
        assert got == want
        assert got_rows == want_rows

    def test_scripted_agents_cover_lockouts(self):
        def rush_rate(name):
            agent = quiz_agent(name)
            return harness.evaluate_quiz(agent, "mixed", 40, 6, qb.DEFAULT_QUIZ_CONFIG).rush_rate
        assert rush_rate("buzz-0.3") > 0
        assert rush_rate("never") == 0

    def test_no_agent_call_after_a_lockout(self):
        # buzzing on word 0 wins or locks the agent out: one row per game; a
        # dqn agent reads no history, so every game is in the first call
        agent = CountingAgent(BuzzAt(-1.0))
        summary = harness.evaluate_quiz(agent, "mixed", 30, 2, qb.DEFAULT_QUIZ_CONFIG)
        assert summary.rush_rate > 0
        assert (agent.calls, agent.rows) == (1, 30)


class TestLockstepQuizOrder:
    """Lockstep quiz evaluation keeps each opponent's games in game order:
    only the opponent features read a buzz history, so a game of an agent
    with an opponent tower starts once the previous game against the same
    opponent has ended. Small pools make long chains of such games; a pool of
    one opponent plays its games one after another."""

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    @pytest.mark.parametrize("name", QUIZ_AGENTS)
    def test_equals_per_word_play_on_small_pools(self, name, pool_size):
        agent = quiz_agent(name)
        lockstep = Shown(agent)
        got_rows, want_rows, want_shown = [], [], []
        quiz_cfg = qb.QuizConfig(opponent_pool=pool_size)
        got = harness.evaluate_quiz(lockstep, "type2", 200, 3, quiz_cfg, trace_rows=got_rows)
        want = per_word_quiz(agent, "type2", 200, 3, quiz_cfg, trace_rows=want_rows,
                             shown=want_shown)
        assert got == want
        assert got_rows == want_rows
        # the same (state, opponent) rows, met in lockstep order
        assert sorted(lockstep.rows) == sorted(want_shown)

    def test_one_opponent_plays_one_game_at_a_time(self):
        agent = CountingAgent(quiz_agent("dron_moe-trained"))
        decisions = []
        quiz_cfg = qb.QuizConfig(opponent_pool=1)
        got = harness.evaluate_quiz(agent, "type2", 20, 4, quiz_cfg)
        want = per_word_quiz(agent.agent, "type2", 20, 4, quiz_cfg, shown=decisions)
        assert got == want
        assert agent.calls == agent.rows == len(decisions) > 20


@settings(max_examples=200, deadline=None)
@given(length=st.integers(1, 25), data=st.data(), opponent_correct=st.booleans(),
       opponent_locked=st.booleans(), action=st.sampled_from([qb.WAIT, qb.BUZZ]),
       history=st.tuples(st.integers(0, 5), st.floats(0.0, 5.0), st.floats(0.0, 5.0)))
def test_finish_equals_stepping_to_the_end(length, data, opponent_correct, opponent_locked,
                                           action, history):
    lockout = data.draw(st.integers(0, length), label="lockout word")
    buzz_pos = data.draw(st.integers(1, length), label="opponent buzz word")
    cfg = qb.DEFAULT_QUIZ_CONFIG
    uniform = np.full(cfg.vocab, -np.log(cfg.vocab))
    drivers = []
    for _ in range(2):
        profile = qb.OpponentProfile(0.5, 0.1, 0.7, *history)
        driver = harness.QuizDriver(np.random.default_rng(0), cfg, (profile,))
        driver.state = qb.QuizState(
            t=lockout, length=length, answer=0, belief=uniform, prev_belief=uniform,
            agent_locked=True, opponent_locked=opponent_locked,
            opponent_buzz_pos=buzz_pos, opponent_correct=opponent_correct)
        drivers.append(driver)
    stepped, finished = drivers
    total, won, done = 0.0, False, False
    while not done:
        reward, done, info = stepped.step(action)
        total += reward
        won = won or info.opponent_won
    rng_state = finished.rng.bit_generator.state
    assert finished.finish() == (total, won)
    assert finished.rng.bit_generator.state == rng_state
    for name in ("games", "frac_sum", "error_sum"):
        assert getattr(finished.profile, name) == getattr(stepped.profile, name)
    assert finished.state.done
    assert finished.state.opponent_locked == stepped.state.opponent_locked
    with pytest.raises(UsageError):
        finished.step(qb.WAIT)


class TestSelfPlayDriver:
    """Opponent-free quiz bowl: every word is a one-step episode paid the
    shaped reward, and the question running out ends the game."""

    def test_steps_pay_the_shaped_reward_until_the_last_word(self):
        driver = harness.SelfPlayDriver(np.random.default_rng(4), qb.DEFAULT_QUIZ_CONFIG)
        actions = np.where(np.random.default_rng(5).random(400) < 0.3, qb.BUZZ, qb.WAIT)
        episodes = 0
        for action in actions.tolist():
            state = driver.state
            assert np.array_equal(driver.obs[0], qb.featurize(state))
            assert driver.obs[1].shape == (0,)
            reward, done, info = driver.step(action)
            assert reward == qb.dqnself_reward(action == qb.BUZZ, qb.belief_correct(state))
            assert done == (state.t == state.length)
            assert info == harness.StepInfo()
            assert driver.obs[1].shape == (0,)
            if done:
                episodes += 1
                driver.reset()
                assert driver.state.t == 0
            else:  # a buzz, right or wrong, does not end the game
                assert driver.state.t == state.t + 1
        assert episodes >= 3

    def test_every_transition_is_terminal(self, monkeypatch):
        assert harness.SelfPlayDriver.bootstrap is False
        buffers = []

        class Recorded(rl.ReplayBuffer):
            def __init__(self, capacity):
                super().__init__(capacity)
                buffers.append(self)

        monkeypatch.setattr(rl, "ReplayBuffer", Recorded)
        train_run(parse_config("environment = quizbowl\nagent = dqn\nopponent = self\n"
                               "epochs = 1\nsteps_per_epoch = 150\neval_games = 1\n"
                               "replay_min = 200\n"), seed=1)
        (buffer,) = buffers
        assert len(buffer) == 150
        # 6000 draws miss a given one of the 150 rows with probability e^-40
        assert buffer.sample(6000, np.random.default_rng(0)).terminal.all()


class TestSweep:
    def test_bookkeeping_and_ci(self, tmp_path):
        cfg = parse_config(
            "environment = soccer\nagent = dron_moe\nepochs = 1\n"
            "steps_per_epoch = 60\neval_games = 5\nreplay_min = 30\nseeds = 1,2\n"
        )
        points = sweep_experts(cfg, [2, 3], output_dir=str(tmp_path))
        assert [p.experts for p in points] == [2, 3]
        assert all(len(p.seed_means) == 2 for p in points)
        text = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert text[0] == "experts,mean_reward,ci_halfwidth,seeds,degenerate"
        assert len(text) == 3
        # closed-form CI half-width
        import math
        p = points[0]
        mean = sum(p.seed_means) / 2
        sd = math.sqrt(sum((v - mean) ** 2 for v in p.seed_means))  # ddof=1, n=2
        assert p.ci_halfwidth == pytest.approx(1.645 * sd / math.sqrt(2), abs=1e-9)

    def test_every_run_is_kept(self, tmp_path, capsys):
        cfg = parse_config(
            "environment = soccer\nagent = dron_moe\nepochs = 2\n"
            "steps_per_epoch = 60\neval_games = 5\nreplay_min = 30\nseeds = 1,2\n"
        )
        reported = []
        points = sweep_experts(cfg, [2, 3], output_dir=str(tmp_path),
                               progress=lambda *args: reported.append(args[:3]))
        assert reported == [(k, s, e) for k in (2, 3) for s in (1, 2) for e in (1, 2)]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["experts2", "experts3",
                                                               "sweep.csv"]
        for p in points:
            runs = tmp_path / f"experts{p.experts}"
            assert sorted(f.name for f in runs.iterdir()) == [
                "checkpoint_seed1.ckpt", "checkpoint_seed2.ckpt",
                "curve_seed1.csv", "curve_seed2.csv"]
            for seed, seed_mean in zip(cfg.seeds, p.seed_means):
                rows = (runs / f"curve_seed{seed}.csv").read_text().splitlines()[1:]
                rewards = [float(row.split(",")[1]) for row in rows]
                assert len(rewards) == 2
                assert seed_mean == pytest.approx(np.mean(rewards), abs=1e-6)
                ckpt = load_checkpoint(str(runs / f"checkpoint_seed{seed}.ckpt"))
                assert ckpt.agent_spec.experts == p.experts
        capsys.readouterr()
        assert main(["ttest", str(tmp_path / "experts2" / "curve_seed1.csv"),
                     str(tmp_path / "experts3" / "curve_seed1.csv")]) == 0
        assert capsys.readouterr().out.startswith("n 2 pairs")

    def test_sweep_csv_is_replaced_not_written_through(self, tmp_path):
        base = ("environment = soccer\nagent = dron_moe\nepochs = 1\n"
                "steps_per_epoch = 60\neval_games = 5\nreplay_min = 30\n")
        run, fresh = tmp_path / "run", tmp_path / "fresh"
        sweep_experts(parse_config(base + "seeds = 1,2\n"), [2, 3], output_dir=str(run))
        first = (run / "sweep.csv").read_bytes()
        os.link(run / "sweep.csv", tmp_path / "link_sweep.csv")
        cfg = parse_config(base + "seeds = 1\n")
        sweep_experts(cfg, [2, 3], output_dir=str(run))
        sweep_experts(cfg, [2, 3], output_dir=str(fresh))
        assert (tmp_path / "link_sweep.csv").read_bytes() == first
        assert (run / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes() != first

    def test_single_seed_degenerate(self, tmp_path):
        cfg = parse_config(
            "environment = soccer\nagent = dron_moe\nepochs = 1\n"
            "steps_per_epoch = 60\neval_games = 5\nreplay_min = 30\nseeds = 1\n"
        )
        points = sweep_experts(cfg, [2], output_dir=str(tmp_path))
        assert points[0].degenerate
        assert points[0].ci_halfwidth == 0.0

    def test_bad_count_fails_before_any_run(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train_run called")
        monkeypatch.setattr(harness, "train_run", no_training)
        cfg = parse_config("environment = soccer\nagent = dron_moe\nseeds = 1\n")
        with pytest.raises(ConfigurationError, match="experts must be >= 1 for dron_moe, got 0"):
            sweep_experts(cfg, [2, 0], output_dir=str(tmp_path))
        assert not (tmp_path / "sweep.csv").exists()


# One tiny 2-epoch run per driver branch. The hashes pin every CSV and
# checkpoint byte, so a change that is meant to keep the output identical
# must leave them alone. They depend on the platform and the BLAS (recorded
# on x86-64 Linux with numpy's OpenBLAS); on another stack re-record them
# from the code the change starts from.
GOLDEN_BASE = """
epochs = 2
steps_per_epoch = 60
eval_games = 5
replay_min = 20
seeds = 1
"""

GOLDEN_RUNS = {
    "soccer-dqn": "environment = soccer\nagent = dqn\n",
    "soccer-moe-action": "environment = soccer\nagent = dron_moe\nmultitask = action\n",
    "soccer-concat-type-defensive": (
        "environment = soccer\nagent = dron_concat\nmultitask = type\nopponent = defensive\n"
    ),
    "quiz-moe-type": "environment = quizbowl\nagent = dron_moe\nmultitask = type\n",
    "quiz-concat-action": "environment = quizbowl\nagent = dron_concat\nmultitask = action\n",
    "quiz-self-dqn": "environment = quizbowl\nagent = dqn\nopponent = self\n",
}

GOLDEN_HASHES = {
    "soccer-dqn": "21cf5ea9a5b600f36e819d1ad5defd924bfb0df3133ef5ef0a92454548d82140",
    "soccer-moe-action": "abbbaefc275daf76ad3484ea4a70f4a671a7f09f6bc7d3a620f96e3a3153ac00",
    "soccer-concat-type-defensive": "91025dfced3c1d1f2123f6e29792ecc13193307df622f5a096212a8c0dc4b175",
    "quiz-moe-type": "22d7dd4555788251400b1214e1f58ef573fccba91538fe3f10acba99d1e03a63",
    "quiz-concat-action": "5e9abf1d6306b4eaceb25d3d1a7b6ba02ea2815df2dd8ecedc3659eb5cc08aea",
    "quiz-self-dqn": "71f8257adff203b8ea1ed195dfe228005a54e6877139afd53db8794c8cc5d7f4",
    "eval-soccer": "9bad19842d591f4fede3f7e684a736846c28c588bd20d7dc72fa2ad1d9ab4606",
    "eval-quiz-traces": "348fac580cb9d2d38a5ad424cdd93f35414c5c4730d42b9d69f0c01ccf865e41",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The checkpoint file bytes of each run, as version 2 writes them.
GOLDEN_V2_HASHES = {
    "soccer-dqn": "67679c4ea762620f8149cd37115af11e070f8621ae6068a400a4848fd79511e0",
    "soccer-moe-action": "e28cdddfcc242ade436cfcd1def7702df36817a62f3d80612b724cbb811a27ae",
    "soccer-concat-type-defensive": "1285de088382e05a8411c7b9596330fa5f275f9e4e23cbfa0bf7560b87d6d69b",
    "quiz-moe-type": "e871872e69257a57af431e706d258b2eb0172d030d0501c9cf7b18f0116c2931",
    "quiz-concat-action": "de7a1df361aca36c61aa1b25829f4dacd892817cec3c77139440b4e305dfd4b0",
    "quiz-self-dqn": "f4d9c8a70df03a3c03a2fdceb90a42e40fab35e9c597ed3fae63a8a729e9f395",
}


def test_golden_hashes(tmp_path):
    # GOLDEN_HASHES pin the CSV and the version 1 checkpoint text, which the
    # reference writer rebuilds from the reloaded version 2 file: so the
    # parameters are bit-identical across the formats. GOLDEN_V2_HASHES pin
    # the version 2 file itself.
    got, got_v2 = {}, {}
    for name, text in GOLDEN_RUNS.items():
        (result,) = train(parse_config(GOLDEN_BASE + text), output_dir=str(tmp_path / name))
        with open(result.curve_path, "rb") as fh:
            data = fh.read()
        with open(result.checkpoint_path, "rb") as fh:
            got_v2[name] = _sha256(fh.read())
        data += v1_text(load_checkpoint(result.checkpoint_path)).encode()
        got[name] = _sha256(data)
    soccer = load_checkpoint(str(tmp_path / "soccer-dqn" / "checkpoint_seed1.ckpt"))
    got["eval-soccer"] = _sha256(repr(evaluate(soccer, "mixed", 40, seed=4)).encode())
    quiz = load_checkpoint(str(tmp_path / "quiz-moe-type" / "checkpoint_seed1.ckpt"))
    rows = []
    summary = evaluate(quiz, "mixed", 40, seed=4, trace_rows=rows)
    got["eval-quiz-traces"] = _sha256(repr((summary, rows)).encode())
    assert got == GOLDEN_HASHES
    assert got_v2 == GOLDEN_V2_HASHES
