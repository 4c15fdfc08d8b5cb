import functools
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from dron import harness
from dron import quizbowl as qb
from dron import soccer
from dron.agents import Agent, quiz_agent_spec, soccer_agent_spec
from dron.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dron.cli import main
from dron.config import parse_config
from dron.errors import UsageError
from dron.harness import evaluate, sweep_experts, train, train_run

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
        want = harness.evaluate_quiz(agent, "mixed", 20, 7, harness.quiz_config_for(env_params),
                                     pool_size=40)
        assert got == want


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
                print(soccer.render(driver.state, driver.cfg))
                print()
        rewards.append(reward)
    n = len(rewards)
    wins = sum(r > 0 for r in rewards)
    ties = sum(r == 0 for r in rewards)
    return harness.MetricsSummary(
        mean_reward=float(np.mean(rewards)), games=n,
        win_rate=wins / n, tie_rate=ties / n, loss_rate=(n - wins - ties) / n,
    )


@functools.lru_cache(maxsize=None)
def soccer_agent(kind, trained):
    """Initial parameters, or the parameters after one short training epoch."""
    if not trained:
        return Agent(soccer_agent_spec(kind), seed=4)
    config = parse_config(f"environment = soccer\nagent = {kind}\nepochs = 1\n"
                          "steps_per_epoch = 150\neval_games = 1\nreplay_min = 20\n")
    return train_run(config, seed=4).checkpoint.build_agent()


class TestLockstepSoccer:
    @pytest.mark.parametrize("trained", [False, True], ids=["initial", "trained"])
    @pytest.mark.parametrize("n_games", [1, 2, 14, 60])
    @pytest.mark.parametrize("kind", ["dqn", "dron_concat", "dron_moe"])
    def test_equals_per_game_play(self, kind, n_games, trained):
        agent = soccer_agent(kind, trained)
        got = harness.evaluate_soccer(agent, "mixed", n_games, seed=8)
        assert got == per_game_soccer(agent, "mixed", n_games, seed=8)
        assert got.games == n_games

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
    read, then buzzes."""

    spec = SimpleNamespace(kind="dqn")

    def __init__(self, fraction):
        self.fraction = fraction

    def q_values(self, phi_s, phi_o=None):
        read = phi_s[-2]  # featurize: ..., t / length, agent locked
        return np.array([0.0, 1.0]) if read > self.fraction else np.array([1.0, 0.0])


class TestEvaluateQuiz:
    def test_rush_counts_every_wrong_buzz(self):
        # A wrong buzz scores -5, or -15 when the opponent also answers
        # correctly, on the same word or later. Each such game is a rush.
        rows = []
        summary = harness.evaluate_quiz(BuzzAt(0.3), "mixed", 1000, 0,
                                        qb.DEFAULT_QUIZ_CONFIG, trace_rows=rows)
        wrong = sum(row["reward"] in (-5.0, -15.0) for row in rows)
        assert summary.rush_rate == wrong / len(rows)


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

    def test_single_seed_degenerate(self, tmp_path):
        cfg = parse_config(
            "environment = soccer\nagent = dron_moe\nepochs = 1\n"
            "steps_per_epoch = 60\neval_games = 5\nreplay_min = 30\nseeds = 1\n"
        )
        points = sweep_experts(cfg, [2], output_dir=str(tmp_path))
        assert points[0].degenerate
        assert points[0].ci_halfwidth == 0.0


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


def test_golden_hashes(tmp_path):
    got = {}
    for name, text in GOLDEN_RUNS.items():
        (result,) = train(parse_config(GOLDEN_BASE + text), output_dir=str(tmp_path / name))
        with open(result.curve_path, "rb") as fh:
            data = fh.read()
        with open(result.checkpoint_path, "rb") as fh:
            data += fh.read()
        got[name] = _sha256(data)
    soccer = load_checkpoint(str(tmp_path / "soccer-dqn" / "checkpoint_seed1.ckpt"))
    got["eval-soccer"] = _sha256(repr(evaluate(soccer, "mixed", 40, seed=4)).encode())
    quiz = load_checkpoint(str(tmp_path / "quiz-moe-type" / "checkpoint_seed1.ckpt"))
    rows = []
    summary = evaluate(quiz, "mixed", 40, seed=4, trace_rows=rows)
    got["eval-quiz-traces"] = _sha256(repr((summary, rows)).encode())
    assert got == GOLDEN_HASHES
