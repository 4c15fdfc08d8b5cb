"""The `dron` subcommands, run through `cli.main` on tiny configs."""

import pytest

from dron.cli import main

TINY = {
    "soccer": "environment = soccer\nagent = dqn\n",
    "quizbowl": "environment = quizbowl\nagent = dron_moe\nopponent_pool = 3\n",
}
TINY_BASE = "epochs = 1\nsteps_per_epoch = 40\neval_games = 3\nreplay_min = 20\nseeds = 1\n"


def _train(tmp_path, monkeypatch, environment):
    """Train the tiny config of an environment; returns its checkpoint path."""
    config = tmp_path / f"{environment}.cfg"
    config.write_text(TINY[environment] + TINY_BASE)
    out = tmp_path / "out"
    monkeypatch.setenv("DRON_OUTPUT_DIR", str(out))
    assert main(["train", str(config)]) == 0
    assert (out / "curve_seed1.csv").exists()
    return str(out / "checkpoint_seed1.ckpt")


@pytest.mark.parametrize("environment", list(TINY))
def test_train_then_eval(tmp_path, monkeypatch, capsys, environment):
    checkpoint = _train(tmp_path, monkeypatch, environment)
    capsys.readouterr()
    assert main(["eval", checkpoint, "--games", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("games 4 mean_reward ")
    assert ("rush " in out) == (environment == "quizbowl")


def test_quiz_traces_one_row_per_game(tmp_path, monkeypatch):
    checkpoint = _train(tmp_path, monkeypatch, "quizbowl")
    traces = tmp_path / "traces.csv"
    assert main(["eval", checkpoint, "--games", "4", "--traces", str(traces)]) == 0
    lines = traces.read_text().splitlines()
    assert lines[0] == ("game,length,opponent_mean_buzz_frac,opponent_buzz_pos,"
                        "agent_buzz_pos,agent_buzz_correct,reward")
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]


def test_soccer_traces_rejected(tmp_path, monkeypatch, capsys):
    checkpoint = _train(tmp_path, monkeypatch, "soccer")
    traces = tmp_path / "traces.csv"
    capsys.readouterr()
    assert main(["eval", checkpoint, "--games", "2", "--traces", str(traces)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not traces.exists()


def test_ttest_on_two_curves(tmp_path, capsys):
    header = "epoch,mean_reward,rush,miss,win,tie\n"
    for name, rewards in (("a", (1.0, 2.0, 3.0)), ("b", (0.5, 1.0, 2.5))):
        rows = "".join(f"{i},{r:.6f},0,0,0,0\n" for i, r in enumerate(rewards, start=1))
        (tmp_path / f"{name}.csv").write_text(header + rows)
    assert main(["ttest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
    out = capsys.readouterr().out.splitlines()
    # differences 0.5, 1, 0.5: mean 2/3, standard error 1/6
    assert out[0].startswith("n 3 pairs")
    assert out[1].startswith("t 4 df 2 ")


def test_bad_config_names_its_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("epochs = 2\nbatch_size = 0\n")
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == "error: line 2: batch_size must be >= 1, got 0\n"


def test_gradcheck_one_trial():
    assert main(["gradcheck", "--trials", "1"]) == 0


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("epoch,mean_reward\n1,abc\n", 2),
    ("epoch,mean_reward\n1,0.5\n\n1\n", 4),
], ids=["empty", "non_numeric", "short_row"])
def test_ttest_bad_csv_names_its_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    good.write_text("epoch,mean_reward\n1,0.5\n2,0.7\n")
    assert main(["ttest", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("experts", ["2,x", "2,"])
def test_sweep_bad_expert_list(tmp_path, capsys, experts):
    config = tmp_path / "soccer.cfg"
    config.write_text(TINY["soccer"] + TINY_BASE)
    assert main(["sweep", str(config), "--experts", experts]) == 2
    assert capsys.readouterr().err.startswith(f"error: --experts {experts!r}: ")


def test_sweep_one_row_per_expert_count(tmp_path, monkeypatch, capsys):
    config = tmp_path / "soccer.cfg"
    config.write_text(TINY["soccer"] + TINY_BASE)
    out = tmp_path / "out"
    monkeypatch.setenv("DRON_OUTPUT_DIR", str(out))
    assert main(["sweep", str(config), "--experts", "1,2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "experts,mean_reward,ci_halfwidth,seeds,degenerate"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    assert all(line.endswith(",1,1") for line in lines[1:])  # one seed: degenerate
    assert capsys.readouterr().out.splitlines()[-1] == f"sweep CSV in {out}/sweep.csv"
