"""The `dron` subcommands, run through `cli.main` on tiny configs."""

import pytest

from dron import cli, harness
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


def test_ttest_names_both_counts_of_a_mismatch(tmp_path, capsys):
    header = "epoch,mean_reward\n"
    (tmp_path / "a.csv").write_text(header + "1,0.5\n2,0.7\n")
    (tmp_path / "b.csv").write_text(header + "1,0.4\n")
    assert main(["ttest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: paired series must have equal lengths, got 2 and 1\n")


def test_bad_config_names_its_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("epochs = 2\nbatch_size = 0\n")
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == "error: line 2: batch_size must be >= 1, got 0\n"


def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("epochs = 1\nseeds = -1\n")
    assert main(["train", str(config)]) == 2
    assert capsys.readouterr().err == "error: line 2: seeds must be >= 0, got -1\n"
    checkpoint = _train(tmp_path, monkeypatch, "soccer")
    capsys.readouterr()
    assert main(["eval", checkpoint, "--games", "2", "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


def test_gradcheck_one_trial():
    assert main(["gradcheck", "--trials", "1"]) == 0


def test_gradcheck_text_is_unchanged(capsys):
    # the text printed before DRON-MoE's experts ran as one stacked network,
    # and the quiz action head's line after it; the check draws its
    # perturbations in parameter-name order, so a change of that order or of
    # any gradient bit moves these digits
    assert main(["gradcheck", "--trials", "2"]) == 0
    assert capsys.readouterr().out == (
        "  dqn          max rel err 1.63e-06\n"
        "  dron_concat          max rel err 1.4e-09\n"
        "  dron_moe          max rel err 6.27e-10\n"
        "  dron_moe+type     max rel err 3.39e-08\n"
        "  dron_concat+action   max rel err 7.07e-10\n"
        "worst relative error: 1.63e-06\n"
        "OK\n"
    )


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_exits_2(capsys, trials):
    assert main(["gradcheck", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert "OK" not in out
    assert err.startswith("error: a gradient check needs at least one trial")


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("epoch,mean_reward\n1,abc\n", 2),
    ("epoch,mean_reward\n1,0.5\n\n1\n", 4),
    ("epoch,mean_reward\n1,0.5\n2,nan\n", 3),
    ("epoch,mean_reward\n1,inf\n2,0.5\n", 2),
    ("epoch,mean_reward\n1,0.5\n2,-Infinity\n", 3),
], ids=["empty", "non_numeric", "short_row", "nan", "inf", "minus_inf"])
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


def test_sweep_repeated_expert_count_exits_2(tmp_path, monkeypatch, capsys):
    # refused before any training: no run, no output directory, no CSV
    def no_training(*args, **kwargs):
        raise AssertionError("train_run called")
    monkeypatch.setattr(harness, "train_run", no_training)
    config = tmp_path / "soccer.cfg"
    config.write_text(TINY["soccer"] + TINY_BASE)
    out = tmp_path / "out"
    monkeypatch.setenv("DRON_OUTPUT_DIR", str(out))
    assert main(["sweep", str(config), "--experts", "2,3,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expert counts must be distinct, got 2 more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,path", [
    (["train", "nope.cfg"], "nope.cfg"),
    (["eval", "nope.ckpt"], "nope.ckpt"),
    (["sweep", "nope.cfg", "--experts", "2"], "nope.cfg"),
    (["ttest", "a.csv", "b.csv"], "a.csv"),
], ids=["train", "eval", "sweep", "ttest"])
def test_missing_input_file(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_traces_into_missing_directory(tmp_path, monkeypatch, capsys):
    checkpoint = _train(tmp_path, monkeypatch, "quizbowl")
    traces = tmp_path / "nodir" / "x.csv"
    capsys.readouterr()
    assert main(["eval", checkpoint, "--games", "2", "--traces", str(traces)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traces}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_traces_path_checked_before_any_game(tmp_path, monkeypatch, capsys):
    checkpoint = _train(tmp_path, monkeypatch, "quizbowl")
    played = []
    monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: played.append(args))
    traces = tmp_path / "nodir" / "x.csv"
    capsys.readouterr()
    assert main(["eval", checkpoint, "--games", "2", "--traces", str(traces)]) == 2
    out, err = capsys.readouterr()
    assert played == [] and out == ""
    assert err.startswith(f"error: {traces}: ")


def test_failed_evaluation_keeps_an_old_trace_file(tmp_path, monkeypatch, capsys):
    checkpoint = _train(tmp_path, monkeypatch, "quizbowl")
    traces = tmp_path / "traces.csv"
    assert main(["eval", checkpoint, "--opponent", "self", "--traces", str(traces)]) == 2
    assert not traces.exists()  # a file the failed call created is removed
    traces.write_text("old\n")
    assert main(["eval", checkpoint, "--opponent", "self", "--traces", str(traces)]) == 2
    assert traces.read_text() == "old\n"
    assert main(["eval", checkpoint, "--games", "2", "--traces", str(traces)]) == 0
    assert traces.read_text().splitlines()[0].startswith("game,length,")
    assert len(traces.read_text().splitlines()) == 3


def test_malformed_checkpoint_exits_2(tmp_path, capsys):
    from test_checkpoint import make_quiz_checkpoint, write_malformed

    from dron.checkpoint import save_checkpoint

    # a parameter value in a version 1 file, a version 2 hex row of the
    # wrong length and one with a character that is not a hex digit, a quiz
    # env.* number that evaluation would read, and a negative step count and
    # random stream state
    for field in ("matrix_value", "hex_row_short", "hex_row_digit", "env_vocab",
                  "steps_negative", "rng_negative"):
        path, line = write_malformed(tmp_path, field)
        assert main(["eval", path, "--games", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    # env.* numbers that parse but that no run could have written
    path = tmp_path / "quiz.ckpt"
    save_checkpoint(make_quiz_checkpoint(), str(path))
    saved = path.read_text().splitlines()
    for key, value, opponent, message in [
        ("opponent_pool", "0", "mixed", "opponent_pool must be >= 1"),
        ("opponent_pool", "0", "type1", "opponent_pool must be >= 1"),
        ("belief_kappa", "-1.0", "mixed", "belief_kappa must be finite and > 0"),
    ]:
        line = next(i for i, text in enumerate(saved, 1) if text.startswith(f"env.{key} "))
        lines = list(saved)
        lines[line - 1] = f"env.{key} {value}"
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(path), "--games", "1", "--opponent", opponent]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: line {line}: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    # agent fields that name no kind, mode or loss, and a quiz agent on the
    # soccer field, which names the agent line that does not fit it
    for key, value, named, message in [
        ("kind", "dqnx", "kind", "unknown agent kind 'dqnx'"),
        ("multitask", "bogus", "multitask", "unknown multitask mode 'bogus'"),
        ("multitask_loss", "hinge", "multitask_loss",
         "multitask_loss hinge does not fit the header's quizbowl dqn agent, which has "
         "cross_entropy"),
        ("environment", "soccer", "state_dim",
         "state_dim 102 does not fit the header's soccer dqn agent, which has 15"),
    ]:
        lines = [f"{key} {value}" if text.split()[0] == key else text for text in saved]
        path.write_text("\n".join(lines) + "\n")
        line = next(i for i, text in enumerate(lines, 1) if text.split()[0] == named)
        assert main(["eval", str(path), "--games", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: line {line}: {message}\n"


def test_checkpoint_that_misfits_its_environment_exits_2(tmp_path, capsys):
    # refused at load, before any game, however many games are asked for
    from test_checkpoint import MISFITS, misfit_checkpoint

    from dron.checkpoint import save_checkpoint

    for n, case in enumerate(MISFITS):
        environment, kind, key, value, message = case.values
        path = tmp_path / f"misfit{n}.ckpt"
        save_checkpoint(misfit_checkpoint(environment, kind, key, value), str(path))
        line = next(i for i, text in enumerate(path.read_text().splitlines(), 1)
                    if text.split()[0] == key)
        assert main(["eval", str(path), "--games", "20"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: line {line}: {message}\n"
