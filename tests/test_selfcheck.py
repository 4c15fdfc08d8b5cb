from dron.cli import main


def test_selfcheck_passes(capsys):
    # the invariant suite behind `dron selfcheck`, including 50,000 replay draws
    assert main(["selfcheck"]) == 0
    assert "selfcheck PASSED" in capsys.readouterr().out
