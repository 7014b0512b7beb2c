"""The paper's degrees at the default work budget, through the command line
with neither ``--budget`` nor ``GAMMALAB_BUDGET``.

CP²-stable classes with given π and w are read off H_4(π; Z^w) up to
±Aut_w(π) (Kreck, *Ann. of Math.* 149 (1999)), so every bundled group and
character answers H_3, H_4 and their orbits as it stands.  The oracles do
not come from the code: ``s3`` and ``q8`` have periodic cohomology of period
four, so H_3(G; Z) = Z/|G| and H_4(G; Z) = 0 (K. S. Brown, *Cohomology of
Groups*, VI.9), and on ``z6`` the bar resolution prints what the periodic
one prints.
"""

import pytest

from gammalab import cli
from gammalab.serialize import bundled_names, bundled_path, load_group


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, order", [("s3", 6), ("q8", 8)])
def test_period_four_groups(capsys, name, order):
    head = ["homology", "--group", name, "--character", "trivial"]
    assert run_cli(capsys, head + ["--degree", "3"]) == \
        (0, f"H_3 = Z/{order}\n", "")
    assert run_cli(capsys, head + ["--degree", "4"]) == (0, "H_4 = 0\n", "")


def test_bar_prints_what_the_periodic_resolution_prints_on_z6(capsys):
    for character in ("trivial", "w"):
        for degree in ("3", "4"):
            argv = ["homology", "--group", "z6", "--character", character,
                    "--degree", degree, "--resolution"]
            periodic = run_cli(capsys, argv + ["cyclic"])
            assert periodic[0] == 0
            assert run_cli(capsys, argv + ["bar"]) == periodic


def test_every_bundled_pair_answers_degrees_three_and_four(capsys):
    for name in sorted(bundled_names("group")):
        _, characters = load_group(bundled_path("group", name))
        for character in sorted(characters):
            for degree in ("3", "4"):
                for command in ("homology", "orbit"):
                    for provider in ("auto", "bar"):
                        argv = [command, "--group", name, "--character",
                                character, "--degree", degree,
                                "--resolution", provider]
                        code, out, err = run_cli(capsys, argv)
                        assert (code, err) == (0, ""), argv
                        assert out.startswith(f"H_{degree} = "), argv
