"""Command-line front end: subcommands, exit codes, and output stability.

Exit-code contract: 0 on success, 1 when a computation hits a work budget,
a singular form, or a known-value mismatch, 2 on usage and input errors.
Frozen output lines come from the probed behavior of the bundled inputs:
the regular module over the order-two group with the sign character counts
two classes and has no splitting functional, while the hyperbolic form with
the plain character counts one primitive class with functional [0, 0, 1].
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammalab import cli
from gammalab.builtins import cyclic_group
from gammalab.golden import GoldenCheck
from gammalab.resolutions import periodic_resolution


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def resolution_doc(length):
    z2 = cyclic_group(2)
    res = periodic_resolution(z2, length)
    boundaries = []
    for k in range(1, length + 1):
        mat = res.differential(k)
        boundaries.append([[list(entry) for entry in row] for row in mat])
    return {"ranks": list(res.ranks), "boundaries": boundaries}


# -- gamma --------------------------------------------------------------------


def test_gamma_table_output(tmp_path, capsys):
    pres = write_json(tmp_path, "p.json", {"ngens": 1, "relations": [[2]]})
    code, out, err = run_cli(capsys, ["gamma", pres])
    assert code == 0 and err == ""
    assert out == "Gamma = Z/4\n"


def test_gamma_free_input_lists_basis(tmp_path, capsys):
    free = write_json(tmp_path, "f.json", {"ngens": 2})
    code, out, _ = run_cli(capsys, ["gamma", free])
    assert code == 0
    assert out == "Gamma = Z^3\nfree input; value basis: v1, v2, w12\n"


def test_gamma_structured_document(tmp_path, capsys):
    pres = write_json(tmp_path, "p.json", {"ngens": 1, "relations": [[2]]})
    code, out, _ = run_cli(capsys, ["gamma", pres, "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gammalab-report/1"
    assert doc["command"] == "gamma"
    assert doc["gamma"]["rank"] == 0
    assert doc["gamma"]["torsion"] == [4]
    assert doc["basis"] is None


def test_gamma_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, ["gamma", str(path)])
    assert code == 2 and out == ""
    assert "not valid UTF-8" in err and "Traceback" not in err


def test_gamma_budget_refuses_huge_input_first(tmp_path, capsys, monkeypatch):
    # The free input would list a basis of 5 * 10**59 labels; the budget
    # must refuse it before anything of that size is built.
    def no_basis(n):
        raise AssertionError(f"basis of {n} generators requested")

    monkeypatch.setattr(cli, "basis_labels", no_basis)
    pres = write_json(tmp_path, "p.json", {"ngens": 10 ** 30})
    code, out, err = run_cli(capsys, ["gamma", pres])
    assert code == 1 and out == ""
    assert f"input with {10 ** 30} generators" in err
    assert "exceeds budget 250000" in err
    # GAMMALAB_BUDGET applies to gamma as to the resolution commands: the
    # Z/2 example costs 1 * (1 * 2 + 1) = 3 units.
    small = write_json(tmp_path, "s.json", {"ngens": 1, "relations": [[2]]})
    monkeypatch.setenv("GAMMALAB_BUDGET", "2")
    code, _, err = run_cli(capsys, ["gamma", small])
    assert code == 1 and "cost 3 exceeds budget 2" in err
    monkeypatch.setenv("GAMMALAB_BUDGET", "3")
    code, out, _ = run_cli(capsys, ["gamma", small])
    assert code == 0 and out == "Gamma = Z/4\n"


def test_python_dash_m_runs_the_command_line(tmp_path, capsys):
    pres = write_json(tmp_path, "p.json", {"ngens": 2, "relations": [[2, 4]]})
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "gammalab", "gamma", pres],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    code, out, err = run_cli(capsys, ["gamma", pres])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert out == "Gamma = Z + Z/2 + Z/4\n"


# -- coinvariants and tor1 ----------------------------------------------------


def test_coinvariants_of_regular_module(capsys):
    code, out, _ = run_cli(capsys, ["coinvariants", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_regular"])
    assert code == 0
    assert out == "coinvariants = Z\ntorsion subgroup = 0\n"


def test_tor1_of_split_module(capsys):
    code, out, _ = run_cli(capsys, ["tor1", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_z_plus_ztwist"])
    assert code == 0
    assert out == "tor1 = Z/2\n"


def test_tor1_follows_the_budget_environment_variable(capsys, monkeypatch):
    # Group order 2 and 2 generators: 4 times 4 plus no relation rows.
    argv = ["tor1", "--group", "z2", "--character", "w",
            "--module", "z2_z_plus_ztwist"]
    monkeypatch.setenv("GAMMALAB_BUDGET", "15")
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == ("error: first derived functor cost 16 exceeds budget 15 "
                   "(4 = group order 2 times 2 generators, times 4 plus 0 "
                   "relation rows); raise the budget\n")
    monkeypatch.setenv("GAMMALAB_BUDGET", "16")
    assert run_cli(capsys, argv)[:2] == (0, "tor1 = Z/2\n")


# -- homology -----------------------------------------------------------------


def test_homology_degree_three_order_two(capsys):
    code, out, _ = run_cli(capsys, ["homology", "--group", "z2",
                                    "--degree", "3"])
    assert code == 0
    assert out == "H_3 = Z/2\n"


def test_homology_rejects_out_of_range_degree(capsys):
    code, out, err = run_cli(capsys, ["homology", "--group", "z2",
                                      "--degree", "7"])
    assert code == 2 and out == ""
    assert "outside the supported range 0..4" in err


def test_homology_budget_exhaustion_exits_one(capsys):
    # H_3 of s3 reads the columns of d_4 ending in its two bar generators,
    # 2 x 5^3 of them with at most 5 faces each: 1,250 units.
    argv = ["homology", "--group", "s3", "--degree", "3"]
    code, out, err = run_cli(capsys, argv + ["--budget", "1249"])
    assert (code, out) == (1, "")
    assert err == ("error: bar homology cost 1250 exceeds budget 1249 (kept "
                   "columns of d_4: 2 bar generators times 125 tuples, at "
                   "most 5 faces each); raise the budget\n")
    code2, out2, _ = run_cli(capsys, argv + ["--budget", "1250"])
    assert code2 == 0
    assert out2 == "H_3 = Z/6\n"


def test_budget_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("GAMMALAB_BUDGET", "600000")
    code, out, _ = run_cli(capsys, ["homology", "--group", "s3",
                                    "--degree", "3"])
    assert code == 0 and out == "H_3 = Z/6\n"

    monkeypatch.setenv("GAMMALAB_BUDGET", "abc")
    code2, _, err2 = run_cli(capsys, ["homology", "--group", "s3",
                                      "--degree", "3"])
    assert code2 == 2
    assert "GAMMALAB_BUDGET='abc' is not an integer" in err2

    # An explicit flag wins without ever consulting the environment.
    monkeypatch.setenv("GAMMALAB_BUDGET", "17")
    code3, out3, _ = run_cli(capsys, ["homology", "--group", "s3",
                                      "--degree", "3",
                                      "--budget", "600000"])
    assert code3 == 0 and out3 == "H_3 = Z/6\n"


def test_budget_must_be_positive(capsys):
    code, _, err = run_cli(capsys, ["homology", "--group", "z2",
                                    "--degree", "3", "--budget", "-4"])
    assert code == 2
    assert "budget must be positive" in err


def test_orbit_budget_charges_the_automorphism_enumeration(capsys):
    """H_0 of d4 is charged 4 for the columns of d_1 it reads; its
    automorphisms, 10 image tuples times 8 elements, cost 80, and there is
    no other knob."""
    argv = ["orbit", "--group", "d4", "--degree", "0"]
    code, out, err = run_cli(capsys, argv + ["--budget", "80"])
    assert code == 0 and "automorphisms = 8\n" in out and err == ""
    code, out, err = run_cli(capsys, argv + ["--budget", "79"])
    assert (code, out) == (1, "")
    assert err == ("error: automorphism enumeration cost 80 exceeds budget "
                   "79 (10 image tuples times group order 8); raise the "
                   "budget\n")
    code, out, err = run_cli(capsys, argv + ["--aut-cap", "5"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --aut-cap 5\n")


def test_homology_with_stored_resolution(tmp_path, capsys):
    path = write_json(tmp_path, "res.json", resolution_doc(5))
    code, out, _ = run_cli(capsys, ["homology", "--group", "z2",
                                    "--degree", "3",
                                    "--resolution-file", path])
    assert code == 0
    assert out == "H_3 = Z/2\n"


def test_stored_resolution_flag_errors(tmp_path, capsys):
    path = write_json(tmp_path, "res.json", resolution_doc(5))
    argv = ["homology", "--group", "z2", "--degree", "3",
            "--resolution-file", path]
    assert run_cli(capsys, argv) == (0, "H_3 = Z/2\n", "")
    code, out, err = run_cli(capsys, argv + ["--resolution", "bar"])
    assert (code, out) == (2, "")
    assert err == ("error: --resolution bar picks a provider; drop it to "
                   "read --resolution-file\n")
    code, out, err = run_cli(capsys, ["homology", "--group", "z2",
                                      "--degree", "3",
                                      "--resolution", "file"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'file'" in err
    # orbit reads no stored resolution, so the missing file is never read.
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, ["orbit", "--group", "z2",
                                      "--degree", "3",
                                      "--resolution-file", missing])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --resolution-file "
                        + missing + "\n")


def test_short_stored_resolution_is_a_parse_error(tmp_path, capsys):
    path = write_json(tmp_path, "res.json", resolution_doc(3))
    code, _, err = run_cli(capsys, ["homology", "--group", "z2",
                                    "--degree", "3",
                                    "--resolution-file", path])
    assert code == 2
    assert "must reach degree 5" in err


# -- orbit --------------------------------------------------------------------


def test_orbit_command_structured(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "--group", "z3",
                                    "--degree", "3",
                                    "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "orbit"
    assert doc["homology"] == {"rank": 0, "torsion": [3],
                               "description": "Z/3"}
    assert doc["automorphism_count"] == 2
    assert doc["orbit_count"] == 2
    assert doc["orbits"] == [{"representative": [0], "size": 1},
                             {"representative": [1], "size": 2}]


def test_orbit_budget_exits_one(capsys):
    # H_3(Z/6) = Z/6 with two automorphisms: orbit cost 6 x (1 + 2 x 2).
    argv = ["orbit", "--group", "z6", "--degree", "3"]
    code, out, _ = run_cli(capsys, argv + ["--budget", "30"])
    assert code == 0 and out
    code, out, err = run_cli(capsys, argv + ["--budget", "29"])
    assert code == 1 and out == ""
    assert err.startswith("error: orbit enumeration cost 30 exceeds "
                          "budget 29 (torsion order 6")
    assert "2 character-preserving automorphisms" in err


def test_coinvariants_budget_counts_each_route(tmp_path, capsys, monkeypatch):
    # Orbit route: 2 basis vectors times group order 2.
    argv = ["coinvariants", "--group", "z2", "--module", "z2_regular"]
    monkeypatch.setenv("GAMMALAB_BUDGET", "3")
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == ("error: twisted coinvariants cost 4 exceeds budget 3 (2 "
                   "basis vectors times group order 2); raise the budget\n")
    monkeypatch.setenv("GAMMALAB_BUDGET", "4")
    assert run_cli(capsys, argv)[0] == 0
    # Relation-row route: [[1, 0], [1, -1]] is not a signed permutation;
    # the one group generator gives 2 twist rows of 2 columns.
    module = write_json(tmp_path, "m.json", {
        "ngens": 2, "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [1, -1]]}})
    argv = ["coinvariants", "--group", "z2", "--module", module]
    monkeypatch.setenv("GAMMALAB_BUDGET", "3")
    code, _, err = run_cli(capsys, argv)
    assert code == 1 and err == (
        "error: twisted coinvariants cost 4 exceeds budget 3 (2 relation "
        "rows times 2 columns); raise the budget\n")
    monkeypatch.setenv("GAMMALAB_BUDGET", "4")
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.splitlines()[0] == "coinvariants = Z"


def test_census_budget_counts_the_functor_value(capsys, monkeypatch):
    # The functor value of the regular module over Z/2 has 3 basis vectors.
    argv = ["census", "--group", "z2", "--character", "w",
            "--module", "z2_regular", "--form", "rp4cp2"]
    monkeypatch.setenv("GAMMALAB_BUDGET", "5")
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == ("error: twisted coinvariants cost 6 exceeds budget 5 (3 "
                   "basis vectors times group order 2); raise the budget\n")
    monkeypatch.setenv("GAMMALAB_BUDGET", "6")
    assert run_cli(capsys, argv)[0] == 0
    assert run_cli(capsys, argv[:-2])[0] == 0
    monkeypatch.setenv("GAMMALAB_BUDGET", "5")
    assert run_cli(capsys, argv[:-2])[0] == 1


def test_non_multiplicative_signed_permutation_is_an_input_error(tmp_path,
                                                                 capsys):
    # Both non-identity elements of Z/3 swap the basis: swap . swap is the
    # identity, not the swap that the product of element 1 with itself needs.
    swap = [[0, 1], [1, 0]]
    module = write_json(tmp_path, "m.json", {
        "ngens": 2, "action": {"0": [[1, 0], [0, 1]], "1": swap, "2": swap}})
    for command in ("coinvariants", "census"):
        code, out, err = run_cli(capsys, [command, "--group", "z3",
                                          "--module", module])
        assert code == 2 and out == ""
        assert "not multiplicative" in err and "Traceback" not in err


# -- census -------------------------------------------------------------------


def test_census_with_form_over_sign_character(capsys):
    code, out, _ = run_cli(capsys, ["census", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_regular",
                                    "--form", "rp4cp2"])
    assert code == 0
    lines = out.splitlines()
    assert "count = 2" in lines
    assert "involutions with sign -1: r = 1" in lines
    assert "torsion matches (Z/2)^(r k) prediction: yes" in lines
    assert "form class in coinvariants = [1, -1, 0] " \
           "(primitive modulo torsion: no)" in lines
    assert "splitting functional: absent" in lines


def test_census_hyperbolic_form_has_functional(capsys):
    code, out, _ = run_cli(capsys, ["census", "--group", "z2",
                                    "--module", "z2_regular",
                                    "--form", "z2_hyperbolic"])
    assert code == 0
    lines = out.splitlines()
    assert "count = 1" in lines
    assert "form class in coinvariants = [0, 0, 1] " \
           "(primitive modulo torsion: yes)" in lines
    assert "splitting functional: [0, 0, 1]" in lines


def test_census_module_only(capsys):
    code, out, _ = run_cli(capsys, ["census", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_z_plus_ztwist"])
    assert code == 0
    lines = out.splitlines()
    assert "module free rank over the group ring = not recognized as free" \
        in lines
    assert "count = 4" in lines
    assert "torsion matches (Z/2)^(r k) prediction: not applicable" in lines
    assert "form: not supplied" in lines


def test_census_form_needs_free_module(capsys):
    code, _, err = run_cli(capsys, ["census", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_z_plus_ztwist",
                                    "--form", "rp4cp2"])
    assert code == 2
    assert "free over the group ring" in err


def test_census_rejects_non_hermitian_pairing(capsys):
    # The hyperbolic coefficients are not hermitian for the sign character.
    code, _, err = run_cli(capsys, ["census", "--group", "z2",
                                    "--character", "w",
                                    "--module", "z2_regular",
                                    "--form", "z2_hyperbolic"])
    assert code == 2
    assert "hermitian" in err


# -- verify-paper -------------------------------------------------------------


def test_verify_paper_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "17/17 checks passed"
    assert sum(1 for l in lines if l.startswith("[PASS]")) == 17
    assert not any(l.startswith("[FAIL]") for l in lines)


def test_verify_paper_structured(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == doc["total"] == 17
    assert all(check["passed"] for check in doc["checks"])


def test_verify_paper_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_golden_suite",
                        lambda: [GoldenCheck("demo", "Z/2", "Z/3")])
    code, out, _ = run_cli(capsys, ["verify-paper"])
    assert code == 1
    assert "[FAIL] demo: expected 'Z/2', computed 'Z/3'" in out
    assert "0/1 checks passed" in out


# -- output stability and usage errors ---------------------------------------


def test_structured_output_is_byte_stable(capsys):
    argv = ["census", "--group", "z2", "--character", "w",
            "--module", "z2_regular", "--form", "rp4cp2",
            "--format", "structured"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    # Keys are emitted sorted, so a sorted re-serialization is the identity.
    assert first == json.dumps(json.loads(first), sort_keys=True,
                               indent=2) + "\n"


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, ["no-such-command"])[0] == 2
    assert run_cli(capsys, ["coinvariants", "--module", "z2_regular"])[0] == 2
    code, _, err = run_cli(capsys, ["homology", "--group", "nope",
                                    "--degree", "1"])
    assert code == 2 and "bundled group" in err
    code2, _, err2 = run_cli(capsys, ["homology", "--group", "z2",
                                      "--character", "q", "--degree", "1"])
    assert code2 == 2 and "available" in err2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "usage" in out


# -- the parser shared by every call in a process ------------------------------

# ``--help`` text of the top level and of every subcommand at 80 columns, as
# printed by a parser built for each call (argparse of Python 3.11).
# ``python tests/test_cli.py`` writes it again with :func:`freeze_help`.
HELP_FILE = Path(__file__).parent / "data" / "cli_help.json"
FROZEN_HELP = json.loads(HELP_FILE.read_text(encoding="utf-8"))


def test_frozen_help_covers_every_subcommand():
    assert sorted(FROZEN_HELP) == sorted(
        ["gammalab", "gamma", "coinvariants", "tor1", "homology", "census",
         "orbit", "verify-paper"])


@pytest.mark.parametrize("command", sorted(FROZEN_HELP))
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([] if command == "gammalab" else [command]) + ["--help"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out == FROZEN_HELP[command]


def test_build_parser_returns_a_fresh_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    first = cli.build_parser()
    assert first is not cli.build_parser()
    assert first.format_help() == FROZEN_HELP["gammalab"]


CENSUS_Z2 = ["census", "--group", "z2", "--character", "w",
             "--module", "z2_regular", "--form", "rp4cp2"]


def test_shared_parser_after_a_usage_error_and_help(capsys):
    code, out, err = run_cli(capsys, ["census", "--group", "z2"])
    assert code == 2 and out == ""
    assert "the following arguments are required: --module" in err
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: gammalab")
    argv = CENSUS_Z2 + ["--format", "structured"]
    code, shared, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    args = cli.build_parser().parse_args(argv)
    assert args.func(args) == 0
    assert shared == capsys.readouterr().out


def test_defaults_do_not_leak_between_calls(capsys):
    code, out, _ = run_cli(capsys, CENSUS_Z2 + ["--format", "structured"])
    assert code == 0 and json.loads(out)["command"] == "census"
    code, out, _ = run_cli(capsys, CENSUS_Z2)
    assert code == 0 and out.splitlines()[0] == "group order = 2"
    # The character falls back to its default after a call that named one.
    code, out, _ = run_cli(capsys, ["census", "--group", "z2",
                                    "--module", "z2_regular",
                                    "--format", "structured"])
    assert code == 0
    assert json.loads(out)["involution_rank"] == 0


# -- argv read by the subcommand's own parser ---------------------------------


def reference_main(argv):
    """``build_parser().parse_args`` on a fresh parser, then ``args.func``:
    the reference for how :func:`cli.main` reads argv."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def dispatch_cases(presentation):
    """``argv`` lists: the ones the top-level parser reads, then, for each
    subcommand, usage errors and the spellings argparse accepts."""
    valid = {
        "gamma": [presentation],
        "coinvariants": ["--group", "z2", "--module", "z2_regular"],
        "tor1": ["--group", "z2", "--module", "z2_regular"],
        "homology": ["--group", "z2", "--degree", "1"],
        "census": CENSUS_Z2[1:],
        "orbit": ["--group", "z2", "--degree", "2"],
        "verify-paper": [],
    }
    yield []
    yield ["-h"]
    yield ["--help"]
    yield ["no-such-command"]
    yield ["censu", "--group", "z2"]
    yield ["--format", "table", "census"] + CENSUS_Z2[1:]
    yield ["--", "census"] + CENSUS_Z2[1:]
    for command, base in valid.items():
        yield [command] + base
        yield [command, "-h"]
        yield [command] + base + ["--help"]
        # A missing required option (or, for verify-paper, nothing missing).
        yield [command] + base[2:]
        yield [command] + base + ["--no-such-option"]
        yield [command] + base + ["--no-such-option=1", "extra"]
        yield [command] + base + ["extra"]
        yield [command] + base + ["--format", "xml"]
        yield [command] + base + ["--format=structured"]
        yield [command] + base + ["--forma", "structured"]
        yield [command, "--"] + base
        yield [command] + base + ["--"]
        yield [command] + base + ["--", "extra"]
        if "--group" in base:
            at = base.index("--group")
            yield [command] + base[:at] + ["--grou"] + base[at + 1:]
            yield [command] + base[:at] + ["--grou=z2"] + base[at + 2:]
        if "--degree" in base:
            yield [command] + base + ["--degree", "x"]
            yield [command] + base + ["--resolution", "nope"]


def test_subcommand_parser_matches_the_top_level_parser(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    presentation = write_json(tmp_path, "pres.json",
                              {"ngens": 2, "relations": [[2, 0]]})
    seen = set()
    for argv in dispatch_cases(presentation):
        expected = (reference_main(argv),) + tuple(capsys.readouterr())
        assert run_cli(capsys, argv) == expected, argv
        seen.add(expected[0])
        if "unrecognized arguments" in expected[2]:
            assert expected[2].startswith("usage: gammalab [-h]"), argv
            seen.add("unrecognized")
    assert seen == {0, 2, "unrecognized"}


def test_a_subcommand_first_skips_the_top_level_parser(capsys, monkeypatch):
    parser, _ = cli._shared_parsers()
    calls = []

    def counted(argv=None, namespace=None):
        calls.append(argv)
        return argparse.ArgumentParser.parse_args(parser, argv, namespace)

    monkeypatch.setattr(parser, "parse_args", counted)
    assert run_cli(capsys, CENSUS_Z2)[0] == 0
    assert run_cli(capsys, CENSUS_Z2 + ["--nope"])[0] == 2
    assert calls == []
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["nope"])[0] == 2
    assert calls == [["--help"], ["nope"]]


def freeze_help():
    """Write each ``--help`` text that ``cli.main`` prints at 80 columns
    into :data:`HELP_FILE`, keyed by subcommand (``gammalab`` for the top
    level)."""
    os.environ["COLUMNS"] = "80"
    frozen = {}
    for command in ["gammalab"] + sorted(cli._shared_parsers()[1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(([] if command == "gammalab" else [command])
                            + ["--help"])
        assert code == 0, command
        frozen[command] = out.getvalue()
    HELP_FILE.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    freeze_help()
