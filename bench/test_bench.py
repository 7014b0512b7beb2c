"""Tests for the benchmark's own code: oracles, failure accounting, tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gammalab.abelian import AbelianPresentation  # noqa: E402
from gammalab.builtins import symmetric_group_3  # noqa: E402
from gammalab.gamma import quadratic_value  # noqa: E402
from gammalab.groups import all_characters  # noqa: E402
from gammalab.homology import group_homology  # noqa: E402
from gammalab.serialize import load_group, resolve_input  # noqa: E402


def test_gamma_closed_form_small_cases():
    assert oracles.gamma_closed_form(1, []) == (1, ())
    assert oracles.gamma_closed_form(2, []) == (3, ())
    assert oracles.gamma_closed_form(0, [2]) == (0, (4,))
    assert oracles.gamma_closed_form(0, [3]) == (0, (3,))
    # Z/6 -> Z/12 = Z/4 + Z/3
    assert oracles.gamma_closed_form(0, [6]) == (0, (3, 4))
    # Z/2 + Z/2 -> Z/4 + Z/4 + Z/2
    assert oracles.gamma_closed_form(0, [2, 2]) == (0, (2, 4, 4))
    # Z + Z/3 -> Z + Z/3 + (Z (x) Z/3)
    assert oracles.gamma_closed_form(1, [3]) == (1, (3, 3))
    # Z/4 + Z/6 -> Z/8 + Z/12 + Z/2
    assert oracles.gamma_closed_form(0, [4, 6]) == (0, (2, 3, 4, 8))
    assert oracles.gamma_closed_form(0, [1, 5]) == (0, (5,))


def test_gamma_oracle_agrees_with_program_and_rejects_wrong_answers():
    assert oracles.check_gamma(0, [2], (0, (4,))) is None
    assert oracles.check_gamma(0, [2], (0, (2,))) is not None
    assert oracles.check_gamma(0, [6], (0, (12,))) is None
    rng = random.Random(7)
    for n, r, k in ((4, 1, 2), (5, 0, 3), (6, 2, 2)):
        orders = [rng.choice(workloads.TORSION_ORDERS) for _ in range(k)]
        rows = workloads.scrambled_relations(rng, n, r, orders)
        pres = AbelianPresentation.from_relation_rows(n, rows)
        assert pres.invariant_factors()[0] == r
        computed = quadratic_value(pres).invariant_factors()
        assert oracles.check_gamma(r, orders, computed) is None


def test_cyclic_homology_closed_form_matches_both_providers():
    for name in ("z2", "z4", "z6"):
        group, chars = load_group(resolve_input("group", name))
        for char, w in chars.items():
            for degree in range(3):
                expected = oracles.expected_homology(name, char, degree,
                                                     not w.is_trivial())
                for provider in ("bar", "cyclic"):
                    got = group_homology(group, w, degree, provider=provider,
                                         budget=100_000).invariant_factors()
                    assert got == expected, (name, char, degree, provider)


def test_involution_rank_from_table():
    group = symmetric_group_3()
    table = [list(row) for row in group.table]
    signs = {c.values for c in all_characters(group)}
    assert oracles.involution_rank(table, (1,) * 6) == 0
    assert oracles.involution_rank(table, (1, 1, 1, -1, -1, -1)) == 3
    assert (1, 1, 1, -1, -1, -1) in signs


def _query(label, answer, wrong=False):
    check = (lambda a: "disagrees with oracle") if wrong else (lambda a: None)
    return workloads.Query(label, lambda: answer, check)


def test_wrong_answer_counts_as_failed_and_run_continues():
    queries = [_query("a", 1), _query("b", 2, wrong=True), _query("c", 3)]
    result = workloads.run_pass(queries)
    assert result.attempted == 3
    assert result.failed == 1
    assert result.raised == 0
    assert len(result.latencies) == 3
    assert result.failures == ["b: disagrees with oracle"]


def test_budget_exceeded_counts_as_failed():
    group, chars = load_group(resolve_input("group", "s3"))
    w = chars["w"]

    def too_expensive():
        return group_homology(group, w, 3, provider="bar", budget=1_000)

    queries = [workloads.Query("H_3 s3", too_expensive, lambda a: None),
               _query("after", 1)]
    result = workloads.run_pass(queries)
    assert result.attempted == 2
    assert result.failed == 1
    assert result.raised == 1
    assert "BudgetExceededError" in result.failures[0]


def test_census_queries_pass_their_oracle(tmp_path):
    wl = workloads.CensusWorkload(5, str(tmp_path))
    wl.generate()
    wl.setup()
    small = [case for case in wl.cases if case.order <= 2]
    assert small
    result = workloads.run_pass([wl.query_for(case) for case in small])
    assert result.failed == 0, result.failures


def test_census_oracle_rejects_wrong_count(tmp_path):
    wl = workloads.CensusWorkload(5, str(tmp_path))
    wl.generate()
    case = next(c for c in wl.cases if c.group == "z2" and c.char == "w")
    query = wl.query_for(case)
    code, out, err = query.call()
    assert query.check((code, out, err)) is None
    assert query.check((code, out.replace('"count": 2', '"count": 3'),
                        err)) is not None
    assert query.check((1, "", "error: budget")) is not None


def _traced_presentation_counts(seed):
    wl = workloads.PresentationsWorkload(seed, "")
    queries = wl.make_pass(0)[:20]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workloads.run_pass(queries, tracer)
    finally:
        tracer.close()
    assert result.failed == 0
    metrics = tracer.layer_metrics()
    return {name: metrics[name][0] for name in
            ("intmat.snf.calls", "intmat.snf.cells", "intmat.snf.max_bits",
             "gamma.calls", "abelian.calls")}


def test_traced_counts_repeat_and_originals_are_restored():
    import gammalab.gamma
    import gammalab.intmat

    before = (gammalab.gamma.quadratic_value,
              gammalab.intmat.smith_normal_form)
    first = _traced_presentation_counts(3)
    second = _traced_presentation_counts(3)
    assert first == second
    assert first["intmat.snf.calls"] == 20
    assert (gammalab.gamma.quadratic_value,
            gammalab.intmat.smith_normal_form) == before


def test_layer_errors_count_exceptions_leaving_a_layer():
    group, chars = load_group(resolve_input("group", "s3"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import gammalab.homology as homology
        query = workloads.Query(
            "too expensive",
            lambda: homology.group_homology(group, chars["w"], 3, budget=10),
            lambda a: None)
        result = workloads.run_pass([query], tracer)
    finally:
        tracer.close()
    assert result.raised == 1
    metrics = tracer.layer_metrics()
    assert metrics["resolutions.errors"][0] == 1
    assert metrics["homology.errors"][0] == 1
    assert metrics["intmat.errors"][0] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "homology",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
