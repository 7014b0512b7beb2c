"""Differential test: Γ(M)'s coinvariants from the orbits of pairs of M's
basis, against the coinvariants of the built value.

``gamma_coinvariants`` walks the orbits of the squares and pairs of a
signed-permutation module's basis with the images of
``gamma.pair_images``, and never builds Γ(M).  The oracle is
``twisted_coinvariants(quadratic_module(M), w)``: the value's whole table,
then the orbit walk on it.  Both must give the same presentation, the same
projection on seeded vectors, a section split by the projection, the same
splitting functionals pulled back to Γ(M)'s basis, and the same census
reports.  The value's table shares the pair formula, so the value of M
given by its dense matrices alone, whose induced matrices take the
relation-row route, is a second oracle: same invariants, and each
pulled-back functional kills its relation rows.  The modules: every bundled table module, free modules of rank 1-3
with rank × order <= 12, the same in a seeded signed basis, sign modules
and direct sums, over every bundled (group, character).
"""

import random

import pytest

from gammalab import classify, gamma
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.classify import (QuadraticTwoType, census, gamma_coinvariants,
                               module_census)
from gammalab.errors import BudgetExceededError, IncompatibleInputError
from gammalab.gamma import gamma_rank, quadratic_module
from gammalab.groups import all_characters
from gammalab.intmat import IntMatrix
from gammalab.modules import (ZPiModule, check_projection_budget,
                              direct_sum_module, free_module,
                              module_from_action, sign_module,
                              twisted_coinvariants)
from gammalab.serialize import bundled_names, bundled_path, load_module

from test_census_work import random_form, z3_global_sign_table

MAX_CELLS = 12
VECTORS_PER_CASE = 6


def in_signed_basis(rng, module):
    """The module in a seeded signed permutation of its basis, loaded from
    its matrices so that the table is read off them."""
    n = module.underlying.ngens
    perm = list(range(n))
    rng.shuffle(perm)
    p = IntMatrix(n, n)
    for i, j in enumerate(perm):
        p.data[j][i] = rng.choice((-1, 1))
    action = [p.mul(mat).mul(p.transpose()) for mat in module.action]
    return module_from_action(module.group, AbelianPresentation.free(n), action)


def modules_over(name, group, rng):
    """Labelled table modules without relations over one group."""
    if name == "z2":
        for module_name in bundled_names("module"):
            yield module_name, load_module(bundled_path("module", module_name),
                                           group)
    for rank in range(1, 4):
        if rank * group.order <= MAX_CELLS:
            yield f"free {rank}", free_module(group, rank)
            yield f"free {rank} in a signed basis", in_signed_basis(
                rng, free_module(group, rank))
    for u in all_characters(group):
        yield f"sign {u.values}", sign_module(group, u, 2)
        yield f"free 1 + sign {u.values}", direct_sum_module(
            free_module(group, 1), sign_module(group, u, 1))
        if group.order <= 6:
            yield f"sign {u.values} + free 1 in a signed basis", \
                direct_sum_module(sign_module(group, u, 1),
                                  in_signed_basis(rng, free_module(group, 1)))


def cases():
    rng = random.Random(2501)
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            for label, module in modules_over(name, group, rng):
                yield f"{name}/{w.values}/{label}", group, w, module


def oracle_coinvariants(pi2, w, budget=None):
    return twisted_coinvariants(quadratic_module(pi2), w, budget)


def dense(module):
    """The same module without its table."""
    return ZPiModule(module.group, module.underlying, module.action,
                     check=False)


def test_pair_orbits_match_the_coinvariants_of_the_value():
    rng = random.Random(2502)
    functionals = set()
    count = 0
    for label, group, w, module in cases():
        assert module.table is not None, label
        fast = gamma_coinvariants(module, w)
        oracle = oracle_coinvariants(module, w)
        rows = oracle_coinvariants(dense(module), w).presentation
        n = gamma_rank(module.underlying.ngens)
        k = fast.presentation.ngens
        assert fast.presentation.invariant_factors() == \
            oracle.presentation.invariant_factors() == \
            rows.invariant_factors(), label
        assert fast.projection.matrix.mul(fast.section) == \
            IntMatrix.identity(k), label
        for _ in range(VECTORS_PER_CASE):
            x = [rng.choice((-3, -1, 0, 0, 1, 2)) for _ in range(n)]
            cls = fast.project(x)
            assert cls == oracle.projection.apply(x), label
            assert cls == fast.projection.apply(x), label
            f = fast.presentation.functional_hitting_one(cls)
            g = oracle.presentation.functional_hitting_one(
                oracle.projection.apply(x))
            assert (f is None) == (g is None) == \
                (rows.functional_hitting_one(x) is None), label
            functionals.add(f is None)
            if f is not None:
                row = fast.pull_back(f)
                assert sum(a * b for a, b in zip(row, x)) == 1, label
                assert row == fast.projection.matrix.vec_mat(f), label
                assert row == oracle.projection.matrix.vec_mat(g), label
                assert not any(rows.relations.mat_vec(row)), label
        count += 1
    assert count > 150
    assert functionals == {True, False}


def test_census_reports_match_the_value_route(monkeypatch):
    """Module-only reports for every case, and reports with a seeded form
    of both kinds for every module free over the group ring."""
    rng = random.Random(2503)
    runs = []
    for label, group, w, module in cases():
        runs.append((label, lambda g=group, u=w, m=module:
                     module_census(g, u, m)))
        if module.zpi_free_rank is not None:
            for variant in range(2):
                q = QuadraticTwoType(group, w, module, random_form(
                    group, w, module.zpi_free_rank, variant, rng))
                runs.append((label, lambda q=q: census(q)))
    assert len(runs) > 300
    fast = [run() for _, run in runs]
    assert sum(report.kappa_functional is not None for report in fast) > 5
    monkeypatch.setattr(classify, "gamma_coinvariants", oracle_coinvariants)
    for (label, run), report in zip(runs, fast):
        assert report == run(), label


def test_census_of_a_table_module_builds_no_value(monkeypatch):
    """With the functor value of a module out of reach, a census of a
    signed-permutation module without relations still answers, as it did
    with it."""
    groups = standard_library()
    inputs = []
    rng = random.Random(2504)
    for name in ("z2", "klein4", "s3", "q8"):
        group = groups[name]
        for w in all_characters(group):
            for label, module in modules_over(name, group, rng):
                inputs.append((group, w, module,
                               module_census(group, w, module)))

    def refuse(*args, **kwargs):
        raise AssertionError("functor value of a module built")

    monkeypatch.setattr(gamma, "quadratic_module", refuse)
    monkeypatch.setattr(classify, "quadratic_module", refuse)
    monkeypatch.setattr(gamma, "induced_matrix", refuse)
    monkeypatch.setattr(classify, "induced_matrix", refuse)
    for group, w, module, expected in inputs:
        assert module_census(group, w, module) == expected


def test_module_that_fails_its_own_check_is_refused_on_the_orbit_route():
    z3 = standard_library()["z3"]
    w = all_characters(z3)[0]
    broken = ZPiModule(z3, AbelianPresentation.free(2), check=False,
                       table=z3_global_sign_table())
    # A refusal is not recorded: the module is refused each time.
    for _ in range(2):
        with pytest.raises(IncompatibleInputError, match="not multiplicative"):
            gamma_coinvariants(broken, w)
        with pytest.raises(IncompatibleInputError, match="not multiplicative"):
            module_census(z3, w, broken)
    fine = ZPiModule(z3, AbelianPresentation.free(3), check=False,
                     table=[([0, 1, 2], [1, 1, 1])] * 3)
    assert gamma_coinvariants(fine, w).presentation.invariant_factors() == \
        (6, ())


def test_orbit_route_keeps_both_budget_checks():
    """``n(n+1)/2·|G|`` before the walk, on every call, also once an
    answered call has kept the orbits on the module.  ``k·N``, for the
    ``k`` orbits of the ``N`` basis vectors of Γ(M), bounds only the
    readers of the dense projection and section, which census is not."""
    groups = standard_library()
    z2 = groups["z2"]
    w = all_characters(z2)[0]
    module = free_module(z2, 1)
    estimate = (r"cost 6 \(3 basis vectors times group order 2\) exceeds "
                r"budget 5")
    with pytest.raises(BudgetExceededError, match=estimate) as cold:
        gamma_coinvariants(module, w, budget=5)
    # Γ of the regular module: 3 basis vectors in 2 orbits, 6 entries.
    answer = gamma_coinvariants(module, w, budget=6)
    assert answer.presentation.ngens == 2
    assert gamma_coinvariants(module, w, budget=6) is answer
    with pytest.raises(BudgetExceededError, match=estimate) as warm:
        gamma_coinvariants(module, w, budget=5)
    assert str(warm.value) == str(cold.value)
    trivial = groups["trivial"]
    w = all_characters(trivial)[0]
    big = sign_module(trivial, w, 80)
    n = gamma_rank(80)
    answer = gamma_coinvariants(big, w, budget=n)
    assert answer.presentation.ngens == n
    assert gamma_coinvariants(big, w, budget=n) is answer
    with pytest.raises(BudgetExceededError,
                       match=rf"cost {n} \({n} basis vectors times group "
                             rf"order 1\) exceeds budget {n - 1}"):
        gamma_coinvariants(big, w, budget=n - 1)
    projection = f"projection of {n} orbits by {n} basis vectors"
    with pytest.raises(BudgetExceededError, match=projection):
        check_projection_budget(answer, n * n - 1)
    check_projection_budget(answer, n * n)
