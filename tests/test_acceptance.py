"""End-to-end acceptance gate.

Nine numbered criteria cover the full pipeline: quadratic functor values,
obstruction torsion of regular and split modules, the involution-count
formula across every bundled group, norm-quotient coinvariants, the degree-
four splitting, census counts for the bundled twisted identity form, the
randomized property suites, and the integer matrix engine.  Every test
prints one machine-greppable verdict line ``[criterion-N] PASS`` or
``[criterion-N] FAIL``.  All comparisons are exact equality of invariant
factors; the randomized suites use fixed seeds and must finish in under two
minutes.
"""

import contextlib
import random
import time

from gammalab.abelian import AbelianPresentation
from gammalab.builtins import (
    cyclic_group,
    dihedral_group_4,
    klein_four_group,
    quaternion_group,
    symmetric_group_3,
    trivial_group,
)
from gammalab.classify import (
    QuadraticTwoType,
    census,
    check_hermitian,
    h4_twotype_split,
    hermitian_closure,
    involution_rank_formula,
    kappa_splitting,
    lambda_to_gamma,
    obstruction_torsion,
)
from gammalab.gamma import (
    expand_square,
    gamma_rank,
    quadratic_module,
    quadratic_value,
    split_indices,
)
from gammalab.groups import (
    GroupRingElement,
    bar_involution,
    all_characters,
    subgroup_and_cosets,
)
from gammalab.intmat import IntMatrix, det, smith_normal_form
from gammalab.modules import (
    direct_sum_module,
    free_module,
    induced_coinvariants_map,
    norm_quotient_module,
    sign_module,
    tor_one,
    transfer_down,
    trivial_module,
    twisted_coinvariants,
)
from gammalab.serialize import (
    bundled_names,
    bundled_path,
    load_form,
    load_group,
)


@contextlib.contextmanager
def verdict(number):
    try:
        yield
    except BaseException:
        print(f"[criterion-{number}] FAIL")
        raise
    print(f"[criterion-{number}] PASS")


def nontrivial_char(group):
    for w in all_characters(group):
        if not w.is_trivial():
            return w
    raise AssertionError("no nontrivial character")


def test_criterion_1_quadratic_functor_closed_forms():
    """Value Z/4 on Z/2; free of rank n(n+1)/2 on Z^n for n = 1..5."""
    with verdict(1):
        two = quadratic_value(AbelianPresentation.cyclic(2)).presentation
        assert two.invariant_factors() == (0, (4,))
        for n in range(1, 6):
            free = quadratic_value(AbelianPresentation.free(n)).presentation
            assert free.invariant_factors() == (n * (n + 1) // 2, ())


def test_criterion_2_obstruction_torsion_of_the_regular_module():
    """Torsion of the sign-twisted coinvariants of the functor on the group
    ring of the order-two group is exactly Z/2."""
    with verdict(2):
        z2 = cyclic_group(2)
        w = nontrivial_char(z2)
        torsion = obstruction_torsion(z2, w, free_module(z2, 1))
        assert torsion.invariant_factors() == (0, (2,))


def test_criterion_3_split_module_coinvariants_and_count():
    """For the order-two group with the sign character and the module
    Z + Z-with-sign-action: coinvariants Z + Z/2 + Z/2 and count 4."""
    with verdict(3):
        z2 = cyclic_group(2)
        w = nontrivial_char(z2)
        pi2 = direct_sum_module(trivial_module(z2), sign_module(z2, w))
        from gammalab.classify import module_census
        report = module_census(z2, w, pi2)
        assert report.coinvariants.invariant_factors() == (1, (2, 2))
        assert report.count == 4


def test_criterion_4_involution_count_formula_on_all_bundled_groups():
    """For every bundled group and every character, the obstruction torsion
    on a free module of rank k is (Z/2)^(r k), where r directly counts the
    non-identity involutions g with w(g) = -1."""
    with verdict(4):
        for name in bundled_names("group"):
            group, characters = load_group(bundled_path("group", name))
            for cname, w in characters.items():
                r = sum(1 for g in range(1, group.order)
                        if group.mul(g, g) == 0 and w.values[g] == -1)
                assert involution_rank_formula(group, w) == r, (name, cname)
                for rank in (1, 2):
                    torsion = obstruction_torsion(group, w,
                                                  free_module(group, rank))
                    assert torsion.invariant_factors() == \
                        (0, (2,) * (r * rank)), (name, cname, rank)


def test_criterion_5_norm_quotient_coinvariants_all_bundled_pairs():
    """For every bundled (group, character): the quotient of the group ring
    by the signed norm has twisted coinvariants Z/|G| and trivial first
    derived functor."""
    with verdict(5):
        for name in bundled_names("group"):
            group, characters = load_group(bundled_path("group", name))
            for cname, w in characters.items():
                module = norm_quotient_module(group, w)
                result = twisted_coinvariants(module, w)
                expected = (0, ()) if group.order == 1 else \
                    (0, (group.order,))
                assert result.presentation.invariant_factors() == expected, \
                    (name, cname)
                assert tor_one(module, w).invariant_factors() == (0, ()), \
                    (name, cname)


def test_criterion_6_degree_four_split_with_both_providers():
    """The degree-four group of the rank-one two-type over the order-two
    group with the sign character is Z + Z/2 + Z/2; the homology summand
    Z/2 agrees between the periodic and bar resolution providers."""
    with verdict(6):
        z2 = cyclic_group(2)
        w = nontrivial_char(z2)
        module = free_module(z2, 1)
        for provider in ("cyclic", "bar"):
            split = h4_twotype_split(z2, w, module, provider=provider)
            assert split.total.invariant_factors() == (1, (2, 2)), provider
            assert split.homology_part.invariant_factors() == (0, (2,)), \
                provider


def test_criterion_7_census_count_of_the_bundled_twisted_identity_form():
    """The bundled rank-one identity form over the order-two group with the
    sign character counts exactly two classes."""
    with verdict(7):
        z2, characters = load_group(bundled_path("group", "z2"))
        w = characters["w"]
        form = load_form(bundled_path("form", "rp4cp2"), z2, w)
        report = census(QuadraticTwoType.from_form(z2, w, form))
        assert report.count == 2


# -- criterion 8: randomized property suites ---------------------------------


def _suite_functor_laws():
    """Evenness and the seven-term inclusion-exclusion identity of the
    square-expansion coordinates."""
    rng = random.Random(81)
    for _ in range(200):
        n = rng.randint(0, 5)
        a = [rng.randint(-7, 7) for _ in range(n)]
        b = [rng.randint(-7, 7) for _ in range(n)]
        c = [rng.randint(-7, 7) for _ in range(n)]
        assert expand_square([-x for x in a]) == expand_square(a)

        def vec(*parts):
            return [sum(t) for t in zip(*parts)] if parts else []

        total = expand_square(vec(a, b, c))
        for other, sign in [(vec(a, b), -1), (vec(a, c), -1), (vec(b, c), -1),
                            (a, 1), (b, 1), (c, 1)]:
            total = [t + sign * s
                     for t, s in zip(total, expand_square(other))]
        assert all(t == 0 for t in total)


def _suite_direct_sum_split():
    """On Z^a + Z^b with a + b <= 6 the value coordinates split into the two
    diagonal blocks plus an a*b cross block carrying the products."""
    rng = random.Random(82)
    for _ in range(200):
        a = rng.randint(0, 6)
        b = rng.randint(0, 6 - a)
        assert gamma_rank(a + b) == gamma_rank(a) + gamma_rank(b) + a * b
        first, mixed, second = split_indices(a, b)
        x = [rng.randint(-5, 5) for _ in range(a)]
        y = [rng.randint(-5, 5) for _ in range(b)]
        full = expand_square(x + y)
        assert [full[i] for i in first] == expand_square(x)
        assert [full[i] for i in second] == expand_square(y)
        assert sorted(full[i] for i in mixed) == \
            sorted(xi * yj for xi in x for yj in y)


def _suite_transfer_identities():
    """projection . transfer is multiplication by the index on the full
    coinvariants; on a normal subgroup, transfer . projection acts as the
    signed sum over coset representatives."""
    rng = random.Random(83)
    pool = [
        (cyclic_group(4), [2]), (cyclic_group(6), [3]),
        (cyclic_group(6), [2]), (klein_four_group(), [1]),
        (symmetric_group_3(), [1]), (dihedral_group_4(), [1]),
        (quaternion_group(), [2]),
    ]
    for case in range(200):
        group, gens = pool[case % len(pool)]
        data = subgroup_and_cosets(group, gens)
        w = rng.choice(all_characters(group))
        module = free_module(group, rng.randint(1, 2))
        full = twisted_coinvariants(module, w)
        tr = transfer_down(module, w, data)
        proj = induced_coinvariants_map(module, w, data)
        x = [rng.randint(-4, 4) for _ in range(full.presentation.ngens)]
        image = proj.compose(tr).apply(x)
        scaled = [data.index * v for v in x]
        assert full.presentation.elements_equal(image, scaled)

        # All pool subgroups happen to be normal; check the other composite.
        from gammalab.modules import restrict_module
        sub_res = twisted_coinvariants(
            restrict_module(module, data),
            w.restrict(data.elements, data.subgroup))
        y = [rng.randint(-3, 3) for _ in range(sub_res.presentation.ngens)]
        lifted = sub_res.section.mat_vec(y)
        total = [0] * module.underlying.ngens
        for rep in data.representatives:
            moved = module.act(rep, lifted)
            total = [t + w.values[rep] * v for t, v in zip(total, moved)]
        expected = sub_res.projection.apply(total)
        got = tr.compose(proj).apply(y)
        assert sub_res.presentation.elements_equal(got, expected)


def _suite_involution_antimultiplicative():
    """bar(x y) = bar(y) bar(x) for the w-twisted involution."""
    rng = random.Random(84)
    groups = [cyclic_group(4), cyclic_group(6), symmetric_group_3(),
              quaternion_group()]
    for case in range(200):
        group = groups[case % len(groups)]
        w = rng.choice(all_characters(group))
        x = GroupRingElement(group, [rng.randint(-4, 4)
                                     for _ in range(group.order)])
        y = GroupRingElement(group, [rng.randint(-4, 4)
                                     for _ in range(group.order)])
        assert bar_involution(group, w, x * y) == \
            bar_involution(group, w, y) * bar_involution(group, w, x)
        assert bar_involution(group, w, bar_involution(group, w, x)) == x


def _suite_hermitian_laws():
    """Hermitian closure output satisfies the matrix symmetry law and the
    value symmetry of the associated pairing."""
    rng = random.Random(85)
    groups = [cyclic_group(2), cyclic_group(4), symmetric_group_3()]
    for case in range(200):
        group = groups[case % len(groups)]
        w = rng.choice(all_characters(group))
        rank = rng.randint(1, 2)
        mat = [[GroupRingElement(group, [rng.randint(-3, 3)
                                         for _ in range(group.order)])
                for _ in range(rank)] for _ in range(rank)]
        form = hermitian_closure(group, w, mat)
        assert check_hermitian(form)
        for i in range(rank):
            for j in range(rank):
                assert form.entry(j, i) == \
                    bar_involution(group, w, form.entry(i, j))
        a = [GroupRingElement(group, [rng.randint(-3, 3)
                                      for _ in range(group.order)])
             for _ in range(rank)]
        b = [GroupRingElement(group, [rng.randint(-3, 3)
                                      for _ in range(group.order)])
             for _ in range(rank)]
        assert form.evaluate(b, a) == \
            bar_involution(group, w, form.evaluate(a, b))


def _suite_index_three_scaling():
    """Restricting along the index-three subgroup of Z/6 scales transferred
    coinvariant classes of form images by three."""
    rng = random.Random(86)
    z6 = cyclic_group(6)
    data = subgroup_and_cosets(z6, [3])
    assert data.index == 3
    for case in range(200):
        w = all_characters(z6)[case % 2]
        rank = 1 + case % 2
        mat = [[GroupRingElement(z6, [rng.randint(-3, 3)
                                      for _ in range(z6.order)])
                for _ in range(rank)] for _ in range(rank)]
        form = hermitian_closure(z6, w, mat)
        gamma = lambda_to_gamma(form)
        qmod = quadratic_module(free_module(z6, rank))
        full = twisted_coinvariants(qmod, w)
        tr = transfer_down(qmod, w, data)
        proj = induced_coinvariants_map(qmod, w, data)
        cls = full.projection.apply(gamma)
        back = proj.apply(tr.apply(cls))
        scaled = [data.index * v for v in cls]
        assert full.presentation.elements_equal(back, scaled)


def _suite_splitting_functional_existence():
    """Every bundled unimodular form whose character/group pair satisfies
    the existence hypotheses admits a splitting functional."""
    triv, tchars = load_group(bundled_path("group", "trivial"))
    unit = load_form(bundled_path("form", "trivial_unit"), triv,
                     tchars["trivial"])
    assert kappa_splitting(triv, tchars["trivial"], free_module(triv, 1),
                           unit) is not None
    z2, chars = load_group(bundled_path("group", "z2"))
    hyp = load_form(bundled_path("form", "z2_hyperbolic"), z2,
                    chars["trivial"])
    assert kappa_splitting(z2, chars["trivial"], free_module(z2, 1),
                           hyp) is not None


def test_criterion_8_randomized_property_suites():
    with verdict(8):
        start = time.monotonic()
        _suite_functor_laws()
        _suite_direct_sum_split()
        _suite_transfer_identities()
        _suite_involution_antimultiplicative()
        _suite_hermitian_laws()
        _suite_index_three_scaling()
        _suite_splitting_functional_existence()
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"property suites took {elapsed:.1f}s"


def test_criterion_9_integer_matrix_engine_soak():
    """500 random matrices up to 12x12 with entries in [-50, 50]: exact
    U M V = D with unimodular transforms and a divisibility chain."""
    with verdict(9):
        rng = random.Random(90)
        for _ in range(500):
            rows = rng.randint(0, 12)
            cols = rng.randint(0, 12)
            m = IntMatrix(rows, cols,
                          [[rng.randint(-50, 50) for _ in range(cols)]
                           for _ in range(rows)])
            result = smith_normal_form(m)
            assert result.u.mul(m).mul(result.v) == result.d
            assert det(result.u) in (1, -1)
            assert det(result.v) in (1, -1)
            diag = result.diagonal
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0
