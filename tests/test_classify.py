"""Hermitian intersection forms and the derived classification invariants.

Frozen oracle values in this file were computed by hand:

* the symmetric integer matrix underlying a rank-one form over Z[Z/2] and the
  coordinates of its image under the quadratic functor;
* the splitting functional over the trivial group (everything is visible in
  rank one);
* the parity facts over Z/2: the hyperbolic generator t gives the primitive
  coinvariant class (0, 1) and therefore admits a functional, while the
  identity coefficient gives the class 2 v1, which is divisible and admits
  none;
* the trace computation behind the third diagnostic for the order-two group
  with the identity form.

Randomized suites check sesquilinearity, equivariance of the functor image,
base-change invariance of the census, and the index-three transfer scaling.
The translation law ``value(h1 a, h2 b) = h1 value(a, b) bar(h2)`` and the
refusal of non-hermitian matrices are checked on every bundled group and
character; ``check_hermitian`` itself makes only the entrywise test.
"""

import json
import random

import pytest

from gammalab.abelian import AbelianPresentation, format_invariants
from gammalab.builtins import (
    cyclic_group,
    klein_four_group,
    quaternion_group,
    standard_library,
    symmetric_group_3,
    trivial_group,
)
from gammalab.classify import (
    CensusReport,
    HermitianForm,
    KappaDiagnostics,
    QuadraticTwoType,
    census,
    change_of_basis,
    check_hermitian,
    h4_twotype_split,
    hermitian_closure,
    involution_rank_formula,
    kappa_diagnostics,
    kappa_splitting,
    lambda_to_gamma,
    module_census,
    obstruction_torsion,
    random_unimodular_ring_matrix,
    stabilize,
    underlying_symmetric_matrix,
)
from gammalab.errors import (
    BudgetExceededError,
    IncompatibleInputError,
    SingularFormError,
    UnsupportedInputError,
)
from gammalab.gamma import expand_square, gamma_rank, induced_matrix
from gammalab.groups import (
    GroupRingElement,
    OrientationChar,
    all_characters,
    bar_involution,
    subgroup_and_cosets,
)
from gammalab import classify, cli, modules
from gammalab.intmat import IntMatrix
from gammalab.modules import (
    free_module,
    restrict_module,
    sign_module,
    transfer_down,
    trivial_module,
    twisted_coinvariants,
    direct_sum_module,
)
from gammalab.gamma import quadratic_module
from gammalab.serialize import bundled_names, bundled_path, load_group


def bundled_pairs():
    """(group name, character name) for every bundled group and character."""
    pairs = []
    for name in bundled_names("group"):
        _, chars = load_group(bundled_path("group", name))
        pairs.extend((name, char) for char in sorted(chars))
    return pairs


BUNDLED_PAIRS = bundled_pairs()


def load_pair(name, char):
    group, chars = load_group(bundled_path("group", name))
    return group, chars[char]


def nontrivial_char(group):
    for w in all_characters(group):
        if not w.is_trivial():
            return w
    raise AssertionError("no nontrivial character")


def random_ring_matrix(rng, group, rank, bound=3):
    return [[GroupRingElement(group, [rng.randint(-bound, bound)
                                      for _ in range(group.order)])
             for _ in range(rank)] for _ in range(rank)]


def random_hermitian(rng, group, w, rank, bound=3):
    return hermitian_closure(group, w, random_ring_matrix(rng, group, rank, bound))


def random_ring_vector(rng, group, rank, bound=3):
    return [GroupRingElement(group, [rng.randint(-bound, bound)
                                     for _ in range(group.order)])
            for _ in range(rank)]


# -- hermitian forms --------------------------------------------------------


def test_hermitian_closure_produces_hermitian_forms():
    rng = random.Random(71)
    pool = []
    for group in [cyclic_group(2), cyclic_group(4), symmetric_group_3(),
                  quaternion_group()]:
        for w in all_characters(group):
            pool.append((group, w))
    for case in range(250):
        group, w = pool[case % len(pool)]
        form = random_hermitian(rng, group, w, rng.randint(1, 2))
        assert check_hermitian(form)
        # The matrix condition: entry(j, i) = bar(entry(i, j)).
        for i in range(form.rank):
            for j in range(form.rank):
                assert form.entry(j, i) == bar_involution(group, w,
                                                          form.entry(i, j))


def test_check_hermitian_detects_violations():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    t = GroupRingElement.from_element(z4, 1)
    one = GroupRingElement.one(z4)
    zero = GroupRingElement.zero(z4)
    # Diagonal entry not bar-invariant: bar(t) = -t^3 != t.
    assert not check_hermitian(HermitianForm(z4, w, [[t]]))
    # Asymmetric off-diagonal pair.
    assert not check_hermitian(HermitianForm(z4, w, [[zero, one], [t, zero]]))
    # The identity form is fine.
    assert check_hermitian(HermitianForm(z4, w, [[one]]))


def test_evaluate_is_sesquilinear():
    """evaluate(a, b) = sum_ij a_i . entry(i, j) . bar(b_j): additive in both
    slots, ring-linear in the first, conjugate-linear in the second."""
    rng = random.Random(72)
    for case in range(250):
        group = [cyclic_group(2), cyclic_group(4), symmetric_group_3()][case % 3]
        w = all_characters(group)[case % len(all_characters(group))]
        rank = rng.randint(1, 2)
        form = random_hermitian(rng, group, w, rank)
        a = random_ring_vector(rng, group, rank)
        b = random_ring_vector(rng, group, rank)
        c = random_ring_vector(rng, group, rank)
        r = GroupRingElement(group, [rng.randint(-2, 2)
                                     for _ in range(group.order)])
        add_b = [x + y for x, y in zip(b, c)]
        assert form.evaluate(a, add_b) == form.evaluate(a, b) + form.evaluate(a, c)
        add_a = [x + y for x, y in zip(a, c)]
        assert form.evaluate(add_a, b) == form.evaluate(a, b) + form.evaluate(c, b)
        # First slot is linear over the ring.
        ra = [r * x for x in a]
        assert form.evaluate(ra, b) == r * form.evaluate(a, b)
        # Second slot is conjugate linear: scaling lands as bar(r) on the right.
        rb = [r * x for x in b]
        assert form.evaluate(a, rb) == form.evaluate(a, b) * \
            bar_involution(group, w, r)
        # Hermitian symmetry of values.
        assert form.evaluate(b, a) == bar_involution(group, w,
                                                     form.evaluate(a, b))


def translate(group, h, x):
    """``h * x`` for a group element ``h``, read off the group table."""
    out = [0] * group.order
    for g, c in enumerate(x.coeffs):
        out[group.table[h][g]] += c
    return GroupRingElement(group, out)


def test_bundled_pairs_cover_every_bundled_group():
    names = {name for name, _ in BUNDLED_PAIRS}
    assert names == {"trivial", "z2", "z3", "z4", "z6", "klein4", "s3", "d4",
                     "q8"}
    assert len(BUNDLED_PAIRS) == 22


@pytest.mark.parametrize("name,char", BUNDLED_PAIRS)
def test_evaluate_satisfies_the_translation_law(name, char):
    """value(h1 a, h2 b) = h1 value(a, b) bar(h2) for every pair of group
    elements, where bar(h) = w(h) h^-1.  Left translation by ``h`` is read
    off the group table, not from the ring product, so a product taken in
    the opposite order shows on the non-abelian groups."""
    group, w = load_pair(name, char)
    rng = random.Random(f"translation-law-{name}-{char}")
    for rank in (1, 2, 2):
        form = random_hermitian(rng, group, w, rank)
        a = random_ring_vector(rng, group, rank)
        b = random_ring_vector(rng, group, rank)
        value = form.evaluate(a, b)
        for h2 in range(group.order):
            bar_h2 = bar_involution(group, w,
                                    GroupRingElement.from_element(group, h2))
            assert bar_h2 == GroupRingElement.from_element(
                group, group.inverse[h2], w(h2))
            shifted_b = [translate(group, h2, y) for y in b]
            for h1 in range(group.order):
                left = form.evaluate([translate(group, h1, x) for x in a],
                                     shifted_b)
                assert left == translate(group, h1, value) * bar_h2, \
                    (name, char, rank, h1, h2)


def _breaking_coefficients(group, w):
    """Coefficients ``g`` at which adding 1 to a diagonal entry breaks
    ``entry == bar(entry)``: those with ``g != g^-1`` or ``w(g) = -1``."""
    return [g for g in range(group.order)
            if group.inverse[g] != g or w(g) == -1]


def _perturbed(form, i, j, g):
    rows = [[list(entry.coeffs) for entry in row] for row in form.matrix]
    rows[i][j][g] += 1
    return rows


@pytest.mark.parametrize("name,char", BUNDLED_PAIRS)
def test_one_perturbed_coefficient_is_refused(name, char, tmp_path, capsys):
    """Adding 1 to one coefficient of a hermitian form, off the diagonal or
    on it, makes ``check_hermitian`` false and ``census`` exit 2.  On the
    diagonal only a coefficient ``g`` with ``g != g^-1`` or ``w(g) = -1``
    can break the symmetry; where no such ``g`` exists (an elementary
    abelian 2-group with the trivial character) every diagonal perturbation
    stays hermitian."""
    group, w = load_pair(name, char)
    rng = random.Random(f"perturbed-{name}-{char}")
    form = random_hermitian(rng, group, w, 2)
    assert check_hermitian(form)
    breaking = _breaking_coefficients(group, w)
    cases = [(0, 1, rng.randrange(group.order))]
    if breaking:
        cases.append((1, 1, rng.choice(breaking)))
    else:
        for g in range(group.order):
            rows = _perturbed(form, 0, 0, g)
            assert check_hermitian(
                HermitianForm.from_coefficients(group, w, rows))
    module = free_module(group, 2)
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps({
        "ngens": module.underlying.ngens,
        "action": {str(g): module.action[g].data
                   for g in range(group.order)}}), encoding="utf-8")
    for i, j, g in cases:
        rows = _perturbed(form, i, j, g)
        assert not check_hermitian(
            HermitianForm.from_coefficients(group, w, rows)), (i, j, g)
        form_path = tmp_path / f"form_{i}{j}.json"
        form_path.write_text(json.dumps({"rank": 2, "matrix": rows}),
                             encoding="utf-8")
        code = cli.main(["census", "--group", name, "--character", char,
                         "--module", str(module_path),
                         "--form", str(form_path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not hermitian" in err
        assert "Traceback" not in err


def test_from_coefficients_round_trip():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    form = HermitianForm.from_coefficients(z2, w, [[[0, 1]]])
    assert form.rank == 1
    assert form.entry(0, 0).coeffs == (0, 1)
    with pytest.raises(IncompatibleInputError):
        HermitianForm.from_coefficients(z2, w, [[[0, 1], [1, 0]]])


# -- underlying symmetric matrix and the functor image ----------------------


def test_underlying_matrix_hand_case():
    """Rank one over Z/2 with sign character and identity coefficient: the
    basis is (e, t); pairing values give the diagonal matrix (1, -1)."""
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    form = HermitianForm.from_coefficients(z2, w, [[[1, 0]]])
    s = underlying_symmetric_matrix(form)
    assert s == IntMatrix(2, 2, [[1, 0], [0, -1]])
    assert lambda_to_gamma(form) == [1, -1, 0]


def test_underlying_matrix_is_symmetric_random():
    rng = random.Random(73)
    for case in range(200):
        group = [cyclic_group(2), cyclic_group(4), klein_four_group()][case % 3]
        w = all_characters(group)[case % len(all_characters(group))]
        form = random_hermitian(rng, group, w, rng.randint(1, 2))
        s = underlying_symmetric_matrix(form)
        n = form.rank * group.order
        assert s.shape == (n, n)
        assert s == s.transpose()


def test_lambda_to_gamma_hand_values():
    triv = trivial_group()
    wt = OrientationChar.trivial(triv)
    # <1> over the trivial group: the single square coordinate.
    assert lambda_to_gamma(HermitianForm.from_coefficients(triv, wt, [[[1]]])) == [1]
    # Hyperbolic plane: only the cross coordinate survives.
    hyp = HermitianForm.from_coefficients(triv, wt, [[[0], [1]], [[1], [0]]])
    assert lambda_to_gamma(hyp) == [0, 0, 1]
    # Over Z/2 with plain character, the coefficient t gives the off-diagonal
    # pairing of the two basis vectors e and t.
    z2 = cyclic_group(2)
    w2 = OrientationChar.trivial(z2)
    hyp2 = HermitianForm.from_coefficients(z2, w2, [[[0, 1]]])
    assert lambda_to_gamma(hyp2) == [0, 0, 1]


def test_lambda_to_gamma_rejects_non_hermitian():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    t = GroupRingElement.from_element(z4, 1)
    with pytest.raises(IncompatibleInputError):
        lambda_to_gamma(HermitianForm(z4, w, [[t]]))


def test_gamma_class_is_equivariant():
    """The functor image of a hermitian form satisfies G(P_g) gamma = w(g)
    gamma for every group element acting on the free module."""
    rng = random.Random(74)
    for case in range(200):
        group = [cyclic_group(2), cyclic_group(4), symmetric_group_3()][case % 3]
        w = all_characters(group)[case % len(all_characters(group))]
        rank = rng.randint(1, 2)
        form = random_hermitian(rng, group, w, rank)
        gamma = lambda_to_gamma(form)
        module = free_module(group, rank)
        for g in range(group.order):
            action = induced_matrix(module.action_matrix(g))
            moved = action.mat_vec(gamma)
            expected = [w.values[g] * v for v in gamma]
            assert moved == expected, (g, w.values)


def test_quadratic_value_pairing_against_evaluation():
    """Pairing the gamma class with the square of an integer vector gives the
    upper-triangle evaluation of the underlying symmetric matrix S, while the
    identity-coefficient of the ring self-pairing gives the full symmetric
    value: 2 (gamma . v(x)) = x^T S x + sum_i S_ii x_i^2 and
    lambda(x, x)_e = x^T S x."""
    rng = random.Random(75)
    for case in range(200):
        group = [cyclic_group(2), cyclic_group(4)][case % 2]
        w = all_characters(group)[case % 2]
        rank = rng.randint(1, 2)
        form = random_hermitian(rng, group, w, rank)
        gamma = lambda_to_gamma(form)
        s = underlying_symmetric_matrix(form).data
        n = rank * group.order
        xs = [rng.randint(-3, 3) for _ in range(n)]
        # As ring vectors: component i collects coefficients x[i*|G| + g].
        ring_vec = [GroupRingElement(group, xs[i * group.order:(i + 1) * group.order])
                    for i in range(rank)]
        value = sum(g * c for g, c in zip(gamma, expand_square(xs)))
        xsx = sum(xs[i] * s[i][j] * xs[j] for i in range(n) for j in range(n))
        diag = sum(s[i][i] * xs[i] * xs[i] for i in range(n))
        assert 2 * value == xsx + diag
        assert form.evaluate(ring_vec, ring_vec).ev0() == xsx


# -- two-types and stabilization --------------------------------------------


def test_two_type_validation():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    form = HermitianForm.from_coefficients(z2, w, [[[1, 0]]])
    q = QuadraticTwoType.from_form(z2, w, form)
    assert q.pi2.zpi_free_rank == 1
    # Mismatched rank.
    with pytest.raises(IncompatibleInputError):
        QuadraticTwoType(z2, w, free_module(z2, 2), form)
    # Non-free second homotopy module.
    with pytest.raises(UnsupportedInputError):
        QuadraticTwoType(z2, w, trivial_module(z2), form)
    # Nontrivial first Postnikov invariant is out of scope.
    with pytest.raises(UnsupportedInputError):
        QuadraticTwoType(z2, w, free_module(z2, 1), form,
                         k_invariant_trivial=False)
    # Character from another instance of the same group.
    other = cyclic_group(2)
    with pytest.raises(IncompatibleInputError):
        QuadraticTwoType(other, OrientationChar.trivial(other),
                         free_module(z2, 1), form)


def test_stabilize_extends_by_orthogonal_unit():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    form = HermitianForm.from_coefficients(z2, w, [[[0, 1]]])
    q = QuadraticTwoType.from_form(z2, w, form)
    for sign in (1, -1):
        bigger = stabilize(q, sign)
        assert bigger.form.rank == 2
        assert bigger.pi2.zpi_free_rank == 2
        # Old block unchanged, new diagonal is the signed identity, new
        # off-diagonal entries vanish.
        assert bigger.form.entry(0, 0) == form.entry(0, 0)
        assert bigger.form.entry(1, 1) == GroupRingElement.one(z2).scale(sign)
        assert bigger.form.entry(0, 1).is_zero()
        assert bigger.form.entry(1, 0).is_zero()
        assert check_hermitian(bigger.form)


def test_stabilize_gamma_class_extends_canonically():
    """Stabilization appends the expansion of the new unit vector with the
    orientation signs on its orbit and no cross terms."""
    z2 = cyclic_group(2)
    for w in all_characters(z2):
        form = hermitian_closure(
            z2, w, [[GroupRingElement(z2, [1, 1])]])
        q = QuadraticTwoType.from_form(z2, w, form)
        gamma_old = lambda_to_gamma(form)
        for sign in (1, -1):
            bigger = stabilize(q, sign)
            gamma_new = lambda_to_gamma(bigger.form)
            n_old = form.rank * 2
            n_new = bigger.form.rank * 2
            # Square coordinates: old ones first, then the new orbit with
            # w-signs on the diagonal.
            assert gamma_new[:n_old] == gamma_old[:n_old]
            for g in range(2):
                assert gamma_new[n_old + g] == sign * w.values[g]
            # All cross terms between old and new vanish; gather them via the
            # symmetric matrix instead of index bookkeeping.
            s_new = underlying_symmetric_matrix(bigger.form)
            for i in range(n_old):
                for j in range(n_old, n_new):
                    assert s_new.data[i][j] == 0


# -- the splitting functional -----------------------------------------------


def test_kappa_splitting_trivial_group():
    triv = trivial_group()
    wt = OrientationChar.trivial(triv)
    module = free_module(triv, 1)
    unit = HermitianForm.from_coefficients(triv, wt, [[[1]]])
    f = kappa_splitting(triv, wt, module, unit)
    assert f == [1]
    doubled = HermitianForm.from_coefficients(triv, wt, [[[2]]])
    assert kappa_splitting(triv, wt, module, doubled) is None


def test_kappa_splitting_parity_over_order_two():
    """Over Z/2 with the plain character the coinvariants of the functor are
    generated by v1 and w12 with the relation v1 = v2; the class of the
    identity form is 2 v1 (divisible, no functional) while the hyperbolic
    coefficient t lands on w12 = (0, 1) (primitive, functional exists)."""
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    module = free_module(z2, 1)
    hyperbolic = HermitianForm.from_coefficients(z2, w, [[[0, 1]]])
    f = kappa_splitting(z2, w, module, hyperbolic)
    assert f is not None
    # The functional must take value one on the class of the form.
    result = twisted_coinvariants(quadratic_module(module), w)
    cls = result.projection.apply(lambda_to_gamma(hyperbolic))
    assert sum(a * b for a, b in zip(f, cls)) == 1

    identity = HermitianForm.from_coefficients(z2, w, [[[1, 0]]])
    assert kappa_splitting(z2, w, module, identity) is None
    cls2 = result.projection.apply(lambda_to_gamma(identity))
    # The class is twice a generator.
    assert result.presentation.is_primitive_mod_torsion(cls2) is False


def test_kappa_splitting_exists_for_bundled_hypothesis_forms():
    """Both bundled forms that satisfy the existence hypotheses (unimodular
    identity block; plain character or tiny two-part) admit a functional."""
    triv = trivial_group()
    wt = OrientationChar.trivial(triv)
    assert kappa_splitting(
        triv, wt, free_module(triv, 1),
        HermitianForm.from_coefficients(triv, wt, [[[1]]])) is not None
    z2 = cyclic_group(2)
    w2 = OrientationChar.trivial(z2)
    assert kappa_splitting(
        z2, w2, free_module(z2, 1),
        HermitianForm.from_coefficients(z2, w2, [[[0, 1]]])) is not None


def test_kappa_splitting_transfer_scaling_on_index_three_subgroup():
    """Restricting a form over Z/6 to the two-element subgroup multiplies
    transferred coinvariant classes by the index three; checked on random
    hermitian forms via the transfer of the quadratic module."""
    rng = random.Random(76)
    z6 = cyclic_group(6)
    data = subgroup_and_cosets(z6, [3])
    assert data.index == 3
    from gammalab.modules import induced_coinvariants_map
    cases = 0
    while cases < 200:
        w = all_characters(z6)[cases % 2]
        rank = 1 + (cases % 2)
        form = random_hermitian(rng, z6, w, rank)
        gamma = lambda_to_gamma(form)
        module = free_module(z6, rank)
        qmod = quadratic_module(module)
        full = twisted_coinvariants(qmod, w)
        tr = transfer_down(qmod, w, data)
        proj = induced_coinvariants_map(qmod, w, data)
        cls = full.projection.apply(gamma)
        down = tr.apply(cls)
        back = proj.apply(down)
        scaled = [data.index * v for v in cls]
        assert full.presentation.elements_equal(back, scaled)
        cases += 1


# -- diagnostics ------------------------------------------------------------


def test_kappa_diagnostics_trivial_group():
    triv = trivial_group()
    wt = OrientationChar.trivial(triv)
    module = free_module(triv, 1)
    unit = HermitianForm.from_coefficients(triv, wt, [[[1]]])
    d = kappa_diagnostics(triv, wt, module, unit, chi=3)
    assert d.kappa1 == 1
    assert d.kappa2 == 1
    assert d.kappa3 is None
    assert d.kappa3_status == "undefined: no central involution with sign +1"
    # chi agreement: |G| chi - 2 = 1 requires chi = 3.
    assert d.chi_consistent is True
    d2 = kappa_diagnostics(triv, wt, module, unit, chi=4)
    assert d2.chi_consistent is False


def test_kappa_diagnostics_order_two_identity_form():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    module = free_module(z2, 1)
    identity = HermitianForm.from_coefficients(z2, w, [[[1, 0]]])
    d = kappa_diagnostics(z2, w, module, identity)
    assert d.kappa1 == 2
    assert d.kappa2 == 2
    assert d.kappa3_status == "ok"
    assert d.involution == 1
    # P_tau has no fixed basis vectors, so the twisted trace vanishes.
    assert d.involution_trace == 0
    assert d.kappa3 == 0


def test_kappa_diagnostics_involution_filtering():
    """With the sign character on Z/2 the only involution carries sign -1, so
    the third diagnostic is undefined even though the group is a 2-group."""
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    module = free_module(z2, 1)
    identity = HermitianForm.from_coefficients(z2, w, [[[1, 0]]])
    d = kappa_diagnostics(z2, w, module, identity)
    assert d.kappa3 is None
    assert d.kappa3_status == "undefined: no central involution with sign +1"


def test_kappa_diagnostics_requires_two_group():
    z3 = cyclic_group(3)
    wt = OrientationChar.trivial(z3)
    module = free_module(z3, 1)
    form = HermitianForm.from_coefficients(z3, wt, [[[1, 0, 0]]])
    d = kappa_diagnostics(z3, wt, module, form)
    assert d.kappa3 is None
    assert d.kappa3_status == "undefined: the group is not a 2-group"
    assert d.kappa1 == 3 and d.kappa2 == 3


def test_kappa_diagnostics_rejects_singular_forms():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    module = free_module(z2, 1)
    singular = HermitianForm.from_coefficients(z2, w, [[[1, 1]]])
    with pytest.raises(SingularFormError) as info:
        kappa_diagnostics(z2, w, module, singular)
    assert "determinant" in str(info.value)


def test_kappa_diagnostics_quaternion_central_involution():
    q8 = quaternion_group()
    wt = OrientationChar.trivial(q8)
    module = free_module(q8, 1)
    identity = HermitianForm.from_coefficients(
        q8, wt, [[[1, 0, 0, 0, 0, 0, 0, 0]]])
    d = kappa_diagnostics(q8, wt, module, identity)
    assert d.kappa1 == 8
    assert d.kappa2 == 8
    assert d.kappa3_status == "ok"
    assert d.involution == 1  # the unique central element of order two
    assert d.involution_trace == 0
    assert d.kappa3 == 0


# -- obstruction torsion and counting ---------------------------------------


def test_obstruction_torsion_values():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    wt = OrientationChar.trivial(z2)
    assert obstruction_torsion(z2, w, free_module(z2, 1))\
        .invariant_factors() == (0, (2,))
    # With the plain character the folded orbits carry sign +1 and produce
    # no torsion at all.
    assert obstruction_torsion(z2, wt, free_module(z2, 1))\
        .invariant_factors() == (0, ())
    assert obstruction_torsion(z2, w, free_module(z2, 2))\
        .invariant_factors() == (0, (2, 2))
    triv = trivial_group()
    assert obstruction_torsion(triv, OrientationChar.trivial(triv),
                               free_module(triv, 3))\
        .invariant_factors() == (0, ())


def test_obstruction_torsion_all_small_groups():
    """For every built-in group and character the torsion of the coinvariants
    of the functor on a free module is elementary abelian of rank exactly
    (module rank) times the constant produced by the involution formula."""
    for name, group in standard_library().items():
        for w in all_characters(group):
            r = involution_rank_formula(group, w)
            for rank in (1, 2):
                torsion = obstruction_torsion(group, w, free_module(group, rank))
                assert torsion.invariant_factors() == \
                    (0, (2,) * (r * rank)), (name, w.values, rank)


def test_involution_rank_formula_counts():
    z2 = cyclic_group(2)
    assert involution_rank_formula(z2, OrientationChar.trivial(z2)) == 0
    assert involution_rank_formula(z2, nontrivial_char(z2)) == 1
    k4 = klein_four_group()
    assert involution_rank_formula(k4, OrientationChar.trivial(k4)) == 0
    for w in all_characters(k4):
        if not w.is_trivial():
            assert involution_rank_formula(k4, w) == 2
    # The unique involution of the quaternion group is a square, so every
    # character sends it to +1 and the constant vanishes.
    q8 = quaternion_group()
    for w in all_characters(q8):
        assert involution_rank_formula(q8, w) == 0
    triv = trivial_group()
    assert involution_rank_formula(triv, OrientationChar.trivial(triv)) == 0


def _count_involutions_by_hand(group, w):
    # An involution s folds the basis orbit {h, hs} in the symmetric square;
    # the folded pair contributes two-torsion to the twisted coinvariants
    # exactly when the identification carries sign w(s) = -1, so the rank
    # constant counts s with s^2 = e, s != e, and w(s) = -1.
    total = 0
    for g in range(1, group.order):
        if group.mul(g, g) == 0 and w.values[g] == -1:
            total += 1
    return total


def test_involution_rank_formula_against_direct_count():
    for name, group in standard_library().items():
        for w in all_characters(group):
            assert involution_rank_formula(group, w) == \
                _count_involutions_by_hand(group, w), (name, w.values)


# -- census -----------------------------------------------------------------


def make_two_type(group, w, coeff_rows):
    form = HermitianForm.from_coefficients(group, w, coeff_rows)
    return QuadraticTwoType.from_form(group, w, form)


def test_census_rank_one_over_order_two_twisted():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    q = make_two_type(z2, w, [[[1, 0]]])
    report = census(q)
    assert isinstance(report, CensusReport)
    assert report.group_order == 2
    assert report.free_rank == 1
    assert report.torsion.invariant_factors() == (0, (2,))
    assert report.count == 2
    assert report.involution_rank == 1
    assert report.torsion_matches_involution_formula is True
    assert report.norm_quotient_is_cyclic_of_group_order is True
    assert report.norm_quotient_tor_trivial is True
    assert report.lambda_primitive is False


def test_census_reports_the_norm_quotient_in_closed_form(monkeypatch):
    """Neither report builds the norm quotient or its first derived
    functor: Z/|G| and Tor_1 = 0 are reported in closed form.
    ``test_modules.test_coinvariants_of_norm_quotient`` checks that closed
    form against the computed route."""
    def refuse(*args, **kwargs):
        raise AssertionError("the census computed a norm-quotient fact")

    for owner in (modules, classify):
        for attr in ("tor_one", "norm_quotient_module"):
            monkeypatch.setattr(owner, attr, refuse, raising=False)
    for name, group in standard_library().items():
        cyclic = (group.order,) if group.order > 1 else ()
        for w in all_characters(group):
            unit = [[[1] + [0] * (group.order - 1)]]
            for report in (census(make_two_type(group, w, unit)),
                           module_census(group, w, free_module(group, 1))):
                quotient = report.norm_quotient_coinvariants
                assert quotient.invariant_factors() == (0, cyclic), name
                assert quotient.describe() == format_invariants(0, cyclic)
                assert report.norm_quotient_is_cyclic_of_group_order is True
                assert report.norm_quotient_tor_trivial is True


def test_census_trivial_group_unit_form():
    triv = trivial_group()
    wt = OrientationChar.trivial(triv)
    report = census(make_two_type(triv, wt, [[[1]]]))
    assert report.count == 1
    assert report.torsion.invariant_factors() == (0, ())
    assert report.kappa_functional is not None
    assert report.lambda_primitive is True


def test_census_hyperbolic_over_order_two():
    """With the plain character there is no obstruction torsion, so exactly
    one class remains and the hyperbolic generator is primitive."""
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    report = census(make_two_type(z2, w, [[[0, 1]]]))
    assert report.count == 1
    assert report.torsion.invariant_factors() == (0, ())
    assert report.lambda_primitive is True
    assert report.kappa_functional is not None


def test_census_requires_hermitian_form():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    t = GroupRingElement.from_element(z4, 1)
    # Constructing the two-type only checks shapes; the census checks the
    # hermitian condition before reporting.
    q = QuadraticTwoType.from_form(z4, w, HermitianForm(z4, w, [[t]]))
    with pytest.raises(IncompatibleInputError) as info:
        census(q)
    assert "hermitian" in str(info.value)


def test_module_census_on_split_module():
    """Census of the non-free module Z + Z-with-sign-action over Z/2: the
    coinvariants are Z + Z/2 + Z/2 and the count enumerates the four torsion
    classes."""
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    pi2 = direct_sum_module(trivial_module(z2), sign_module(z2, w))
    report = module_census(z2, w, pi2)
    assert report.free_rank is None
    assert report.coinvariants.invariant_factors() == (1, (2, 2))
    assert report.count == 4
    assert report.torsion_matches_involution_formula is None
    assert report.lambda_class is None


def test_module_census_refuses_orbit_projection_over_budget(tmp_path,
                                                            capsys):
    """The trivial module of rank 80 over the trivial group passes the
    first estimate (functor value rank 3,240 times order 1), but its 3,240
    orbits need a 3,240 x 3,240 projection.  The refusal repeats, with the
    same message, after an unbounded call has kept the orbits."""
    group = trivial_group()
    w = OrientationChar.trivial(group)
    with pytest.raises(BudgetExceededError,
                       match="3240 orbits by 3240 basis vectors") as cold:
        module_census(group, w, trivial_module(group, 80))
    kept = trivial_module(group, 80)
    assert module_census(group, w, kept, budget=None).coinvariants.ngens == 3240
    with pytest.raises(BudgetExceededError) as warm:
        module_census(group, w, kept)
    assert str(warm.value) == str(cold.value)
    module = tmp_path / "m.json"
    module.write_text(json.dumps({"ngens": 80, "action": {
        "0": IntMatrix.identity(80).data}}))
    code = cli.main(["census", "--group", "trivial", "--module", str(module)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "3240 orbits" in err


def test_orbit_projection_budget_admits_every_bundled_small_case():
    """Every bundled group and character at rank <= 3, and d4 at rank 4
    (about 76 orbits of 528 basis vectors), stay within the default budget."""
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            for rank in (1, 2, 3, 4) if name == "d4" else (1, 2, 3):
                report = module_census(group, w, free_module(group, rank))
                assert report.count == 2 ** (
                    involution_rank_formula(group, w) * rank), (name, rank)


def test_census_count_is_torsion_order():
    rng = random.Random(77)
    for case in range(40):
        group = [cyclic_group(2), cyclic_group(3), cyclic_group(4)][case % 3]
        w = all_characters(group)[case % len(all_characters(group))]
        rank = 1 + case % 2
        form = random_hermitian(rng, group, w, rank)
        q = QuadraticTwoType.from_form(group, w, form)
        report = census(q)
        assert report.count == report.torsion.torsion_order()
        assert report.coinvariants.rank == report.torsion.rank == 0 or \
            report.count == report.torsion.torsion_order()


def test_census_is_base_change_invariant():
    """Changing the free basis by a random unimodular ring matrix must not
    change the census count, the primitivity verdict, or the existence of a
    splitting functional."""
    rng = random.Random(78)
    cases = 0
    while cases < 200:
        group = [trivial_group(), cyclic_group(2), cyclic_group(3)][cases % 3]
        w = all_characters(group)[cases % len(all_characters(group))]
        rank = 1 + cases % 2
        form = random_hermitian(rng, group, w, rank)
        base = census(QuadraticTwoType.from_form(group, w, form))
        basis = random_unimodular_ring_matrix(group, rank, rng)
        moved = change_of_basis(form, basis)
        assert check_hermitian(moved)
        got = census(QuadraticTwoType.from_form(group, w, moved))
        assert got.count == base.count
        assert got.torsion.invariant_factors() == \
            base.torsion.invariant_factors()
        assert got.lambda_primitive == base.lambda_primitive
        assert (got.kappa_functional is None) == \
            (base.kappa_functional is None)
        cases += 1


# -- degree four split ------------------------------------------------------


def test_h4_split_values():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    split = h4_twotype_split(z2, w, free_module(z2, 1))
    assert split.total.invariant_factors() == (1, (2, 2))
    assert split.coinvariants_part.invariant_factors() == (1, (2,))
    assert split.homology_part.invariant_factors() == (0, (2,))

    wt = OrientationChar.trivial(z2)
    split2 = h4_twotype_split(z2, wt, free_module(z2, 1))
    assert split2.coinvariants_part.invariant_factors() == (2, ())
    assert split2.homology_part.invariant_factors() == (0, ())
    assert split2.total.invariant_factors() == (2, ())

    triv = trivial_group()
    split3 = h4_twotype_split(triv, OrientationChar.trivial(triv),
                              free_module(triv, 1))
    assert split3.total.invariant_factors() == (1, ())


def test_h4_split_providers_agree():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    module = free_module(z2, 1)
    a = h4_twotype_split(z2, w, module, provider="cyclic")
    b = h4_twotype_split(z2, w, module, provider="bar")
    assert a.total.invariant_factors() == b.total.invariant_factors()
    assert a.homology_part.invariant_factors() == \
        b.homology_part.invariant_factors()


def test_h4_split_requires_free_module():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    with pytest.raises(UnsupportedInputError):
        h4_twotype_split(z2, w, trivial_module(z2))
