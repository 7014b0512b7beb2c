"""Twisted group homology in degrees up to four.

Independent oracles frozen into this file:

* closed forms for cyclic groups (alternating kernel/image pattern of the
  periodic complex, worked out by hand for both the plain and the sign-twisted
  coefficients);
* the Kuenneth formula for the Klein four group, expanded by hand from the
  two tensor factors, including all three nontrivial characters;
* degree-one homology = abelianization, read off the presentations of the
  built-in groups;
* classical values for the symmetric group on three letters, including the
  sign-twisted row derived from its semidirect-product spectral sequence;
* degree three of the order-eight groups: ``H_3(Q8; Z) = Z/8`` from the
  4-periodic resolution of the generalized quaternion groups (Cartan &
  Eilenberg, *Homological Algebra*, XII.7), which also gives
  ``H_4(Q8; Z) = 0``, and ``H_3(D4; Z) = Z/2 + Z/2 + Z/4`` for the
  dihedral group of order eight.

Where two providers can compute the same group (inductive chain construction
vs. the periodic pattern) they are required to agree exactly.
"""

import pytest

from gammalab.builtins import (
    cyclic_group,
    dihedral_group_4,
    direct_product,
    klein_four_group,
    quaternion_group,
    standard_library,
    symmetric_group_3,
    trivial_group,
)
from gammalab.errors import BudgetExceededError, IncompatibleInputError, \
    UnsupportedInputError
from gammalab import groups
from gammalab.groups import OrientationChar, all_characters
from gammalab.homology import (
    MAX_DEGREE,
    group_homology,
    homology_orbits,
    homology_with_basis,
    induced_homology_maps,
)
from gammalab.intmat import IntMatrix
from gammalab.resolutions import chain_resolution, periodic_resolution


def nontrivial_char(group):
    for w in all_characters(group):
        if not w.is_trivial():
            return w
    raise AssertionError("no nontrivial character")


def cyclic_closed_form(n, twisted, k):
    """Hand oracle for the degree-k homology of Z/n.

    Plain coefficients: Z, Z/n, 0, Z/n, 0, ...  Sign-twisted coefficients
    (n even): the periodic complex alternates multiplication by -2 and by 0,
    giving Z/2 in even degrees and 0 in odd ones.
    """
    if not twisted:
        if k == 0:
            return (1, ())
        if k % 2 == 1:
            return (0, ()) if n == 1 else (0, (n,))
        return (0, ())
    assert n % 2 == 0
    return (0, (2,)) if k % 2 == 0 else (0, ())


# -- chain level helpers ----------------------------------------------------


def test_quotient_of_kernel_by_image_hand_cases():
    # Circle: single vertex, single edge with zero boundary.
    h0 = homology_with_basis(IntMatrix(0, 1), IntMatrix(1, 1, [[0]]))[0]
    assert h0.invariant_factors() == (1, ())
    # Projective plane: attach a disc along the square of the edge.
    h1 = homology_with_basis(IntMatrix(1, 1, [[0]]),
                             IntMatrix(1, 1, [[2]]))[0]
    assert h1.invariant_factors() == (0, (2,))
    # Torus degree one: two circles, zero maps everywhere.
    h1 = homology_with_basis(IntMatrix(1, 2, [[0, 0]]),
                             IntMatrix(2, 1, [[0], [0]]))[0]
    assert h1.invariant_factors() == (2, ())


def test_quotient_rejects_non_complexes():
    with pytest.raises(IncompatibleInputError):
        homology_with_basis(IntMatrix(1, 1, [[2]]),
                            IntMatrix(1, 1, [[1]]))


def test_homology_with_basis_returns_cycle_lifts():
    pres, basis = homology_with_basis(IntMatrix(1, 1, [[0]]),
                                      IntMatrix(1, 1, [[2]]))
    assert pres.invariant_factors() == (0, (2,))
    # The basis column is an actual cycle generating the quotient.
    assert basis.shape == (1, 1)
    assert basis.data[0][0] % 2 == 1


# -- cyclic groups against the closed form ----------------------------------


def test_cyclic_homology_closed_form_plain():
    for n in range(1, 9):
        group = cyclic_group(n)
        w = OrientationChar.trivial(group)
        for k in range(MAX_DEGREE + 1):
            got = group_homology(group, w, k).invariant_factors()
            assert got == cyclic_closed_form(n, False, k), (n, k)


def test_cyclic_homology_closed_form_twisted():
    for n in range(2, 9, 2):
        group = cyclic_group(n)
        w = nontrivial_char(group)
        for k in range(MAX_DEGREE + 1):
            got = group_homology(group, w, k).invariant_factors()
            assert got == cyclic_closed_form(n, True, k), (n, k)


def test_providers_agree_on_cyclic_groups():
    cases = [(2, 4), (3, 4), (4, 4), (5, 3), (6, 2)]
    for n, top in cases:
        group = cyclic_group(n)
        for w in all_characters(group):
            for k in range(top + 1):
                via_periodic = group_homology(group, w, k, provider="cyclic")
                via_chain = group_homology(group, w, k, provider="bar")
                assert via_periodic.invariant_factors() == \
                    via_chain.invariant_factors(), (n, k, w.values)


def test_explicit_resolution_is_honored():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    res = periodic_resolution(z4, 5)
    got = group_homology(z4, w, 4, resolution=res)
    assert got.invariant_factors() == (0, (2,))
    # A longer-than-needed chain resolution also works.
    z2 = cyclic_group(2)
    res2 = chain_resolution(z2, 5)
    got2 = group_homology(z2, nontrivial_char(z2), 2, resolution=res2)
    assert got2.invariant_factors() == (0, (2,))


# -- Klein four group against the Kuenneth expansion ------------------------


def test_klein_four_plain_coefficients():
    k4 = klein_four_group()
    w = OrientationChar.trivial(k4)
    expected = [(1, ()), (0, (2, 2)), (0, (2,)), (0, (2, 2, 2)), (0, (2, 2))]
    got = [group_homology(k4, w, k).invariant_factors() for k in range(5)]
    assert got == expected


def test_klein_four_twisted_coefficients():
    """All three sign characters give the same answer (the automorphism group
    permutes them); the common value comes from the tensor decomposition of
    the coefficient line over the two factors."""
    k4 = klein_four_group()
    expected = [(0, (2,)), (0, (2,)), (0, (2, 2)), (0, (2, 2)), (0, (2, 2, 2))]
    for w in all_characters(k4):
        if w.is_trivial():
            continue
        got = [group_homology(k4, w, k).invariant_factors() for k in range(5)]
        assert got == expected, w.values


# -- degree one is the abelianization ---------------------------------------


def test_degree_one_matches_abelianization():
    expected = {
        "trivial": (0, ()),
        "z2": (0, (2,)),
        "z3": (0, (3,)),
        "z4": (0, (4,)),
        "z6": (0, (6,)),
        "klein4": (0, (2, 2)),
        "s3": (0, (2,)),
        "d4": (0, (2, 2)),
        "q8": (0, (2, 2)),
    }
    for name, group in standard_library().items():
        w = OrientationChar.trivial(group)
        assert group_homology(group, w, 1).invariant_factors() == \
            expected[name], name


def test_degree_zero_is_plain_or_halved_integers():
    for group in standard_library().values():
        for w in all_characters(group):
            got = group_homology(group, w, 0).invariant_factors()
            if w.is_trivial():
                assert got == (1, ())
            else:
                assert got == (0, (2,))


# -- symmetric group on three letters ---------------------------------------


def test_s3_classical_values():
    s3 = symmetric_group_3()
    w = OrientationChar.trivial(s3)
    assert group_homology(s3, w, 1).invariant_factors() == (0, (2,))
    assert group_homology(s3, w, 2).invariant_factors() == (0, ())
    # Degree three needs a deeper resolution than the default budget allows.
    with pytest.raises(BudgetExceededError):
        group_homology(s3, w, 3)
    assert group_homology(s3, w, 3, budget=600000)\
        .invariant_factors() == (0, (6,))


def test_s3_sign_twisted_values():
    # Derived by hand from the extension 1 -> Z/3 -> S3 -> Z/2 -> 1: the
    # quotient acts on the homology of the kernel by inversion, and the sign
    # twist flips the action again, leaving [Z/2, Z/3, Z/2, 0].
    s3 = symmetric_group_3()
    w = nontrivial_char(s3)
    expected = [(0, (2,)), (0, (3,)), (0, (2,)), (0, ())]
    got = [group_homology(s3, w, k, budget=600000).invariant_factors()
           for k in range(4)]
    assert got == expected


def test_order_eight_groups_degree_one():
    # Both nonabelian groups of order eight abelianize to Z/2 + Z/2.
    for group in (dihedral_group_4(), quaternion_group()):
        w = OrientationChar.trivial(group)
        assert group_homology(group, w, 1).invariant_factors() == (0, (2, 2))


# Degree three of an order-eight group needs the chain resolution of length
# four, which costs 6,725,600 budget units.
ORDER_EIGHT_DEGREE_THREE_BUDGET = 7_000_000


def test_quaternion_group_degree_three():
    q8 = quaternion_group()
    w = OrientationChar.trivial(q8)
    got = group_homology(q8, w, 3, budget=ORDER_EIGHT_DEGREE_THREE_BUDGET)
    assert got.invariant_factors() == (0, (8,))


def test_quaternion_group_degree_four():
    # Period four: H_4(Q8; Z) = H^5(Q8; Z) = 0.  The chain resolution of
    # length five costs 329,554,456 budget units.
    q8 = quaternion_group()
    w = OrientationChar.trivial(q8)
    with pytest.raises(BudgetExceededError):
        group_homology(q8, w, 4, budget=329_554_455)
    got = group_homology(q8, w, 4, budget=329_554_456)
    assert got.invariant_factors() == (0, ())


def test_dihedral_group_degree_three():
    d4 = dihedral_group_4()
    w = OrientationChar.trivial(d4)
    got = group_homology(d4, w, 3, budget=ORDER_EIGHT_DEGREE_THREE_BUDGET)
    assert got.invariant_factors() == (0, (2, 2, 4))


# -- parameter validation ---------------------------------------------------


def test_degree_bounds():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    with pytest.raises(UnsupportedInputError):
        group_homology(z2, w, MAX_DEGREE + 1)
    with pytest.raises(UnsupportedInputError):
        group_homology(z2, w, -1)


def test_provider_validation():
    s3 = symmetric_group_3()
    w = OrientationChar.trivial(s3)
    with pytest.raises(UnsupportedInputError):
        group_homology(s3, w, 1, provider="cyclic")
    with pytest.raises(UnsupportedInputError):
        group_homology(s3, w, 1, provider="simplicial")


def test_short_resolution_is_rejected():
    z4 = cyclic_group(4)
    w = OrientationChar.trivial(z4)
    short = periodic_resolution(z4, 2)
    with pytest.raises(UnsupportedInputError) as info:
        group_homology(z4, w, 4, resolution=short)
    assert "length" in str(info.value)


# -- induced maps and orbits ------------------------------------------------


def test_induced_maps_on_cyclic_four():
    z4 = cyclic_group(4)
    w = OrientationChar.trivial(z4)
    pres, homs = induced_homology_maps(z4, w, 1)
    assert pres.invariant_factors() == (0, (4,))
    assert len(homs) == 2
    # The two automorphisms act on degree-one classes as +1 and -1.
    images = sorted(h.apply([1])[0] % 4 for h in homs)
    assert images == [1, 3]


def test_orbit_report_cyclic_three_degree_three():
    # Z/3 in degree three: the nontrivial automorphism acts trivially there
    # (it scales odd-degree classes by the square of the unit), so only
    # negation folds the classes: {0}, {1, 2}.
    z3 = cyclic_group(3)
    report = homology_orbits(z3, OrientationChar.trivial(z3), 3)
    assert report.presentation.invariant_factors() == (0, (3,))
    assert report.automorphism_count == 2
    assert report.orbit_count == 2
    assert report.orbits == [((0,), 1), ((1,), 2)]


def test_orbit_report_klein_four_degree_one():
    # The automorphism group permutes the three nonzero classes transitively.
    k4 = klein_four_group()
    report = homology_orbits(k4, OrientationChar.trivial(k4), 1)
    assert report.automorphism_count == 6
    assert report.orbit_count == 2
    assert sorted(size for _, size in report.orbits) == [1, 3]


def test_orbit_report_cyclic_four_degree_one():
    # Classes of Z/4 under negation: {0}, {1, 3}, {2}.
    z4 = cyclic_group(4)
    report = homology_orbits(z4, OrientationChar.trivial(z4), 1)
    assert report.orbit_count == 3
    assert report.orbits == [((0,), 1), ((1,), 2), ((2,), 1)]


def test_orbit_report_twisted_top_degree():
    # Sign-twisted degree four over the two-element group: two fixed classes.
    z2 = cyclic_group(2)
    report = homology_orbits(z2, nontrivial_char(z2), 4)
    assert report.presentation.invariant_factors() == (0, (2,))
    assert report.free_rank == 0
    assert report.orbit_count == 2
    assert report.orbits == [((0,), 1), ((1,), 1)]


def test_orbit_budget_counts_torsion_order_and_automorphisms():
    # H_3(Z/6) = Z/6 with two automorphisms: 6 x (1 + 2 x 2) = 30.  The
    # periodic resolution has no cost of its own, so only the orbit
    # enumeration meets the budget.
    z6 = cyclic_group(6)
    w = OrientationChar.trivial(z6)
    report = homology_orbits(z6, w, 3, budget=30)
    assert report.orbit_count == 4
    with pytest.raises(BudgetExceededError) as info:
        homology_orbits(z6, w, 3, budget=29)
    message = str(info.value)
    assert "cost 30 exceeds budget 29" in message
    assert "torsion order 6" in message
    assert "2 character-preserving automorphisms" in message


def test_orbit_budget_on_the_chain_resolution():
    # H_3 of the Klein four group is (Z/2)^3 with six automorphisms, an
    # orbit cost of 8 x 13 = 104, far below the 9,840 of its resolution.
    k4 = klein_four_group()
    w = OrientationChar.trivial(k4)
    report = homology_orbits(k4, w, 3, budget=9_840)
    assert report.presentation.torsion_order() == 8
    assert report.automorphism_count == 6
    assert report.orbit_count == 4
    with pytest.raises(BudgetExceededError) as info:
        homology_orbits(k4, w, 3, budget=9_839)
    assert "resolution cost 9840" in str(info.value)


# (group, index in ``all_characters``) -> invariants, automorphism count,
# orbit count and sorted orbit sizes of H_3, frozen from a run of the
# kernel-basis route (``homology_with_basis`` with ``SNFSolver``), which
# took 123-537 s per character.
ORDER_EIGHT_DEGREE_THREE_ORBITS = {
    ("d4", 0): ((0, (2, 2, 4)), 8, 9, [1, 1, 1, 1, 2, 2, 2, 2, 4]),
    ("d4", 1): ((0, (2, 2)), 8, 3, [1, 1, 2]),
    ("d4", 2): ((0, (2, 2)), 4, 4, [1, 1, 1, 1]),
    ("d4", 3): ((0, (2, 2)), 4, 4, [1, 1, 1, 1]),
    ("q8", 0): ((0, (8,)), 24, 5, [1, 1, 2, 2, 2]),
    ("q8", 1): ((0, ()), 8, 1, [1]),
    ("q8", 2): ((0, ()), 8, 1, [1]),
    ("q8", 3): ((0, ()), 8, 1, [1]),
}

# With the trivial character, from the literature: H_3(D4; Z) =
# Z/2 + Z/2 + Z/4 and H_3(Q8; Z) = Z/8 (see above), |Aut(D4)| = 8 and
# |Aut(Q8)| = 24.
ORDER_EIGHT_DEGREE_THREE_TRIVIAL = {"d4": ((0, (2, 2, 4)), 8),
                                    "q8": ((0, (8,)), 24)}


@pytest.mark.parametrize("make, name", [(dihedral_group_4, "d4"),
                                        (quaternion_group, "q8")])
def test_order_eight_degree_three_orbits(make, name):
    group = make()
    for index, w in enumerate(all_characters(group)):
        report = homology_orbits(group, w, 3,
                                 budget=ORDER_EIGHT_DEGREE_THREE_BUDGET)
        got = (report.presentation.invariant_factors(),
               report.automorphism_count, report.orbit_count,
               sorted(size for _, size in report.orbits))
        assert got == ORDER_EIGHT_DEGREE_THREE_ORBITS[(name, index)]
        if index == 0:
            assert got[:2] == ORDER_EIGHT_DEGREE_THREE_TRIVIAL[name]


def test_orbit_automorphism_enumeration_is_charged_before_any_tuple(
        monkeypatch):
    """(Z/2)^4 has a cheap degree-0 resolution, but its four generators
    each have 15 candidate images: 50,625 tuples times 16 elements is
    refused at the default budget before any tuple is walked."""
    klein4 = klein_four_group()
    group = direct_product(klein4, klein4)

    def walked(*args):
        raise AssertionError("an image tuple was walked")

    monkeypatch.setattr(groups, "_extend_automorphism", walked)
    with pytest.raises(BudgetExceededError,
                       match="automorphism enumeration cost 810000 exceeds "
                             "budget 250000"):
        homology_orbits(group, OrientationChar.trivial(group), 0)
