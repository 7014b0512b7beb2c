"""Finite groups from multiplication tables, characters, and the group ring.

Validation is tested with explicit bad tables (each bad in exactly one way),
the twisted involution and norm element are checked against their defining
identities on randomized inputs, and automorphism counts are pinned to the
textbook values for the built-in groups.
"""

import itertools
import random

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
from gammalab.errors import (
    BudgetExceededError,
    GroupValidationError,
    IncompatibleInputError,
    UnsupportedInputError,
)
from gammalab import groups
from gammalab.groups import (
    FiniteGroup,
    GroupRingElement,
    OrientationChar,
    all_characters,
    automorphisms,
    automorphisms_preserving,
    bar_involution,
    build_group,
    central_involutions,
    is_automorphism,
    norm_element,
    subgroup_and_cosets,
    _extend_automorphism,
)
from gammalab.homology import homology_orbits
from gammalab.resolutions import periodic_generator


def nontrivial_char(group):
    for w in all_characters(group):
        if not w.is_trivial():
            return w
    raise AssertionError("no nontrivial character available")


def random_ring_element(rng, group, bound=5):
    return GroupRingElement(group, [rng.randint(-bound, bound)
                                    for _ in range(group.order)])


# -- table validation -------------------------------------------------------


def test_build_group_rejects_ragged_table():
    with pytest.raises(GroupValidationError):
        build_group([[0, 1], [1]])


def test_build_group_rejects_bad_identity():
    # Row 0 must read 0, 1, ..., n-1.
    with pytest.raises(GroupValidationError):
        build_group([[1, 0], [0, 1]])


def test_build_group_rejects_out_of_range_entries():
    with pytest.raises(GroupValidationError):
        build_group([[0, 1], [1, 2]])


def test_build_group_rejects_missing_inverse():
    # Element 1 never produces the identity.
    with pytest.raises(GroupValidationError) as info:
        build_group([[0, 1], [1, 1]])
    assert "1" in str(info.value)


def test_build_group_rejects_non_associative_loop():
    # A latin square with identity and two-sided inverses that is not
    # associative: (1*1)*2 = 2 but 1*(1*2) = 4.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupValidationError) as info:
        build_group(table)
    assert "associat" in str(info.value).lower()


def all_triples_verdict(table):
    """Oracle for the group check: identity, right inverses and
    associativity on all n^3 triples."""
    n = len(table)
    return (all(table[0][a] == a == table[a][0] for a in range(n))
            and all(0 in row for row in table)
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in range(n) for b in range(n) for c in range(n)))


def test_generator_associativity_refuses_what_all_triples_refuse():
    rng = random.Random(20261018)
    groups = list(standard_library().values())
    groups.append(direct_product(cyclic_group(2), klein_four_group()))
    by_associativity = 0
    for group in groups:
        n = group.order
        if n == 1:
            continue
        for _ in range(400):
            table = [list(row) for row in group.table]
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randrange(n), rng.randrange(n)
                table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
            expected = all_triples_verdict(table)
            try:
                build_group(table)
                accepted = True
            except GroupValidationError as exc:
                accepted = False
                if "associativity" in str(exc):
                    by_associativity += 1
            assert accepted == expected, table
    # Over a thousand perturbed tables keep identity and inverses, so only
    # the associativity test refuses them.
    assert by_associativity >= 1000


def test_build_group_rejects_empty_table():
    with pytest.raises(GroupValidationError):
        build_group([])


def test_build_group_accepts_all_builtins():
    for name, group in standard_library().items():
        rebuilt = build_group([list(row) for row in group.table],
                              labels=list(group.labels))
        assert rebuilt.order == group.order


# -- element arithmetic -----------------------------------------------------


def test_element_orders_and_powers():
    z6 = cyclic_group(6)
    assert [z6.element_order(g) for g in range(6)] == [1, 6, 3, 2, 3, 6]
    assert z6.power(1, 4) == 4
    assert z6.power(1, -1) == 5
    assert z6.power(1, 0) == 0
    q8 = quaternion_group()
    # 1, -1, +-i, +-j, +-k have orders 1, 2, 4, 4, 4, ...
    assert sorted(q8.element_order(g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_inverse_and_associativity_random():
    rng = random.Random(41)
    groups = list(standard_library().values())
    for _ in range(300):
        group = rng.choice(groups)
        a = rng.randrange(group.order)
        b = rng.randrange(group.order)
        c = rng.randrange(group.order)
        assert group.mul(a, group.inv(a)) == 0
        assert group.mul(group.inv(a), a) == 0
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_structural_predicates():
    assert cyclic_group(5).is_cyclic()
    assert cyclic_group(5).is_abelian()
    assert klein_four_group().is_abelian()
    assert not klein_four_group().is_cyclic()
    assert not symmetric_group_3().is_abelian()
    assert not quaternion_group().is_abelian()


def test_centers():
    assert trivial_group().center() == [0]
    assert cyclic_group(4).center() == [0, 1, 2, 3]
    assert symmetric_group_3().center() == [0]
    # The center of the quaternion group is {1, -1}.
    q8 = quaternion_group()
    center = q8.center()
    assert len(center) == 2
    assert 0 in center
    other = next(g for g in center if g != 0)
    assert q8.element_order(other) == 2
    assert len(dihedral_group_4().center()) == 2


def test_involutions():
    assert cyclic_group(2).involutions() == [1]
    assert len(klein_four_group().involutions()) == 3
    assert len(symmetric_group_3().involutions()) == 3
    assert len(dihedral_group_4().involutions()) == 5
    assert len(quaternion_group().involutions()) == 1


def test_generating_set_generates():
    for name, group in standard_library().items():
        gens = group.generating_set()
        data = subgroup_and_cosets(group, gens)
        assert data.index == 1
        assert len(data.elements) == group.order


def test_direct_product_structure():
    z2xz3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert z2xz3.order == 6
    assert z2xz3.is_cyclic()
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert k4.order == 4 and not k4.is_cyclic()


def test_is_cyclic_exactly_when_a_periodic_generator_exists(monkeypatch):
    """``is_cyclic`` answers as ``periodic_generator`` does, and the answer
    is kept on the group: asking again walks no element order."""
    cases = sorted(standard_library().items()) + [
        ("z2xz3", direct_product(cyclic_group(2), cyclic_group(3))),
        ("z3xz4", direct_product(cyclic_group(3), cyclic_group(4))),
        ("z2xz4", direct_product(cyclic_group(2), cyclic_group(4))),
        ("z2xs3", direct_product(cyclic_group(2), symmetric_group_3())),
        ("z3xz3", direct_product(cyclic_group(3), cyclic_group(3)))]
    answers = {}
    for name, group in cases:
        try:
            periodic_generator(group)
            generated = True
        except UnsupportedInputError:
            generated = False
        answers[name] = group.is_cyclic()
        assert answers[name] == generated, name
    assert sorted(answers.values()) == [False] * 7 + [True] * 7

    def refuse(self, a):
        raise AssertionError("is_cyclic walked the element orders again")

    monkeypatch.setattr(FiniteGroup, "element_order", refuse)
    assert {name: group.is_cyclic() for name, group in cases} == answers


# -- orientation characters -------------------------------------------------


def test_character_counts_match_abelianization():
    expected = {
        "trivial": 1, "z2": 2, "z3": 1, "z4": 2, "z6": 2,
        "klein4": 4, "s3": 2, "d4": 4, "q8": 4,
    }
    lib = standard_library()
    assert set(lib) == set(expected)
    for name, group in lib.items():
        chars = all_characters(group)
        assert len(chars) == expected[name], name
        trivials = [w for w in chars if w.is_trivial()]
        assert len(trivials) == 1


def test_characters_are_multiplicative():
    rng = random.Random(42)
    for group in standard_library().values():
        for w in all_characters(group):
            for _ in range(40):
                a = rng.randrange(group.order)
                b = rng.randrange(group.order)
                assert w.values[group.mul(a, b)] == w.values[a] * w.values[b]
            assert w.values[0] == 1


def test_character_validation():
    z2 = cyclic_group(2)
    with pytest.raises(IncompatibleInputError):
        OrientationChar(z2, [1, 2])  # values must be +-1
    with pytest.raises(IncompatibleInputError):
        OrientationChar(z2, [-1, 1])  # identity must map to +1
    with pytest.raises(IncompatibleInputError):
        OrientationChar(z2, [1])  # wrong length
    z4 = cyclic_group(4)
    with pytest.raises(IncompatibleInputError):
        OrientationChar(z4, [1, -1, 1, 1])  # not multiplicative


def all_pairs_verdict(table, values):
    """Oracle for the character check: +-1 values, 1 at the identity and
    w(ab) = w(a)w(b) on all n^2 pairs."""
    n = len(table)
    return (all(v in (1, -1) for v in values) and values[0] == 1
            and all(values[table[a][b]] == values[a] * values[b]
                    for a in range(n) for b in range(n)))


def character_groups():
    groups = dict(standard_library())
    groups["z2 x klein4"] = direct_product(cyclic_group(2), klein_four_group())
    groups["s3 x z2"] = direct_product(symmetric_group_3(), cyclic_group(2))
    return groups


def test_generator_multiplicativity_refuses_what_all_pairs_refuse():
    rng = random.Random(20261019)
    by_multiplicativity = 0
    for name, group in sorted(character_groups().items()):
        n = group.order
        for w in all_characters(group):
            for _ in range(60):
                values = list(w.values)
                for _ in range(rng.randint(1, 3)):
                    values[rng.randrange(n)] *= -1
                expected = all_pairs_verdict(group.table, values)
                try:
                    OrientationChar(group, values)
                    accepted = True
                except IncompatibleInputError as exc:
                    accepted = False
                    if "not multiplicative" in str(exc):
                        by_multiplicativity += 1
                assert accepted == expected, (name, values)
    # Most perturbations keep 1 at the identity, so only the
    # multiplicativity check refuses them.
    assert by_multiplicativity >= 1000, by_multiplicativity


def test_all_characters_are_every_multiplicative_sign_vector():
    for name, group in sorted(character_groups().items()):
        n = group.order
        expected = sorted(
            (tuple(values) for values in itertools.product((1, -1), repeat=n)
             if all_pairs_verdict(group.table, values)), reverse=True)
        assert [w.values for w in all_characters(group)] == expected, name


def test_all_characters_check_multiplicativity_once_each(monkeypatch):
    calls = []
    check = groups._non_multiplicative_pair

    def counting(group, values):
        calls.append(values)
        return check(group, values)

    monkeypatch.setattr(groups, "_non_multiplicative_pair", counting)
    d4 = dihedral_group_4()
    # Only the OrientationChar of each of the four characters checks.
    assert len(all_characters(d4)) == 4
    assert len(calls) == 4


def test_character_restriction():
    z6 = cyclic_group(6)
    w = nontrivial_char(z6)
    data = subgroup_and_cosets(z6, [3])  # the 2-element subgroup {e, t^3}
    restricted = w.restrict(data.elements, data.subgroup)
    assert restricted.values == (1, w.values[3])
    assert w.values[3] == -1


# -- group ring and twisted involution --------------------------------------


def test_ring_arithmetic_laws_random():
    rng = random.Random(43)
    groups = [cyclic_group(4), symmetric_group_3(), quaternion_group()]
    for _ in range(200):
        group = rng.choice(groups)
        x = random_ring_element(rng, group)
        y = random_ring_element(rng, group)
        z = random_ring_element(rng, group)
        assert (x + y) - y == x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        one = GroupRingElement.one(group)
        assert x * one == x and one * x == x
        assert (-x) + x == GroupRingElement.zero(group)
        assert x.scale(3) == x + x + x


def test_ring_evaluation_maps():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    x = GroupRingElement(z4, [2, -1, 3, 5])
    assert x.ev0() == 2
    assert x.augmentation() == 9
    # Twisted augmentation weights each group element by its sign.
    assert x.twisted_augmentation(w) == 2 - (-1) + 3 - 5


def test_bar_involution_is_antimultiplicative():
    rng = random.Random(44)
    cases = []
    for group in [cyclic_group(4), symmetric_group_3(), dihedral_group_4(),
                  quaternion_group()]:
        for w in all_characters(group):
            cases.append((group, w))
    count = 0
    while count < 250:
        group, w = cases[count % len(cases)]
        x = random_ring_element(rng, group)
        y = random_ring_element(rng, group)
        # bar(x y) = bar(y) bar(x)
        assert bar_involution(group, w, x * y) == (
            bar_involution(group, w, y) * bar_involution(group, w, x))
        # bar is an involution and is additive.
        assert bar_involution(group, w, bar_involution(group, w, x)) == x
        assert bar_involution(group, w, x + y) == (
            bar_involution(group, w, x) + bar_involution(group, w, y))
        count += 1


def test_bar_involution_on_single_elements():
    # bar(g) = w(g) g^-1 on basis elements.
    s3 = symmetric_group_3()
    for w in all_characters(s3):
        for g in range(s3.order):
            x = GroupRingElement.from_element(s3, g)
            expected = GroupRingElement.from_element(s3, s3.inv(g), w.values[g])
            assert bar_involution(s3, w, x) == expected


def test_norm_element_identities():
    for group in standard_library().values():
        for w in all_characters(group):
            n = norm_element(group, w)
            # g n = w(g) n for every g (and symmetrically n g = w(g) n),
            # so the two-sided ideal generated by n is just Z n.
            for g in range(group.order):
                gx = GroupRingElement.from_element(group, g)
                assert gx * n == n.scale(w.values[g])
                assert n * gx == n.scale(w.values[g])
            # Its coefficients are exactly the character values.
            assert n.coeffs == w.values
            # bar sends sum w(g) g to sum w(g)^2 g^-1 = sum g, i.e. it swaps
            # the signed norm with the plain one; they agree only for w = 1.
            plain = norm_element(group, OrientationChar.trivial(group))
            assert bar_involution(group, w, n) == plain
            if w.is_trivial():
                assert bar_involution(group, w, n) == n


def test_central_involutions_listing():
    q8 = quaternion_group()
    wtriv = OrientationChar.trivial(q8)
    taus = central_involutions(q8, wtriv)
    assert len(taus) == 1
    assert q8.element_order(taus[0]) == 2
    # A character with w(tau) = -1 rules tau out.
    for w in all_characters(q8):
        if w.values[taus[0]] == -1:
            assert central_involutions(q8, w) == []
    # S3 has involutions but none central.
    s3 = symmetric_group_3()
    assert central_involutions(s3, OrientationChar.trivial(s3)) == []
    # Klein four: every nontrivial element qualifies under the trivial sign.
    k4 = klein_four_group()
    assert central_involutions(k4, OrientationChar.trivial(k4)) == [1, 2, 3]


# -- subgroups and cosets ---------------------------------------------------


def test_subgroup_of_s3():
    s3 = symmetric_group_3()
    # The rotation subgroup has index 2.
    data = subgroup_and_cosets(s3, [1])
    assert data.index == 2
    assert len(data.elements) == 3
    assert data.subgroup.is_cyclic()
    # A reflection generates an order-2 subgroup of index 3.
    data = subgroup_and_cosets(s3, [3])
    assert data.index == 3
    assert data.subgroup.order == 2


def test_cosets_partition_the_group():
    rng = random.Random(45)
    for group in standard_library().values():
        for _ in range(10):
            gens = [rng.randrange(group.order)
                    for _ in range(rng.randint(0, 2))]
            data = subgroup_and_cosets(group, gens)
            seen = sorted(g for coset in data.cosets for g in coset)
            assert seen == list(range(group.order))
            assert len(data.cosets) == data.index
            assert data.index * len(data.elements) == group.order
            # Each representative lies in its own coset; identity coset first.
            for rep, coset in zip(data.representatives, data.cosets):
                assert rep in coset
            assert data.representatives[0] == 0
            # ambient_to_sub translates subgroup elements to local indices.
            for local, g in enumerate(sorted(data.elements)):
                pass
            for g in data.elements:
                local = data.ambient_to_sub(g)
                assert data.subgroup.order > local >= 0


def test_subgroup_multiplication_is_induced():
    z6 = cyclic_group(6)
    data = subgroup_and_cosets(z6, [2])
    sub = data.subgroup
    assert sub.order == 3
    for a in data.elements:
        for b in data.elements:
            product = z6.mul(a, b)
            assert data.ambient_to_sub(product) == sub.mul(
                data.ambient_to_sub(a), data.ambient_to_sub(b))


# -- automorphisms ----------------------------------------------------------


def test_automorphism_counts():
    assert len(automorphisms(trivial_group())) == 1
    assert len(automorphisms(cyclic_group(2))) == 1
    assert len(automorphisms(cyclic_group(3))) == 2
    assert len(automorphisms(cyclic_group(4))) == 2
    assert len(automorphisms(cyclic_group(6))) == 2
    assert len(automorphisms(klein_four_group())) == 6
    assert len(automorphisms(symmetric_group_3())) == 6
    assert len(automorphisms(dihedral_group_4())) == 8
    assert len(automorphisms(quaternion_group())) == 24


def test_extend_automorphism_refuses_a_walk_that_is_not_injective():
    # t -> t^2 on Z/4 agrees along every edge of the walk: alpha(x) = 2x.
    assert _extend_automorphism(cyclic_group(4), [1], [2]) is None
    for name, group in sorted(standard_library().items()):
        gens = group.generating_set()
        accepted = []
        for images in itertools.product(range(group.order), repeat=len(gens)):
            alpha = _extend_automorphism(group, gens, images)
            if alpha is not None:
                accepted.append(alpha)
        assert all(is_automorphism(group, alpha) for alpha in accepted), name
        assert sorted(accepted) == automorphisms(group), name


def test_automorphisms_are_automorphisms():
    for group in [cyclic_group(6), klein_four_group(), symmetric_group_3()]:
        for phi in automorphisms(group):
            assert sorted(phi) == list(range(group.order))
            assert phi[0] == 0
            for a in range(group.order):
                for b in range(group.order):
                    assert phi[group.mul(a, b)] == group.mul(phi[a], phi[b])


# Per bundled group: candidate image tuples times group order, and the
# number of automorphisms.  d4's generators, a rotation and a reflection,
# have 2 and 5 candidates: 10 tuples, each a walk over 8 elements.  q8's
# generating set holds -1, its only involution, beside two elements of
# order 4 with 6 candidates each.
BUNDLED_AUTOMORPHISM_CHARGES = {
    "trivial": (1, 1), "z2": (2, 1), "z3": (6, 2), "z4": (8, 2),
    "z6": (12, 2), "klein4": (36, 6), "s3": (36, 6), "d4": (80, 8),
    "q8": (288, 24)}


@pytest.mark.parametrize("name", sorted(BUNDLED_AUTOMORPHISM_CHARGES))
def test_automorphism_enumeration_is_charged_before_any_tuple(name,
                                                              monkeypatch):
    group = standard_library()[name]
    charge, count = BUNDLED_AUTOMORPHISM_CHARGES[name]
    assert len(automorphisms(group, budget=charge)) == count

    def walked(*args):
        raise AssertionError("an image tuple was walked")

    monkeypatch.setattr(groups, "_extend_automorphism", walked)
    message = (f"automorphism enumeration cost {charge} exceeds budget "
               f"{charge - 1} ")
    with pytest.raises(BudgetExceededError, match=message):
        automorphisms(group, budget=charge - 1)
    with pytest.raises(BudgetExceededError, match=message):
        automorphisms_preserving(group, OrientationChar.trivial(group),
                                 budget=charge - 1)


def test_automorphisms_are_kept_per_group_and_character(monkeypatch):
    """A second call reads the kept lists: no image tuple is walked and no
    closure modulo Inn is taken again, the answers are the same, and the
    charge is still checked first.  A kept list handed out can be changed
    without reaching the group."""
    group = quaternion_group()
    characters = all_characters(group)
    first = [(automorphisms_preserving(group, w),
              homology_orbits(group, w, 1)) for w in characters]
    everything = automorphisms(group)

    def refuse(*args):
        raise AssertionError("kept work was done again")

    monkeypatch.setattr(groups, "_extend_automorphism", refuse)
    monkeypatch.setattr(groups, "generators_modulo_inner", refuse)
    for w, (auts, report) in zip(characters, first):
        again = homology_orbits(group, w, 1)
        assert automorphisms_preserving(group, w) == auts
        assert (again.automorphism_count, again.orbit_count,
                again.orbits) == (report.automorphism_count,
                                  report.orbit_count, report.orbits)
    handed = automorphisms(group)
    handed.clear()
    assert automorphisms(group) == everything
    charge = BUNDLED_AUTOMORPHISM_CHARGES["q8"][0]
    with pytest.raises(BudgetExceededError, match=f"cost {charge} exceeds"):
        automorphisms_preserving(group, characters[0], budget=charge - 1)


def test_automorphisms_preserving_character():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    # Both automorphisms of Z/4 fix the unique surjection to {+-1}.
    assert len(automorphisms_preserving(z4, w)) == 2
    k4 = klein_four_group()
    for w in all_characters(k4):
        preserved = automorphisms_preserving(k4, w)
        for phi in preserved:
            for g in range(4):
                assert w.values[phi[g]] == w.values[g]
        if w.is_trivial():
            assert len(preserved) == 6
        else:
            # Stabilizer of one of the three index-2 kernels.
            assert len(preserved) == 2
