"""Modules over integral group rings: coinvariants, torsion, transfer.

Cross-validation strategy: the first derived functor computed here by
dimension shifting must agree with degree-one twisted homology computed from
explicit resolutions (an entirely separate code path), and the transfer is
checked against its two composition identities on hundreds of random modules.
"""

import random

import pytest

from gammalab import modules, serialize
from gammalab.abelian import AbelianPresentation
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
from gammalab.errors import BudgetExceededError, IncompatibleInputError
from gammalab.groups import (
    GroupRingElement,
    OrientationChar,
    all_characters,
    norm_element,
    subgroup_and_cosets,
)
from gammalab.homology import group_homology
from gammalab.intmat import IntMatrix, integer_inverse
from gammalab.modules import (
    CoinvariantsResult,
    ZPiModule,
    detect_free_structure,
    direct_sum_module,
    free_module,
    induced_coinvariants_map,
    module_from_action,
    norm_quotient_module,
    regular_module,
    restrict_module,
    sign_module,
    transfer_down,
    trivial_module,
    twisted_coinvariants,
    tor_one,
)


def nontrivial_char(group):
    for w in all_characters(group):
        if not w.is_trivial():
            return w
    raise AssertionError("no nontrivial character")


def random_module(rng, group, max_rank=2):
    """A random module: a free chunk plus a sign/trivial line, reshuffled."""
    pieces = []
    if rng.random() < 0.8:
        pieces.append(free_module(group, rng.randint(1, max_rank)))
    for w in all_characters(group):
        if rng.random() < 0.3:
            pieces.append(sign_module(group, w))
    if not pieces:
        pieces.append(trivial_module(group))
    module = pieces[0]
    for p in pieces[1:]:
        module = direct_sum_module(module, p)
    return module


def random_basis_change(rng, n):
    """The unimodular ``P`` that :func:`in_random_basis` draws for ``n``
    generators from the same ``rng`` state."""
    p = IntMatrix.identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        p.data[i] = [a + c * b for a, b in zip(p.data[i], p.data[j])]
    return p


def in_random_basis(rng, module):
    """The same module in a random unimodular basis ``y = P x``: the action
    is conjugated by ``P``, each relation row ``r`` becomes ``r P^T``, and
    the result is never flagged as free."""
    n = module.underlying.ngens
    p = random_basis_change(rng, n)
    pinv = integer_inverse(p)
    underlying = AbelianPresentation(
        n, module.underlying.relations.mul(p.transpose()))
    action = [p.mul(mat).mul(pinv) for mat in module.action]
    return ZPiModule(module.group, underlying, action)


# -- module construction and validation -------------------------------------


def test_action_must_be_a_representation():
    z2 = cyclic_group(2)
    free1 = AbelianPresentation.free(1)
    # A "representation" where the involution squares to -1 is rejected.
    bad = [IntMatrix.identity(1), IntMatrix(1, 1, [[2]])]
    with pytest.raises(IncompatibleInputError):
        ZPiModule(z2, free1, bad)


def test_action_matrices_satisfy_group_law():
    rng = random.Random(61)
    for group in [cyclic_group(4), symmetric_group_3(), quaternion_group()]:
        module = regular_module(group)
        for _ in range(50):
            a = rng.randrange(group.order)
            b = rng.randrange(group.order)
            left = module.action_matrix(group.mul(a, b))
            right = module.action_matrix(a).mul(module.action_matrix(b))
            assert left == right
        assert module.action_matrix(0) == IntMatrix.identity(group.order)


def test_ring_action_extends_group_action():
    z4 = cyclic_group(4)
    module = regular_module(z4)
    x = GroupRingElement(z4, [1, -2, 0, 3])
    vec = [1, 0, 0, 0]
    out = module.act_ring(x, vec)
    assert out == [1, -2, 0, 3]


def test_free_and_regular_structure():
    z3 = cyclic_group(3)
    assert regular_module(z3).zpi_free_rank == 1
    assert free_module(z3, 2).zpi_free_rank == 2
    assert free_module(z3, 2).underlying.rank == 6
    assert free_module(z3, 0).underlying.rank == 0
    assert trivial_module(z3).zpi_free_rank is None
    assert regular_module(trivial_group()).zpi_free_rank == 1


def test_detect_free_structure_recognizes_standard_layout_only():
    """The detector promises to recognize the standard block layout (and any
    basis change that happens to reproduce it, e.g. right translation, which
    commutes with the left action) but may return None otherwise; the generic
    coinvariants path must then still give the same answers."""
    k4 = klein_four_group()
    base = regular_module(k4)
    # Conjugating by right translation leaves the left action untouched.
    for h in range(4):
        r = IntMatrix(4, 4)
        for g in range(4):
            r.data[k4.mul(g, h)][g] = 1
        action = [r.mul(base.action_matrix(g)).mul(r.transpose())
                  for g in range(4)]
        module = module_from_action(k4, AbelianPresentation.free(4), action)
        assert module.zpi_free_rank == 1
    # A transposition that is not a translation hides the layout.
    p = IntMatrix(4, 4)
    for i, j in enumerate([0, 2, 1, 3]):
        p.data[j][i] = 1
    action = [p.mul(base.action_matrix(g)).mul(p.transpose())
              for g in range(4)]
    module = module_from_action(k4, AbelianPresentation.free(4), action)
    assert module.zpi_free_rank is None
    assert detect_free_structure(module) is None


def test_a_dense_action_runs_the_signed_permutation_detector_once(monkeypatch):
    z2 = cyclic_group(2)
    calls = []
    detect = modules.signed_permutation_table

    def counting(action):
        calls.append(action)
        return detect(action)

    monkeypatch.setattr(modules, "signed_permutation_table", counting)
    monkeypatch.setattr(serialize, "signed_permutation_table", counting)
    action = [IntMatrix.identity(2), IntMatrix(2, 2, [[1, 0], [1, -1]])]
    module = module_from_action(z2, AbelianPresentation.free(2), action)
    assert len(calls) == 1
    assert module.table is None and module.zpi_free_rank is None
    calls.clear()
    module = serialize.parse_module(
        {"ngens": 2, "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [1, -1]]}},
        z2)
    assert len(calls) == 1
    assert module.table is None and module.zpi_free_rank is None


def test_detect_free_structure_rejects_non_free():
    z2 = cyclic_group(2)
    assert detect_free_structure(trivial_module(z2)) is None
    assert detect_free_structure(sign_module(z2, nontrivial_char(z2))) is None
    assert detect_free_structure(
        norm_quotient_module(z2, OrientationChar.trivial(z2))) is None


def test_direct_sum_module_shapes():
    z2 = cyclic_group(2)
    a = free_module(z2, 1)
    b = trivial_module(z2)
    s = direct_sum_module(a, b)
    assert s.underlying.ngens == 3
    # Sum of a free and a non-free piece is not marked free.
    assert s.zpi_free_rank is None
    both = direct_sum_module(a, free_module(z2, 2))
    assert both.zpi_free_rank == 3


# -- twisted coinvariants ---------------------------------------------------


def test_coinvariants_of_free_modules():
    """For free modules the coinvariants are free of the same rank, with an
    explicit section splitting the projection."""
    for group in standard_library().values():
        for w in all_characters(group):
            for rank in (0, 1, 2):
                module = free_module(group, rank)
                result = twisted_coinvariants(module, w)
                assert result.presentation.invariant_factors() == (rank, ())
                # projection . section = identity on the coinvariants.
                comp = result.projection.matrix.mul(result.section)
                assert comp == IntMatrix.identity(rank)


def test_coinvariants_of_scalar_lines():
    # Z with trivial action: coinvariants Z under w = 1, Z/2 under w != 1.
    for group in [cyclic_group(2), cyclic_group(4), cyclic_group(6)]:
        w = nontrivial_char(group)
        wt = OrientationChar.trivial(group)
        assert twisted_coinvariants(trivial_module(group), wt)\
            .presentation.invariant_factors() == (1, ())
        assert twisted_coinvariants(trivial_module(group), w)\
            .presentation.invariant_factors() == (0, (2,))
        # The sign line against its own character is untwisted: Z.
        assert twisted_coinvariants(sign_module(group, w), w)\
            .presentation.invariant_factors() == (1, ())
        assert twisted_coinvariants(sign_module(group, w), wt)\
            .presentation.invariant_factors() == (0, (2,))


def test_coinvariants_projection_kills_twisted_differences():
    """The projection must send x - w(g) g.x to zero for every g and x."""
    rng = random.Random(63)
    for _ in range(200):
        group = rng.choice([cyclic_group(2), cyclic_group(4),
                            klein_four_group(), symmetric_group_3()])
        w = rng.choice(all_characters(group))
        module = random_module(rng, group)
        result = twisted_coinvariants(module, w)
        n = module.underlying.ngens
        x = [rng.randint(-4, 4) for _ in range(n)]
        g = rng.randrange(group.order)
        gx = module.act(g, x)
        diff = [a - w.values[g] * b for a, b in zip(x, gx)]
        image = result.projection.apply(diff)
        assert result.presentation.element_is_zero(image)


def test_coinvariants_free_path_agrees_with_generic_path():
    """Freeness is an optimization only: scrambling the basis (which hides
    the free flag) must not change the computed group."""
    rng = random.Random(64)
    for group in [cyclic_group(2), cyclic_group(3), klein_four_group()]:
        n = group.order
        base = regular_module(group)
        perm = list(range(n))
        rng.shuffle(perm)
        p = IntMatrix(n, n)
        for i, j in enumerate(perm):
            p.data[j][i] = 1
        action = [p.mul(base.action_matrix(g)).mul(p.transpose())
                  for g in range(group.order)]
        scrambled = ZPiModule(group, AbelianPresentation.free(n), action,
                              zpi_free_rank=None)
        for w in all_characters(group):
            a = twisted_coinvariants(base, w).presentation.invariant_factors()
            b = twisted_coinvariants(scrambled, w).presentation.invariant_factors()
            assert a == b == (1, ())


def test_coinvariants_of_norm_quotient():
    """The quotient of the group ring by its signed norm has coinvariants
    Z/|G| for every character, with trivial first derived functor: the
    closed form the census reports.  Some direct products join the bundled
    groups."""
    z2 = cyclic_group(2)
    groups = dict(standard_library())
    groups["z2^3"] = direct_product(direct_product(z2, z2), z2)
    groups["s3 x z2"] = direct_product(symmetric_group_3(), z2)
    groups["z3 x z4"] = direct_product(cyclic_group(3), cyclic_group(4))
    for name, group in groups.items():
        for w in all_characters(group):
            module = norm_quotient_module(group, w)
            result = twisted_coinvariants(module, w)
            order = group.order
            expected = (0, ()) if order == 1 else (0, (order,))
            assert result.presentation.invariant_factors() == expected, name
            assert tor_one(module, w).invariant_factors() == (0, ()), name


# -- first derived functor --------------------------------------------------


def test_tor_vanishes_on_free_modules():
    for group in [cyclic_group(2), cyclic_group(4), symmetric_group_3()]:
        for w in all_characters(group):
            assert tor_one(free_module(group, 2), w).invariant_factors() == (0, ())
            assert tor_one(regular_module(group), w).invariant_factors() == (0, ())


def test_tor_on_scalar_lines_matches_degree_one_homology():
    """Dimension shifting vs. resolutions: Tor_1 of a sign line against the
    twisted augmentation equals H_1 with the product character, and Tor_1
    of a sum of lines written in a random basis is the sum of those H_1."""
    rng = random.Random(66)
    for name, group in standard_library().items():
        characters = all_characters(group)

        def h1(w, v):
            product = OrientationChar(
                group, [a * b for a, b in zip(w.values, v.values)])
            return group_homology(group, product, 1).invariant_factors()

        for w in characters:
            for v in characters:
                line = sign_module(group, v)
                shifted = tor_one(line, w).invariant_factors()
                assert shifted == h1(w, v), (name, w.values, v.values)
            for _ in range(3):
                lines = [rng.choice(characters)
                         for _ in range(rng.randint(2, 3))]
                module = sign_module(group, lines[0])
                expected = AbelianPresentation.from_factors(*h1(w, lines[0]))
                for v in lines[1:]:
                    module = direct_sum_module(module, sign_module(group, v))
                    expected = expected.direct_sum(
                        AbelianPresentation.from_factors(*h1(w, v)))
                shifted = tor_one(in_random_basis(rng, module), w)
                assert shifted == expected, (name, w.values, lines)


def test_tor_hand_values():
    z2 = cyclic_group(2)
    w = nontrivial_char(z2)
    wt = OrientationChar.trivial(z2)
    # Twisted coefficients in the sign line: H_1(Z/2; Z) = Z/2 shifted in.
    assert tor_one(sign_module(z2, w), w).invariant_factors() == (0, (2,))
    assert tor_one(trivial_module(z2), wt).invariant_factors() == (0, (2,))
    assert tor_one(trivial_module(z2), w).invariant_factors() == (0, ())
    assert tor_one(sign_module(z2, w), wt).invariant_factors() == (0, ())


def test_tor_refuses_unchecked_data_that_is_not_a_module():
    """Built with ``check=False``, an action that is not a module is
    refused with the module check's input error: the first does not
    preserve the relation, the second preserves it but squares to the
    wrong matrix."""
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    underlying = AbelianPresentation.from_relation_rows(2, [[2, 0]])
    for action, message in (
            ([[0, 1], [1, 1]], r"action of element 1 does not preserve "
                               r"relation 0"),
            ([[2, 0], [0, 1]], r"action is not multiplicative at \(1, 1\)")):
        module = module_from_action(
            z2, underlying,
            [IntMatrix.identity(2), IntMatrix.from_rows(action)],
            check=False)
        with pytest.raises(IncompatibleInputError, match=message):
            tor_one(module, w)


def test_tor_budget_is_order_times_generators_estimate():
    """The estimate is |G| n (|G| n + relation rows): accepted at the cost,
    refused one below it, before any work, with the sizes in the message."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    cases = [
        (norm_quotient_module(z3, OrientationChar.trivial(z3)),
         3 * 3 * (3 * 3 + 1)),
        (direct_sum_module(trivial_module(z2),
                           sign_module(z2, nontrivial_char(z2))),
         2 * 2 * (2 * 2)),
        (free_module(quaternion_group(), 1), 8 * 8 * (8 * 8)),
    ]
    for module, cost in cases:
        w = OrientationChar.trivial(module.group)
        expected = tor_one(module, w, budget=None)
        assert tor_one(module, w, budget=cost) == expected
        with pytest.raises(BudgetExceededError) as info:
            tor_one(module, w, budget=cost - 1)
        order, n = module.group.order, module.underlying.ngens
        assert str(info.value) == (
            f"first derived functor cost {cost} exceeds budget {cost - 1} "
            f"({order * n} = group order {order} times {n} generators, times "
            f"{order * n} plus {module.underlying.relations.rows} relation "
            "rows); raise the budget")


def test_tor_additivity_on_direct_sums():
    rng = random.Random(65)
    for _ in range(50):
        group = rng.choice([cyclic_group(2), cyclic_group(4),
                            klein_four_group()])
        w = rng.choice(all_characters(group))
        a = random_module(rng, group, max_rank=1)
        b = random_module(rng, group, max_rank=1)
        s = direct_sum_module(a, b)
        ta = tor_one(a, w).invariant_factors()
        tb = tor_one(b, w).invariant_factors()
        ts = tor_one(s, w).invariant_factors()
        merged = AbelianPresentation.from_factors(*ta).direct_sum(
            AbelianPresentation.from_factors(*tb))
        assert ts == merged.invariant_factors()


# -- restriction and transfer -----------------------------------------------


def test_restrict_module_action():
    z6 = cyclic_group(6)
    data = subgroup_and_cosets(z6, [2])
    module = regular_module(z6)
    restricted = restrict_module(module, data)
    assert restricted.group is data.subgroup
    assert restricted.underlying.ngens == module.underlying.ngens
    for g in data.elements:
        local = data.ambient_to_sub(g)
        assert restricted.action_matrix(local) == module.action_matrix(g)


def transfer_setup(rng, group, gens):
    data = subgroup_and_cosets(group, gens)
    w = rng.choice(all_characters(group))
    module = random_module(rng, group)
    return data, w, module


def test_transfer_projection_composite_is_index_scaling():
    """proj . transfer = multiplication by the subgroup index on the full
    coinvariants (the defining identity of the transfer)."""
    rng = random.Random(66)
    cases = 0
    pool = [
        (cyclic_group(4), [2]), (cyclic_group(4), [1]),
        (cyclic_group(6), [2]), (cyclic_group(6), [3]),
        (klein_four_group(), [1]), (klein_four_group(), [2]),
        (symmetric_group_3(), [1]), (symmetric_group_3(), [3]),
        (dihedral_group_4(), [1]), (quaternion_group(), [2]),
    ]
    while cases < 200:
        group, gens = pool[cases % len(pool)]
        data, w, module = transfer_setup(rng, group, gens)
        tr = transfer_down(module, w, data)
        wsub = w.restrict(data.elements, data.subgroup)
        full = twisted_coinvariants(module, w)
        # Induced projection from subgroup coinvariants to full coinvariants.
        proj = induced_coinvariants_map(module, w, data)
        comp = proj.compose(tr)
        n = full.presentation.ngens
        x = [rng.randint(-4, 4) for _ in range(n)]
        image = comp.apply(x)
        scaled = [data.index * v for v in x]
        assert full.presentation.elements_equal(image, scaled)
        cases += 1


def test_transfer_maps_refuse_a_dense_projection_over_budget():
    """Both transfer maps read the dense projection and section of the
    coinvariants, and refuse them at the default budget: the free module of
    rank 354 over Z/2 has 354 orbits of 708 basis vectors."""
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    whole = subgroup_and_cosets(z2, [1])
    for transfer in (transfer_down, induced_coinvariants_map):
        with pytest.raises(BudgetExceededError,
                           match=r"projection cost 250632 exceeds budget "
                                 r"250000 \(354 orbits by 708 basis "
                                 r"vectors\); raise the budget$"):
            transfer(free_module(z2, 354), w, whole)


def test_transfer_then_projection_on_normal_subgroups():
    """For a normal subgroup, transfer . proj acts on subgroup coinvariants
    as the signed sum over coset representatives."""
    rng = random.Random(67)
    from gammalab.modules import induced_coinvariants_map
    pool = [
        (cyclic_group(4), [2]), (cyclic_group(6), [3]), (cyclic_group(6), [2]),
        (klein_four_group(), [1]), (symmetric_group_3(), [1]),
    ]
    cases = 0
    while cases < 200:
        group, gens = pool[cases % len(pool)]
        data, w, module = transfer_setup(rng, group, gens)
        tr = transfer_down(module, w, data)
        proj = induced_coinvariants_map(module, w, data)
        comp = tr.compose(proj)
        sub_res = twisted_coinvariants(
            restrict_module(module, data),
            w.restrict(data.elements, data.subgroup))
        x = [rng.randint(-3, 3) for _ in range(sub_res.presentation.ngens)]
        # Lift to the module, apply sum_r w(r) r, push back down.
        lifted = sub_res.section.mat_vec(x)
        total = [0] * module.underlying.ngens
        for r in data.representatives:
            moved = module.act(r, lifted)
            total = [t + w.values[r] * v for t, v in zip(total, moved)]
        expected = sub_res.projection.apply(total)
        got = comp.apply(x)
        assert sub_res.presentation.elements_equal(got, expected)
        cases += 1


def test_transfer_respects_trivial_subgroup_and_whole_group():
    z4 = cyclic_group(4)
    w = nontrivial_char(z4)
    module = free_module(z4, 1)
    # Whole group: transfer of the improper subgroup is the identity scaled
    # by index 1.
    data = subgroup_and_cosets(z4, [1])
    assert data.index == 1
    tr = transfer_down(module, w, data)
    full = twisted_coinvariants(module, w)
    x = [3]
    assert full.presentation.elements_equal(tr.apply(x), x)
    # Trivial subgroup: coinvariants of the restriction are the whole module.
    data0 = subgroup_and_cosets(z4, [])
    assert data0.index == 4
    tr0 = transfer_down(module, w, data0)
    assert tr0.target.ngens == module.underlying.ngens


# -- coinvariants result plumbing -------------------------------------------


def test_coinvariants_result_fields():
    z2 = cyclic_group(2)
    result = twisted_coinvariants(regular_module(z2),
                                  OrientationChar.trivial(z2))
    assert isinstance(result, CoinvariantsResult)
    assert result.projection.target is result.presentation
    assert result.section.cols == result.presentation.ngens
    assert result.section.rows == 2
