"""Finitely generated abelian groups given by integer relation matrices.

Oracles used here:

* invariant factors of direct sums of cyclic groups are computed by hand
  (classification of finitely generated abelian groups);
* the tensor product of cyclic groups is Z/gcd(a, b);
* primitivity of a class modulo torsion is brute-forced on small boxes by
  searching for a functional with value 1.
"""

import itertools
import random

import pytest

from gammalab.abelian import (
    AbelianHom,
    AbelianPresentation,
    format_invariants,
    tensor_product,
)
from gammalab.intmat import IntMatrix, smith_normal_form


def random_presentation(rng, max_gens=4, max_rels=4, bound=6):
    ngens = rng.randint(0, max_gens)
    nrels = rng.randint(0, max_rels)
    rows = [[rng.randint(-bound, bound) for _ in range(ngens)] for _ in range(nrels)]
    return AbelianPresentation.from_relation_rows(ngens, rows)


# -- invariant factors ------------------------------------------------------


def test_invariant_factors_hand_cases():
    assert AbelianPresentation.free(0).invariant_factors() == (0, ())
    assert AbelianPresentation.free(3).invariant_factors() == (3, ())
    assert AbelianPresentation.cyclic(1).invariant_factors() == (0, ())
    assert AbelianPresentation.cyclic(12).invariant_factors() == (0, (12,))
    # Z/2 + Z/3 = Z/6 (coprime orders merge).
    a = AbelianPresentation.cyclic(2).direct_sum(AbelianPresentation.cyclic(3))
    assert a.invariant_factors() == (0, (6,))
    # Z/4 + Z/6 = Z/2 + Z/12.
    a = AbelianPresentation.cyclic(4).direct_sum(AbelianPresentation.cyclic(6))
    assert a.invariant_factors() == (0, (2, 12))
    # A redundant relation changes nothing.
    a = AbelianPresentation.from_relation_rows(2, [[2, 0], [4, 0]])
    assert a.invariant_factors() == (1, (2,))


def test_rank_and_torsion_properties():
    a = AbelianPresentation.from_relation_rows(3, [[2, 0, 0], [0, 6, 0]])
    assert a.rank == 1
    assert a.torsion == (2, 6)
    assert a.torsion_order() == 12
    assert not a.is_trivial()
    assert not a.is_torsion_free()
    assert AbelianPresentation.free(2).is_torsion_free()
    assert AbelianPresentation.cyclic(1).is_trivial()


def test_from_factors_round_trip():
    rng = random.Random(21)
    for _ in range(200):
        rank = rng.randint(0, 3)
        factors = []
        d = 1
        for _ in range(rng.randint(0, 3)):
            d *= rng.randint(2, 4)
            factors.append(d)
        a = AbelianPresentation.from_factors(rank, factors)
        assert a.invariant_factors() == (rank, tuple(factors))
        # from_factors seeds its invariants; the same rows through the
        # Smith normal form must agree with them.
        rows = [a.relations.row(i) for i in range(a.relations.rows)]
        b = AbelianPresentation.from_relation_rows(a.ngens, rows)
        assert b.invariant_factors() == (rank, tuple(factors))


def test_from_factors_normalizes_other_inputs():
    assert AbelianPresentation.from_factors(1, [2, 3]).invariant_factors() \
        == (1, (6,))
    assert AbelianPresentation.from_factors(0, [4, 2]).invariant_factors() \
        == (0, (2, 4))
    assert AbelianPresentation.from_factors(2, [1, 0, 3]).invariant_factors() \
        == (3, (3,))


def test_from_factors_normalizes_random_factor_lists():
    """Factor lists with 0, ±1, negatives and repeated primes, normalized by
    arithmetic, against the Smith normal form of the same rows."""
    rng = random.Random(26)
    pool = [0, 1, -1, 2, -2, 3, 4, -4, 5, 6, 8, -9, 12, 16, 18, 25, 27, 30, 36]
    for _ in range(400):
        rank = rng.randint(0, 2)
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        a = AbelianPresentation.from_factors(rank, factors)
        rows = [a.relations.row(i) for i in range(a.relations.rows)]
        fresh = AbelianPresentation.from_relation_rows(a.ngens, rows)
        assert a.invariant_factors() == fresh.invariant_factors(), factors


def test_from_factors_writes_its_rows_only_when_read(monkeypatch):
    """``relations`` holds the rows ``from_factors`` wrote eagerly before:
    one per factor, the factor on its generator after the free ones; and
    neither construction nor equality, hash, description and invariants
    build a matrix."""
    rng = random.Random(27)
    pool = [0, 1, -1, 2, -2, 3, 4, 6, 12]
    for _ in range(100):
        rank = rng.randint(0, 3)
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        n = rank + len(factors)
        with monkeypatch.context() as patch:
            def refuse(*args, **kwargs):
                raise AssertionError("a matrix was built")

            patch.setattr(IntMatrix, "__init__", refuse)
            a = AbelianPresentation.from_factors(rank, factors)
            b = AbelianPresentation.from_factors(rank, factors)
            assert a == b and hash(a) == hash(b)
            assert a.describe() == b.describe()
            assert a.invariant_factors() == b.invariant_factors()
        eager = [[d if j == rank + i else 0 for j in range(n)]
                 for i, d in enumerate(factors)]
        assert a.relations == IntMatrix.from_rows(eager, cols=n), factors
        assert a.relations is a.relations
        assert a.ngens == n


def test_canonical_coordinates_fill_the_invariants():
    """The invariants read off by the canonical-coordinate diagonal equal
    those of a fresh presentation that never computed coordinates."""
    rng = random.Random(25)
    for _ in range(300):
        a = random_presentation(rng, max_gens=6, max_rels=6, bound=9)
        rows = [a.relations.row(i) for i in range(a.relations.rows)]
        fresh = AbelianPresentation.from_relation_rows(a.ngens, rows)
        a.to_canonical([0] * a.ngens)
        assert a._invariants is not None
        assert a.invariant_factors() == fresh.invariant_factors()


def test_describe_formats():
    assert AbelianPresentation.free(0).describe() == "0"
    assert AbelianPresentation.free(1).describe() == "Z"
    assert AbelianPresentation.free(3).describe() == "Z^3"
    assert AbelianPresentation.cyclic(4).describe() == "Z/4"
    a = AbelianPresentation.from_factors(1, [2, 2])
    assert a.describe() == "Z + Z/2 + Z/2"
    assert format_invariants(2, (3,)) == "Z^2 + Z/3"
    assert format_invariants(0, ()) == "0"


# -- element handling -------------------------------------------------------


def test_element_zero_and_equality():
    a = AbelianPresentation.cyclic(5)
    assert a.element_is_zero([5])
    assert a.element_is_zero([0])
    assert not a.element_is_zero([3])
    assert a.elements_equal([1], [6])
    assert a.elements_equal([2], [-3])
    assert not a.elements_equal([1], [2])


def test_canonical_coordinates_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        a = random_presentation(rng)
        x = [rng.randint(-9, 9) for _ in range(a.ngens)]
        free, tors = a.to_canonical(x)
        rank, factors = a.invariant_factors()
        assert len(free) == rank
        assert len(tors) == len(factors)
        for value, order in zip(tors, factors):
            assert 0 <= value < order
        # from_canonical is a section of to_canonical.
        y = a.from_canonical(free, tors)
        assert a.elements_equal(x, y)


def test_canonical_coordinates_are_additive():
    rng = random.Random(23)
    for _ in range(200):
        a = random_presentation(rng)
        x = [rng.randint(-9, 9) for _ in range(a.ngens)]
        y = [rng.randint(-9, 9) for _ in range(a.ngens)]
        fx, tx = a.to_canonical(x)
        fy, ty = a.to_canonical(y)
        s = [p + q for p, q in zip(x, y)]
        fs, ts = a.to_canonical(s)
        assert fs == tuple(p + q for p, q in zip(fx, fy))
        _, factors = a.invariant_factors()
        assert ts == tuple((p + q) % d for p, q, d in zip(tx, ty, factors))


def test_enumerate_torsion_counts():
    # Z/2 + Z/3 collapses to the single invariant factor 6.
    a = AbelianPresentation.from_factors(1, [2, 3])
    listed = list(a.enumerate_torsion())
    assert len(listed) == 6 == a.torsion_order()
    assert len(set(listed)) == 6
    assert all(len(t) == len(a.torsion) == 1 for t in listed)
    b = AbelianPresentation.from_factors(0, [2, 4])
    pairs = list(b.enumerate_torsion())
    assert len(pairs) == 8
    assert all(len(t) == 2 for t in pairs)
    assert list(AbelianPresentation.free(2).enumerate_torsion()) == [()]


# -- tensor products --------------------------------------------------------


def test_tensor_cyclic_gcd_oracle():
    rng = random.Random(24)
    for _ in range(200):
        m = rng.randint(1, 30)
        n = rng.randint(1, 30)
        t = tensor_product(AbelianPresentation.cyclic(m), AbelianPresentation.cyclic(n))
        g = _gcd(m, n)
        expected = (0, ()) if g == 1 else (0, (g,))
        assert t.invariant_factors() == expected


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_tensor_with_free_group():
    # Z^r tensor A = A^r.
    a = AbelianPresentation.from_factors(1, [4])
    t = tensor_product(AbelianPresentation.free(2), a)
    assert t.invariant_factors() == (2, (4, 4))
    t = tensor_product(a, AbelianPresentation.free(0))
    assert t.invariant_factors() == (0, ())


def test_tensor_general_oracle():
    # (Z^r + sum Z/a_i) tensor (Z^s + sum Z/b_j)
    #   = Z^(rs) + (sum Z/a_i)^s + (sum Z/b_j)^r + sum_ij Z/gcd(a_i, b_j).
    rng = random.Random(25)
    for _ in range(200):
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        avals = [rng.randint(2, 9) for _ in range(rng.randint(0, 2))]
        bvals = [rng.randint(2, 9) for _ in range(rng.randint(0, 2))]
        a = AbelianPresentation.free(r)
        for v in avals:
            a = a.direct_sum(AbelianPresentation.cyclic(v))
        b = AbelianPresentation.free(s)
        for v in bvals:
            b = b.direct_sum(AbelianPresentation.cyclic(v))
        t = tensor_product(a, b)

        expected = AbelianPresentation.free(r * s)
        for v in avals:
            for _ in range(s):
                expected = expected.direct_sum(AbelianPresentation.cyclic(v))
        for v in bvals:
            for _ in range(r):
                expected = expected.direct_sum(AbelianPresentation.cyclic(v))
        for va in avals:
            for vb in bvals:
                expected = expected.direct_sum(AbelianPresentation.cyclic(_gcd(va, vb)))
        assert t.invariant_factors() == expected.invariant_factors()


# -- torsion subgroup -------------------------------------------------------


def test_torsion_part_inclusion():
    a = AbelianPresentation.from_relation_rows(3, [[0, 2, 0], [0, 0, 6]])
    sub, incl = a.torsion_part()
    assert sub.invariant_factors() == (0, (2, 6))
    assert incl.source is sub and incl.target is a
    # Every generator of the torsion subgroup maps to a torsion element.
    order = sub.torsion_order()
    for j in range(sub.ngens):
        image = incl.apply([1 if i == j else 0 for i in range(sub.ngens)])
        scaled = [order * v for v in image]
        assert a.element_is_zero(scaled)


def test_torsion_part_random_is_injective_on_enumeration():
    rng = random.Random(26)
    for _ in range(60):
        a = random_presentation(rng, max_gens=3, max_rels=3, bound=4)
        if a.torsion_order() > 60:
            continue
        sub, incl = a.torsion_part()
        assert sub.rank == 0
        assert sub.torsion == a.torsion
        seen = []
        for t in sub.enumerate_torsion():
            x = sub.from_canonical((), t)
            image = incl.apply(x)
            assert all(not a.elements_equal(image, other) for other in seen)
            seen.append(image)


# -- primitivity ------------------------------------------------------------


def brute_force_primitive(a, x):
    """Independent oracle: x is primitive mod torsion iff some functional
    that kills all relations takes the value 1 on x.  Functionals are scanned
    over a coefficient box wide enough for the small cases used here."""
    rank, _ = a.invariant_factors()
    if rank == 0:
        return False
    for coeffs in itertools.product(range(-4, 5), repeat=a.ngens):
        if sum(c * v for c, v in zip(coeffs, x)) != 1:
            continue
        kills = True
        for i in range(a.relations.rows):
            row = a.relations.row(i)
            if sum(c * v for c, v in zip(coeffs, row)) != 0:
                kills = False
                break
        if kills:
            return True
    return False


def test_primitivity_hand_cases():
    free2 = AbelianPresentation.free(2)
    assert free2.is_primitive_mod_torsion([1, 0])
    assert free2.is_primitive_mod_torsion([2, 3])
    assert not free2.is_primitive_mod_torsion([2, 4])
    assert not free2.is_primitive_mod_torsion([0, 0])
    # In Z + Z/2 the second coordinate is pure torsion.
    a = AbelianPresentation.from_relation_rows(2, [[0, 2]])
    assert a.is_primitive_mod_torsion([1, 0])
    assert a.is_primitive_mod_torsion([1, 1])
    assert not a.is_primitive_mod_torsion([2, 1])
    assert not a.is_primitive_mod_torsion([0, 1])
    # Pure torsion group: nothing is primitive.
    assert not AbelianPresentation.cyclic(4).is_primitive_mod_torsion([1])


def test_primitivity_against_brute_force():
    rng = random.Random(27)
    cases = 0
    while cases < 200:
        a = random_presentation(rng, max_gens=3, max_rels=2, bound=2)
        if a.ngens == 0:
            continue
        x = [rng.randint(-2, 2) for _ in range(a.ngens)]
        expected = brute_force_primitive(a, x)
        got = a.is_primitive_mod_torsion(x)
        if got and not expected:
            # The brute-force box may simply be too small; verify the
            # functional produced by the library instead of failing.
            f = a.functional_hitting_one(x)
            assert f is not None
            _check_functional(a, f, x)
        else:
            assert got == expected
        cases += 1


def _check_functional(a, f, x):
    assert sum(c * v for c, v in zip(f, x)) == 1
    for i in range(a.relations.rows):
        row = a.relations.row(i)
        assert sum(c * v for c, v in zip(f, row)) == 0


def test_functional_hitting_one_properties():
    rng = random.Random(28)
    found = 0
    for _ in range(400):
        a = random_presentation(rng, max_gens=4, max_rels=3, bound=5)
        if a.ngens == 0:
            continue
        x = [rng.randint(-5, 5) for _ in range(a.ngens)]
        f = a.functional_hitting_one(x)
        if a.is_primitive_mod_torsion(x):
            assert f is not None
            _check_functional(a, f, x)
            found += 1
        else:
            assert f is None
    assert found >= 50  # the sweep must actually exercise the positive branch


# -- homomorphisms ----------------------------------------------------------


def test_hom_requires_well_definedness():
    # Z/2 -> Z cannot send the generator to 1.
    src = AbelianPresentation.cyclic(2)
    tgt = AbelianPresentation.free(1)
    with pytest.raises(Exception):
        AbelianHom(src, tgt, IntMatrix(1, 1, [[1]]))
    # Z/2 -> Z/4 by 1 -> 2 is fine.
    h = AbelianHom(src, AbelianPresentation.cyclic(4), IntMatrix(1, 1, [[2]]))
    assert h.apply([1]) == [2]


def test_hom_compose_and_equals():
    z = AbelianPresentation.free(1)
    z4 = AbelianPresentation.cyclic(4)
    double = AbelianHom(z, z, IntMatrix(1, 1, [[2]]))
    reduce_map = AbelianHom(z, z4, IntMatrix(1, 1, [[1]]))
    # compose(other) applies other first.
    composed = reduce_map.compose(double)
    assert composed.apply([1]) == [2]
    # Equality is modulo the target's relations.
    shifted = AbelianHom(z, z4, IntMatrix(1, 1, [[6]]))
    assert composed.equals(shifted)
    assert not composed.equals(reduce_map)
    assert AbelianHom.identity(z4).compose(AbelianHom.identity(z4)).equals(
        AbelianHom.identity(z4))


def test_hom_cokernel_oracle():
    z = AbelianPresentation.free(1)
    for n in range(0, 9):
        h = AbelianHom(z, z, IntMatrix(1, 1, [[n]]))
        expected = (1, ()) if n == 0 else ((0, ()) if n == 1 else (0, (n,)))
        assert h.cokernel().invariant_factors() == expected


def test_hom_kernel_oracle():
    z2 = AbelianPresentation.free(2)
    z = AbelianPresentation.free(1)
    # (x, y) -> x + y has kernel Z spanned by (1, -1).
    h = AbelianHom(z2, z, IntMatrix(1, 2, [[1, 1]]))
    ker, incl = h.kernel()
    assert ker.invariant_factors() == (1, ())
    for j in range(incl.cols):
        assert h.apply(incl.column(j)) == [0] or z.element_is_zero(
            h.apply(incl.column(j)))
    # Multiplication by 2 on Z/4 has kernel Z/2.
    z4 = AbelianPresentation.cyclic(4)
    h = AbelianHom(z4, z4, IntMatrix(1, 1, [[2]]))
    ker, incl = h.kernel()
    assert ker.invariant_factors() == (0, (2,))
    for j in range(incl.cols):
        assert z4.element_is_zero(h.apply(incl.column(j)))


def test_hom_kernel_cokernel_random_consistency():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        matrix = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)]
                                  for _ in range(m)])
        h = AbelianHom(AbelianPresentation.free(n), AbelianPresentation.free(m),
                       matrix)
        ker, incl = h.kernel()
        coker = h.cokernel()
        # Rank bookkeeping: n - rank(ker) = m - rank(coker) = rank of matrix.
        r = smith_normal_form(matrix).rank
        assert ker.rank == n - r
        assert coker.rank == m - r
        # Between free groups the kernel is free.
        assert ker.torsion == ()
        for j in range(incl.cols):
            assert all(v == 0 for v in matrix.mat_vec(incl.column(j)))


def test_direct_sum_is_additive_on_invariants():
    rng = random.Random(30)
    for _ in range(100):
        a = random_presentation(rng, max_gens=3, max_rels=2, bound=4)
        b = random_presentation(rng, max_gens=3, max_rels=2, bound=4)
        s = a.direct_sum(b)
        ra, ta = a.invariant_factors()
        rb, tb = b.invariant_factors()
        rs, ts = s.invariant_factors()
        assert rs == ra + rb
        # Same torsion order and same primary content as the two pieces.
        order = 1
        for x in ta + tb:
            order *= x
        order_s = 1
        for x in ts:
            order_s *= x
        assert order == order_s
        expected = AbelianPresentation.from_factors(ra, ta).direct_sum(
            AbelianPresentation.from_factors(rb, tb))
        assert expected.invariant_factors() == (rs, ts)
