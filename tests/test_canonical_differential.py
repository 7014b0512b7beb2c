"""Canonical coordinates: the elimination-first route against independent
answers.

``AbelianPresentation`` reads the coordinates of relation rows from one
``intmat.Cokernel``: sparse unit pivots first, then a Smith normal form of
the unit-free remainder.  Checked here:

* free modules of rank 1-2 over every bundled group (rank times order at
  most 16), every character, written in three seeded random bases, against
  the same modules with their signed-permutation tables, whose
  coinvariants take the orbit route (``from_diagonal``, no elimination and
  no Smith normal form): equal invariants, coordinates that round-trip
  (class membership decided by the dense invariant-factor route: a finitely
  generated abelian group is no proper quotient of itself), and a
  splitting functional on one side exactly when on the other, with value 1
  on the class and zero on every relation row;
* structure: every matrix the coordinate route hands ``smith_normal_form``
  holds no entry ``±1``, and the coordinates of a diagonal presentation run
  neither the elimination nor a Smith normal form.
"""

import random

import pytest

from gammalab import intmat
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.classify import gamma_coinvariants
from gammalab.gamma import gamma_rank, induced_matrix
from gammalab.groups import all_characters
from gammalab.modules import free_module

from test_modules import in_random_basis, random_basis_change

SEEDS = (5, 11, 23)


def same_class(pres, x, y):
    """Whether ``x - y`` lies in the relation lattice, decided without
    canonical coordinates: adding it as a relation keeps the invariants
    exactly when it is already one."""
    rows = [pres.relations.row(i) for i in range(pres.relations.rows)]
    more = AbelianPresentation.from_relation_rows(
        pres.ngens, rows + [[a - b for a, b in zip(x, y)]])
    return more.invariant_factors() == pres.invariant_factors()


def assert_splits(pres, x, f):
    assert sum(a * b for a, b in zip(f, x)) == 1
    for i in range(pres.relations.rows):
        assert sum(a * b for a, b in zip(f, pres.relations.data[i])) == 0, i


def scrambled_cases():
    for name, group in sorted(standard_library().items()):
        for rank in (1, 2):
            if rank * group.order > 16:
                continue
            for w in all_characters(group):
                for seed in SEEDS:
                    yield name, group, rank, w, seed


def record_smith_normal_form(monkeypatch):
    """Patch ``intmat.smith_normal_form`` to keep each matrix it is handed
    in the returned list."""
    seen = []
    snf = intmat.smith_normal_form

    def record(m):
        seen.append(m)
        return snf(m)

    monkeypatch.setattr(intmat, "smith_normal_form", record)
    return seen


def assert_unit_free(matrices):
    for m in matrices:
        assert all(v not in (1, -1) for row in m.data for v in row), m


def test_scrambled_coinvariants_match_the_orbit_route(monkeypatch):
    seen = record_smith_normal_form(monkeypatch)
    count = 0
    for name, group, rank, w, seed in scrambled_cases():
        module = free_module(group, rank)
        n = module.underlying.ngens
        p = random_basis_change(random.Random(seed), n)
        scrambled = in_random_basis(random.Random(seed), module)
        table = gamma_coinvariants(module, w, None)
        rows = gamma_coinvariants(scrambled, w, None)
        case = (name, rank, w.values, seed)
        pres = rows.presentation
        assert rows.projection.matrix == intmat.IntMatrix.identity(pres.ngens)
        rng = random.Random(seed)
        mark = len(seen)
        # Coordinates round-trip, both ways.  The invariants they fill are
        # those of the orbit route.
        x = [rng.randint(-2, 2) for _ in range(pres.ngens)]
        free, torsion = pres.to_canonical(x)
        assert table.presentation.invariant_factors() == \
            pres.invariant_factors(), case
        y = pres.from_canonical(free, torsion)
        assert pres.to_canonical(y) == (free, torsion), case
        # Each class check diagonalizes all relation rows densely, up to
        # 408 x 136 here, so the largest take the first seed only.
        if pres.ngens <= 36 or seed == SEEDS[0]:
            assert same_class(pres, x, y), case
        free = [rng.randint(-3, 3) for _ in range(pres.rank)]
        torsion = [rng.randrange(d) for d in pres.torsion]
        assert pres.to_canonical(pres.from_canonical(free, torsion)) == \
            (tuple(free), tuple(torsion)), case
        # Splitting functionals on seeded classes, carried across by
        # Gamma(P) for the basis change y = P x.
        change = induced_matrix(p)
        for scale in (1, 2):
            c = [scale * rng.randint(-2, 2) for _ in range(gamma_rank(n))]
            left = table.projection.apply(c)
            right = rows.projection.apply(change.mat_vec(c))
            f = table.presentation.functional_hitting_one(left)
            g = pres.functional_hitting_one(right)
            assert (f is None) == (g is None), case
            if f is not None:
                assert_splits(table.presentation, left, f)
                assert_splits(pres, right, g)
                count += 1
        # One Smith normal form per presentation, of a unit-free remainder.
        assert len(seen) == mark + 1, case
        assert_unit_free(seen[mark:])
    assert count >= 20


def test_coordinate_route_hands_smith_normal_form_no_unit(monkeypatch):
    seen = record_smith_normal_form(monkeypatch)
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 8)
        rows = [[rng.choice((-2, -1, 0, 0, 1, 2, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, 9))]
        pres = AbelianPresentation.from_relation_rows(n, rows)
        x = [rng.randint(-3, 3) for _ in range(n)]
        free, torsion = pres.to_canonical(x)
        assert pres.to_canonical(pres.from_canonical(free, torsion)) == \
            (free, torsion)
        assert pres.invariant_factors() == \
            AbelianPresentation.from_relation_rows(n, rows).invariant_factors()
    assert len(seen) == 300
    assert_unit_free(seen)


def test_diagonal_coordinates_run_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagonal presentation ran the general route")

    monkeypatch.setattr(intmat, "eliminate_units", refuse)
    monkeypatch.setattr(intmat, "smith_normal_form", refuse)
    pres = AbelianPresentation.from_diagonal([0, 2, 0, 4, 12])
    assert pres.invariant_factors() == (2, (2, 4, 12))
    assert pres.to_canonical([3, 5, -1, 6, 13]) == ((3, -1), (1, 2, 1))
    assert pres.from_canonical([7, 8], [1, 0, 3]) == [7, 1, 8, 0, 3]
    assert pres.functional_hitting_one([3, 0, 2, 0, 0]) == [1, 0, -1, 0, 0]
    assert pres.functional_hitting_one([2, 1, 4, 0, 0]) is None
    assert pres.element_is_zero([0, 2, 0, -4, 24])
    assert len(list(pres.enumerate_torsion())) == 96
    sub, inclusion = pres.torsion_part()
    assert sub.torsion == (2, 4, 12) and inclusion.apply([1, 1, 1]) == \
        [0, 1, 0, 1, 1]


@pytest.mark.parametrize("free, torsion", [([5, 7], [1, 1, 1]), ([], []),
                                           ([5], []), ([5], [1, 0])])
def test_from_canonical_refuses_coordinates_of_the_wrong_length(free,
                                                                 torsion):
    # Z + Z/2 on a diagonal and on relation rows.
    for pres in (AbelianPresentation.from_diagonal([0, 2]),
                 AbelianPresentation.from_relation_rows(2, [[2, 0]])):
        assert pres.to_canonical(pres.from_canonical([5], [1])) == \
            ((5,), (1,))
        with pytest.raises(ValueError):
            pres.from_canonical(free, torsion)
