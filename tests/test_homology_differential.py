"""Differential tests: the elementary-divisor route against the generic one.

``group_homology`` reads ``H_k`` off the elementary divisors of sparse
twisted differentials.  Each piece is compared here with the dense generic
path it replaced, which stays in the package as the oracle:

* ``elementary_divisors``, ``dense_elementary_divisors`` on the rows and
  on the transpose, and ``invariant_factors`` of the rows against the
  diagonal of the full ``smith_normal_form`` on seeded random matrices,
  scrambled presentations, diagonals that need the gcd/lcm pass (entries
  above ``2^64`` among them) and degenerate shapes, one row or one
  column read as a gcd with no elimination among them; pins check that
  ``quadratic_value`` and bar-route homology run no Smith normal form, and
  that ``invariant_factors`` runs no sparse elimination;
* the eliminations ``eliminate_units`` records, replayed on random
  vectors, against membership in the column lattice (``SNFSolver``), and
  its remainder rows against the cokernel of the whole matrix; remainders
  that are empty, one row, one column or larger, handed on uncopied to
  the dense tail and to ``Cokernel``, against ``smith_normal_form``;
* the sparse twisted bar columns against
  ``chain_resolution(...).twisted_matrix(k, w)``;
* the columns of the bar ``d_{k+1}`` whose tuple ends in a generating set,
  less one of each pair ``(..., y, t)``, ``(..., y·t, t)`` at an
  involution ``t``, against all of them: the same lattice, on every
  bundled (group, character), two direct products, the dihedral groups of
  order 10 and 12, and every generating pair of the non-abelian groups,
  with a set inside a proper subgroup as the negative control; groups
  generated by involutions take their generators among them;
* ``group_homology`` against ``homology_with_basis`` (kernel basis
  and solves) on every bundled (group, character, degree) within
  :data:`BUDGET`, with every provider that applies.  The oracle reads both
  ``d_k`` and ``d_{k+1}``, so it also checks that ``H_k`` has no free part
  for ``k >= 1``, which ``group_homology`` takes as given;
* the cyclic provider's one twisted entry of the periodic ``d_{k+1}``
  against the Smith normal form of the built periodic resolution on
  ``Z/n`` for ``n = 1..16``, its orbit reports against those of the built
  resolution and of the bar route, and the orbit route's direct read of
  that entry against the lifts and coordinates of ``Cokernel``.

The last tests pin that ``group_homology`` builds ``d_{k+1}`` alone, once,
and on the bar route only the columns the lemma keeps, the same columns
``induced_homology_maps`` reads; a stored resolution is twisted in the two
degrees read, and the cyclic route builds and twists none.
"""

import itertools
import math
import random

import pytest

from gammalab import homology, intmat, resolutions
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import (cyclic_group, direct_product,
                               klein_four_group, standard_library)
from gammalab.errors import (BudgetExceededError, IncompatibleInputError,
                             UnsupportedInputError)
from gammalab.gamma import quadratic_value
from gammalab.groups import FiniteGroup, OrientationChar, all_characters
from gammalab.homology import (MAX_DEGREE, group_homology, homology_orbits,
                               homology_with_basis, induced_homology_maps)
from gammalab.intmat import (Cokernel, IntMatrix, SNFSolver,
                             dense_elementary_divisors, elementary_divisors,
                             eliminate_units, from_sparse_columns,
                             replay_eliminations, smith_normal_form,
                             sparse_columns)
from gammalab.resolutions import (Resolution, chain_resolution,
                                  chain_resolution_ranks, chain_tuples,
                                  periodic_resolution, resolution_cost,
                                  twisted_chain_columns)

# Work limit of every case below: every degree for orders up to four, and
# up to degree two for the groups of order six and eight.
BUDGET = 150_000


def chain_cost(order, length):
    return resolution_cost(order, chain_resolution_ranks(order, length))


def top_length(order):
    """The longest chain resolution of a group of this order within BUDGET."""
    length = 1
    while length < MAX_DEGREE + 1 and chain_cost(order, length + 1) <= BUDGET:
        length += 1
    return length


def bundled_cases():
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            yield name, group, w


# -- elementary divisors ----------------------------------------------------


def random_matrix(rng, rows, cols, entries, density):
    return IntMatrix(rows, cols, [[rng.choice(entries)
                                   if rng.random() < density else 0
                                   for _ in range(cols)]
                                  for _ in range(rows)])


def random_unimodular(rng, n):
    """Row additions, sign flips and a row shuffle of the ``n x n`` identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-a for a in m[i]]
    rng.shuffle(m)
    return IntMatrix(n, n, m)


def scrambled(rng, orders, free, units):
    """``P · diag(orders, 0^free, 1^units) · Q`` for random unimodular
    ``P`` and ``Q``: a presentation of ``Z^free + sum Z/d``."""
    diagonal = IntMatrix.diagonal(list(orders) + [0] * free + [1] * units)
    n = diagonal.rows
    return random_unimodular(rng, n) @ diagonal @ random_unimodular(rng, n)


# Diagonals whose entries are not a divisor chain, with their invariant
# factors by hand (prime by prime); the last two need more than 64 bits.
CHAIN_CASES = [
    ([2, 3], [1, 6]),
    ([4, 6], [2, 12]),
    ([6, 10, 15], [1, 30, 30]),
    ([2 ** 65, 3 * 2 ** 64], [2 ** 64, 3 * 2 ** 65]),
    ([3 * 2 ** 64, 5 * 2 ** 64, 7], [1, 2 ** 64, 105 * 2 ** 64]),
]


def assert_matches_smith_normal_form(m):
    columns = sparse_columns(m)
    snapshot = [dict(col) for col in columns]
    divisors = elementary_divisors(m.rows, columns)
    assert divisors == smith_normal_form(m).diagonal, m
    assert columns == snapshot  # the input is left untouched
    # The dense route, on the rows and on the columns.
    length = min(m.rows, m.cols)
    rows, transposed = m.copy(), m.transpose()
    assert dense_elementary_divisors(rows.data, length) == divisors, m
    assert dense_elementary_divisors(transposed.data, length) == divisors, m
    assert rows == m and transposed == m.transpose()
    # The rows as relations.
    nonzero = [d for d in divisors if d]
    assert AbelianPresentation.from_relation_rows(
        m.cols, m.data).invariant_factors() == (
        m.cols - len(nonzero), tuple(d for d in nonzero if d >= 2)), m
    return divisors


def test_elementary_divisors_match_smith_normal_form():
    rng = random.Random(20030101)
    families = [
        (-1, 0, 1),                 # chain-complex-like: units only
        (-2, -1, 0, 1, 2, 3),       # units among small entries
        (-6, -4, -3, -2, 2, 3, 4, 6),  # no unit anywhere
        (-9, -1, 1, 5, 12, 30),     # large entries next to units
    ]
    checked = 0
    for trial in range(1200):
        top = 24 if trial % 20 == 0 else 9
        rows, cols = rng.randint(0, top), rng.randint(0, top)
        entries = families[trial % len(families)]
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        assert_matches_smith_normal_form(
            random_matrix(rng, rows, cols, entries, density))
        checked += 1
    assert checked >= 1000
    # Scrambled presentations: the nonzero divisors multiply to the order
    # of the torsion, and the zeros count the free rank.
    for trial in range(300):
        orders = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 30))
                  for _ in range(rng.randint(0, 4))]
        free, units = rng.randint(0, 2), rng.randint(0, 4)
        divisors = assert_matches_smith_normal_form(
            scrambled(rng, orders, free, units))
        assert divisors.count(0) == free, orders
        assert math.prod(d for d in divisors if d) == math.prod(orders)
    # Diagonals that need Z/a + Z/b = Z/gcd + Z/lcm, as they stand and
    # scrambled.
    for entries, factors in CHAIN_CASES:
        diagonal = IntMatrix.diagonal(entries)
        assert assert_matches_smith_normal_form(diagonal) == factors
        for _ in range(5):
            assert assert_matches_smith_normal_form(
                scrambled(rng, entries, 0, 0)) == factors, entries
    # Empty and all-zero shapes.
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1), (3, 3)]:
        divisors = assert_matches_smith_normal_form(IntMatrix(rows, cols))
        assert divisors == [0] * min(rows, cols)


def test_diagonal_callers_run_no_smith_normal_form(monkeypatch):
    rows = [[4, 6, 10], [2, 12, 8], [0, 9, 15]]
    group = standard_library()["s3"]
    w = all_characters(group)[1]
    expected = (quadratic_value(AbelianPresentation.from_relation_rows(
        3, rows)).invariant_factors(),
        group_homology(group, w, 2, provider="bar").invariant_factors())

    def refuse(m):
        raise AssertionError("the diagonal route ran a Smith normal form")

    # Canonical coordinates, which would call it, are built in ``intmat``.
    monkeypatch.setattr(intmat, "smith_normal_form", refuse)
    assert (quadratic_value(AbelianPresentation.from_relation_rows(
        3, rows)).invariant_factors(),
        group_homology(group, w, 2, provider="bar").invariant_factors()
    ) == expected


def test_invariant_factors_run_no_sparse_elimination(monkeypatch):
    rows = [[4, 6, 10], [2, 12, 8], [0, 9, 15], [1, 3, 5]]
    diagonal = smith_normal_form(IntMatrix.from_rows(rows)).diagonal
    expected = (3 - sum(1 for d in diagonal if d),
                tuple(d for d in diagonal if d >= 2))
    gamma_expected = quadratic_value(AbelianPresentation.from_relation_rows(
        3, rows, expected)).invariant_factors()

    def refuse(nrows, columns):
        raise AssertionError("invariant_factors ran the sparse elimination")

    # Bar-route homology still takes the sparse unit pivots, so it stays
    # outside the patch (see the test above).
    monkeypatch.setattr(intmat, "eliminate_units", refuse)
    assert AbelianPresentation.from_relation_rows(
        3, rows).invariant_factors() == expected
    assert quadratic_value(AbelianPresentation.from_relation_rows(
        3, rows)).invariant_factors() == gamma_expected


def test_replayed_eliminations_stay_in_the_cokernel_class():
    rng = random.Random(20260101)
    for trial in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(0, 9)
        m = random_matrix(rng, rows, cols, (-2, -1, 0, 1, 1, 2, 3),
                          rng.choice((0.2, 0.5, 1.0)))
        eliminations, kept, rest = eliminate_units(rows, sparse_columns(m))
        pivots = [row for row, _, _ in eliminations]
        assert len(set(pivots)) == len(pivots)
        assert not set(pivots) & set(kept) and kept == sorted(kept)
        # The remainder, one relation row per surviving column, plus one
        # free generator per surviving zero row, presents the cokernel of
        # the whole matrix.
        whole = AbelianPresentation.from_relation_rows(
            rows, [m.column(j) for j in range(cols)])
        part = AbelianPresentation.from_relation_rows(len(kept), rest)
        zero_rows = rows - len(pivots) - len(kept)
        assert whole.invariant_factors() == \
            (part.rank + zero_rows, part.torsion), m
        # Replaying the eliminations moves a vector within its class and
        # off the pivot rows.
        solver = SNFSolver(m)
        for _ in range(4):
            x = [rng.randint(-3, 3) for _ in range(rows)]
            reduced = replay_eliminations(eliminations,
                                          {i: c for i, c in enumerate(x) if c})
            assert not set(reduced) & set(pivots)
            assert solver.contains([c - reduced.get(i, 0)
                                    for i, c in enumerate(x)]), (m, x)
            assert whole.to_canonical(x) == whole.to_canonical(
                [reduced.get(i, 0) for i in range(rows)]), (m, x)


def remainder_shape(rest, rows):
    """Which tail ``eliminate_units`` hands its remainder to."""
    if not rest:
        return "empty"
    if len(rest) == 1:
        return "one row"
    return "one column" if len(rows) == 1 else "general"


def test_remainder_handoff_matches_smith_normal_form():
    """Random sparse columns whose unit-free remainder is empty, one row,
    one column or at least two of each, plus inputs that are empty from
    the start: ``elementary_divisors`` hands the remainder's rows to the
    tail, and ``Cokernel`` hands them to ``smith_normal_form``, with
    neither a copy nor a transpose in between."""
    rng = random.Random(20261021)
    families = [(-1, 1), (-1, 1, 2), (-2, 2, 3, 4, 6), (-3, -1, 1, 2, 4)]
    shapes = {"empty": 0, "one row": 0, "one column": 0, "general": 0}
    cases = [(0, []), (0, [{}, {}]), (3, []), (3, [{}, {0: 0}])]
    for trial in range(2000):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols, families[trial % 4],
                          rng.choice((0.2, 0.4, 0.7)))
        cases.append((nrows, sparse_columns(m)))
    for nrows, columns in cases:
        _, rows, rest = eliminate_units(nrows, columns)
        assert all(len(row) == len(rows) and any(row) for row in rest)
        shapes[remainder_shape(rest, rows)] += 1
        dense = from_sparse_columns(nrows, columns)
        diagonal = smith_normal_form(dense).diagonal
        assert elementary_divisors(nrows, columns) == diagonal, dense
        coker = Cokernel(nrows, columns)
        assert (coker.rank, coker.torsion) == (
            nrows - sum(1 for d in diagonal if d),
            tuple(d for d in diagonal if d > 1)), dense
        for column in columns:
            assert coker.coordinates(column) == (
                (0,) * coker.rank, (0,) * len(coker.torsion)), dense
        free = [rng.randint(-3, 3) for _ in range(coker.rank)]
        torsion = [rng.randrange(d) for d in coker.torsion]
        lift = coker.lift(free, torsion)
        assert coker.coordinates(dict(enumerate(lift))) == (
            tuple(free), tuple(torsion)), dense
    assert min(shapes.values()) >= 40, shapes


def test_elementary_divisors_degenerate_shapes():
    assert elementary_divisors(0, [{}, {}, {}]) == []
    assert elementary_divisors(4, []) == []
    assert elementary_divisors(0, []) == []
    assert elementary_divisors(3, [{}, {}]) == [0, 0]
    # Explicit zeros in a column are ignored.
    assert elementary_divisors(2, [{0: 0, 1: 2}, {0: 4}]) == [2, 4]
    assert elementary_divisors(2, [{0: 2}, {1: 3}]) == [1, 6]


def test_one_row_or_one_column_is_read_as_a_gcd(monkeypatch):
    """A matrix of one row or one column is the gcd of its entries, read
    before any elimination, whatever its zeros and signs."""
    def refuse(*args):
        raise AssertionError("a one-row or one-column matrix was eliminated")

    rng = random.Random(33)
    cases = [(1, [{0: -4}]), (1, [{0: 0}]), (1, [{}, {}]), (3, [{}]),
             (1, [{0: -6}, {}, {0: 9}, {0: 0}]),
             (4, [{0: 0, 1: -10, 3: 15}]), (2, [{0: -1, 1: 0}]),
             (1, [{0: -3}, {0: -3}]), (5, [{2: 2 ** 70, 4: -(2 ** 69)}])]
    for _ in range(60):
        n = rng.randint(1, 6)
        entries = [rng.choice((-12, -6, -4, -1, 0, 0, 2, 3, 8)) for _ in range(n)]
        if rng.random() < 0.5:
            cases.append((1, [{0: v} if rng.random() < 0.8 else {}
                              for v in entries]))
        else:
            cases.append((n, [{i: v for i, v in enumerate(entries)
                               if v or rng.random() < 0.3}]))
    expected = [smith_normal_form(from_sparse_columns(nrows, columns)).diagonal
                for nrows, columns in cases]
    monkeypatch.setattr(intmat, "eliminate_units", refuse)
    monkeypatch.setattr(intmat, "_diagonalize", refuse)
    for (nrows, columns), diagonal in zip(cases, expected):
        assert elementary_divisors(nrows, columns) == diagonal, columns


def test_sparse_columns_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6),
                          (-3, -1, 1, 2), 0.4)
        assert from_sparse_columns(m.rows, sparse_columns(m)) == m


# -- the sparse twisted bar differential ------------------------------------


def test_twisted_chain_columns_match_chain_resolution():
    for name, group in sorted(standard_library().items()):
        res = chain_resolution(group, top_length(group.order), budget=BUDGET)
        for w in all_characters(group):
            for k in range(1, res.length + 1):
                sparse = twisted_chain_columns(group, w, k)
                assert from_sparse_columns(res.ranks[k - 1], sparse) == \
                    res.twisted_matrix(k, w), (name, w.values, k)


# -- columns ending in a generating set -------------------------------------

# Largest twisted differential whose full column set the lemma tests build.
MAX_LEMMA_COLUMNS = 2_401


def nonzero_divisors(nrows, columns):
    return [d for d in elementary_divisors(nrows, columns) if d]


def generates(group, elements):
    return len(group._closure(list(elements))) == group.order


def lemma_degrees(group):
    """Degrees ``k`` whose full ``d_{k+1}`` has at most MAX_LEMMA_COLUMNS
    columns."""
    return [k for k in range(MAX_DEGREE + 1)
            if (group.order - 1) ** (k + 1) <= MAX_LEMMA_COLUMNS]


def kept_end(group, last, tup):
    """The stated rule: ``tup`` ends in ``last``, and if it ends ``(y, t)``
    with ``t`` an involution and ``y != t``, then ``y < y·t``."""
    t = tup[-1]
    if t not in last:
        return False
    if len(tup) < 2 or group.table[t][t] or tup[-2] == t:
        return True
    return tup[-2] < group.table[tup[-2]][t]


def assert_same_lattice(group, w, k, last, full, expected):
    """The columns of ``d_{k+1}`` that :func:`kept_end` keeps for ``last``
    are those columns of the full set, whose nonzero elementary divisors
    are ``expected``, and span the same lattice: a sublattice with the
    same nonzero elementary divisors is the whole lattice.  Returns those
    columns."""
    nrows = (group.order - 1) ** k
    part = twisted_chain_columns(group, w, k + 1, last)
    tuples = chain_tuples(group, k + 1)
    # Both list head by head; ``last`` is ascending, as the full set is.
    assert part == [col for col, tup in zip(full, tuples)
                    if kept_end(group, last, tup)], (w.values, k, last)
    assert nonzero_divisors(nrows, part) == expected, (w.values, k, last)
    return part


def dihedral_group(m):
    """The dihedral group of order ``2m``: ``r^i`` is element ``i`` and the
    reflection ``s r^i`` is element ``m + i``."""
    def index(flip, i):
        return flip * m + i % m
    table = [[index(a // m ^ b // m, (-1) ** (b // m) * (a % m) + b % m)
              for b in range(2 * m)] for a in range(2 * m)]
    return FiniteGroup(table)


def lemma_groups():
    for name, group in sorted(standard_library().items()):
        yield name, group
    klein4, z2 = klein_four_group(), cyclic_group(2)
    yield "z2 x klein4", direct_product(z2, klein4)
    yield "s3 x z2", direct_product(standard_library()["s3"], z2)
    yield "dihedral 10", dihedral_group(5)
    yield "dihedral 12", dihedral_group(6)


def test_columns_ending_in_the_bar_generators_span_every_column():
    count = 0
    for name, group in lemma_groups():
        last = group.bar_generators()
        assert generates(group, last), name
        for w in all_characters(group):
            for k in lemma_degrees(group):
                nrows = (group.order - 1) ** k
                full = twisted_chain_columns(group, w, k + 1)
                expected = nonzero_divisors(nrows, full)
                part = assert_same_lattice(group, w, k, last, full, expected)
                assert nonzero_divisors(nrows, part + full) == expected, \
                    (name, w.values, k)
                count += 1
    assert count >= 100


def test_every_generating_pair_spans_every_column():
    for name in ("s3", "d4", "q8"):
        group = standard_library()[name]
        pairs = [pair for pair in
                 itertools.combinations(range(1, group.order), 2)
                 if generates(group, pair)]
        assert len(pairs) >= 9, name
        for w in all_characters(group):
            for k in lemma_degrees(group):
                full = twisted_chain_columns(group, w, k + 1)
                expected = nonzero_divisors((group.order - 1) ** k, full)
                for pair in pairs:
                    assert_same_lattice(group, w, k, pair, full, expected)


def test_columns_ending_in_a_proper_subgroup_can_span_less():
    # {r} generates the rotations of s3 only.  The columns ending in r
    # span a smaller lattice in some degree, so the lemma tests above can
    # fail.
    s3 = standard_library()["s3"]
    assert not generates(s3, [1])
    differs = []
    for w in all_characters(s3):
        for k in lemma_degrees(s3):
            nrows = (s3.order - 1) ** k
            full = twisted_chain_columns(s3, w, k + 1)
            part = twisted_chain_columns(s3, w, k + 1, [1])
            if nonzero_divisors(nrows, part) != nonzero_divisors(nrows, full):
                differs.append((w.values, k))
    assert differs


def test_irredundant_generators():
    library = standard_library()
    expected = {"trivial": [], "z2": [1], "z3": [1], "z4": [1], "z6": [1],
                "klein4": [1, 2], "s3": [3, 4], "d4": [4, 5],
                "q8": [2, 4]}
    for name, group in library.items():
        gens = group.bar_generators()
        assert gens == expected[name], name
        for g in gens:
            assert not generates(group, [h for h in gens if h != g]), name
    # The generating set keeps -1 of q8, which i and j already generate.
    assert library["q8"].generating_set() == [1, 2, 4]


def test_groups_generated_by_involutions_take_involutions_as_generators():
    names = ("klein4", "s3", "d4", "s3 x z2", "dihedral 10", "dihedral 12")
    groups = dict(lemma_groups())
    for name in names:
        group = groups[name]
        gens = group.bar_generators()
        assert gens and set(gens) <= set(group.involutions()), (name, gens)


# -- group homology ---------------------------------------------------------


def generic_homology(res, w, k):
    d_out = res.twisted_matrix(k, w) if k else IntMatrix(0, res.ranks[0])
    return homology_with_basis(d_out, res.twisted_matrix(k + 1, w))[0]


def test_group_homology_matches_kernel_modulo_image():
    count = 0
    for name, group, w in bundled_cases():
        top = top_length(group.order)
        chain = chain_resolution(group, top, budget=BUDGET)
        periodic = (periodic_resolution(group, MAX_DEGREE + 1)
                    if group.is_cyclic() else None)
        for k in range(top):
            expected = generic_homology(chain, w, k).invariant_factors()
            label = (name, w.values, k)
            assert group_homology(group, w, k, provider="bar", budget=BUDGET)\
                .invariant_factors() == expected, label
            assert group_homology(group, w, k, resolution=chain)\
                .invariant_factors() == expected, label
            if periodic is not None:
                assert generic_homology(periodic, w, k)\
                    .invariant_factors() == expected, label
                assert group_homology(group, w, k, provider="cyclic")\
                    .invariant_factors() == expected, label
            count += 1
    assert count >= 60


def periodic_oracle_differential(group, w, k, provider, budget, resolution):
    """``d_{k+1}`` as the periodic route read it before it took the one
    entry: the whole resolution built, then twisted."""
    res = periodic_resolution(group, k + 1)
    return res.ranks[k], sparse_columns(res.twisted_matrix(k + 1, w))


def orbit_fields(report):
    return (report.presentation.invariant_factors(), report.free_rank,
            report.automorphism_count, report.orbit_count, report.orbits)


def test_periodic_scalar_route_matches_the_periodic_resolution(monkeypatch):
    """The cyclic provider's one twisted entry against the Smith normal form
    of the periodic resolution's ``d_{k+1}``, twisted, on ``Z/n`` for ``n =
    1..16``; its orbit reports against those of the built resolution, and
    against the bar route where that is cheap."""
    checked = 0
    for n in range(1, 17):
        group = cyclic_group(n)
        res = periodic_resolution(group, MAX_DEGREE + 1)
        for w in all_characters(group):
            for k in range(MAX_DEGREE + 1):
                label = (n, w.values, k)
                diagonal = smith_normal_form(
                    res.twisted_matrix(k + 1, w)).diagonal
                rank = res.ranks[0] - sum(1 for d in diagonal if d) \
                    if k == 0 else 0
                assert group_homology(group, w, k, provider="cyclic")\
                    .invariant_factors() == (
                        rank, tuple(d for d in diagonal if d > 1)), label
                got = orbit_fields(homology_orbits(group, w, k,
                                                   provider="cyclic"))
                with monkeypatch.context() as patch:
                    patch.setattr(homology, "_twisted_differential",
                                  periodic_oracle_differential)
                    assert got == orbit_fields(homology_orbits(
                        group, w, k, provider="cyclic")), label
                if (n - 1) ** k <= 400:
                    bar = homology_orbits(group, w, k, provider="bar",
                                          budget=None)
                    assert (got[3], sorted(size for _, size in got[4])) == (
                        bar.orbit_count,
                        sorted(size for _, size in bar.orbits)), label
                checked += 1
    assert checked == 5 * sum(len(all_characters(cyclic_group(n)))
                              for n in range(1, 17))


def test_periodic_route_still_refuses_a_group_that_is_not_cyclic():
    klein4 = klein_four_group()
    w = OrientationChar.trivial(klein4)
    message = "periodic resolution requires a cyclic group"
    for reader in (group_homology, induced_homology_maps, homology_orbits):
        with pytest.raises(UnsupportedInputError, match=message):
            reader(klein4, w, 1, provider="cyclic")


def general_periodic_action(group, w, k):
    """Homology and the map of each character-preserving automorphism on
    the periodic route, as the general route reads them: lifts and
    coordinates of a :class:`~gammalab.intmat.Cokernel` of ``d_{k+1}``."""
    coker = Cokernel(*homology._twisted_differential(group, w, k, "cyclic",
                                                     None, None))
    free = coker.rank if k == 0 else 0
    pres = AbelianPresentation.from_diagonal([0] * free + list(coker.torsion))
    hidden = [0] * (coker.rank - free)
    lifts = [coker.lift(unit[:free] + hidden, unit[free:])
             for unit in IntMatrix.identity(pres.ngens).data]
    maps = []
    for alpha in homology.automorphisms_preserving(group, w):
        scalar = homology._periodic_self_map(group, w, k, alpha)
        columns = []
        for lift in lifts:
            f, t = coker.coordinates({0: scalar * lift[0]})
            columns.append(list(f[:free] + t))
        maps.append(IntMatrix.from_columns(columns, rows=pres.ngens).data)
    return pres, maps


def test_periodic_entry_is_read_as_the_general_cokernel_reads_it():
    """The periodic ``d_{k+1}`` is one entry ``d``: ``Cokernel`` gives
    ``Z/|d|`` with coordinate ``sign(d)·x mod |d|``, ``Z`` with coordinate
    ``x`` for ``d = 0`` and nothing for ``|d| = 1``, and the orbit route's
    direct read gives the same homology and maps on every cyclic bundled
    (group, character, degree)."""
    for d in range(-6, 7):
        coker = Cokernel(1, [{0: d}])
        for x in range(-13, 14):
            expected = (((x,), ()) if d == 0 else ((), ()) if abs(d) == 1
                        else ((), ((1 if d > 0 else -1) * x % abs(d),)))
            assert coker.coordinates({0: x}) == expected, (d, x)
    checked = 0
    for name, group in sorted(standard_library().items()):
        if not group.is_cyclic():
            continue
        for w in all_characters(group):
            for k in range(MAX_DEGREE + 1):
                pres, homs = induced_homology_maps(group, w, k,
                                                   provider="cyclic")
                assert (pres, [hom.matrix.data for hom in homs]) == \
                    general_periodic_action(group, w, k), (name, w.values, k)
                checked += 1
    assert checked == 5 * (1 + 2 + 1 + 2 + 2)


def test_budget_fires_at_the_kept_column_bound():
    """Bar homology in degree ``k`` is charged ``|T|·(n-1)^k·(k+2)``, a
    bound on the columns of ``d_{k+1}`` it reads and on their nonzeros; the
    chain resolution is charged :func:`resolution_cost`."""
    for name, group in sorted(standard_library().items()):
        w = OrientationChar.trivial(group)
        kept = group.bar_generators()
        for k in range(MAX_DEGREE + 1):
            columns = len(kept) * (group.order - 1) ** k
            cost = columns * (k + 2)
            built = twisted_chain_columns(group, w, k + 1, kept)
            assert len(built) <= columns, (name, k)
            assert sum(map(len, built)) <= cost, (name, k)
            if cost:
                with pytest.raises(BudgetExceededError,
                                   match=f"^bar homology cost {cost} "):
                    group_homology(group, w, k, provider="bar",
                                   budget=cost - 1)
                group_homology(group, w, k, provider="bar", budget=cost)
            chain = chain_cost(group.order, k + 1)
            if chain:
                with pytest.raises(BudgetExceededError,
                                   match=f"^resolution cost {chain} "):
                    chain_resolution(group, k + 1, budget=chain - 1)


def test_stored_resolution_breaking_the_chain_condition_is_refused():
    z4 = cyclic_group(4)
    res = periodic_resolution(z4, 5)
    diffs = [[[list(entry) for entry in row] for row in diff]
             for diff in res.differentials]
    diffs[2][0][0][1] += 1  # d_2 d_3 is no longer zero
    broken = Resolution(z4, list(res.ranks), [
        [[tuple(entry) for entry in row] for row in diff] for diff in diffs])
    w = OrientationChar.trivial(z4)
    with pytest.raises(IncompatibleInputError) as info:
        group_homology(z4, w, 2, resolution=broken)
    assert "compose to zero" in str(info.value)


# -- only d_{k+1} is read ---------------------------------------------------


def test_bar_route_builds_only_the_outgoing_differential(monkeypatch):
    group = standard_library()["klein4"]
    asked = []
    build = homology.twisted_chain_columns

    def recording(group, w, k, *rest):
        asked.append(k)
        return build(group, w, k, *rest)

    monkeypatch.setattr(homology, "twisted_chain_columns", recording)
    for w in all_characters(group):
        for k in range(MAX_DEGREE + 1):
            asked.clear()
            group_homology(group, w, k, provider="bar")
            assert asked == [k + 1], (w.values, k)


def bar_column_count(group, k):
    """Columns of ``d_{k+1}`` read: ``(n-1)^k`` per generator, and
    ``(n-1)^{k-1}·n/2`` per involution among them once ``k >= 1``."""
    n = group.order
    return sum((n - 1) ** (k - 1) * n // 2 if k and group.table[t][t] == 0
               else (n - 1) ** k for t in group.bar_generators())


def test_bar_route_builds_only_the_columns_ending_in_generators(monkeypatch):
    # T itself is pinned by test_irredundant_generators.
    built = []
    build = homology.twisted_chain_columns

    def recording(*args):
        columns = build(*args)
        built.append(len(columns))
        return columns

    monkeypatch.setattr(homology, "twisted_chain_columns", recording)
    for name, group in sorted(standard_library().items()):
        w = OrientationChar.trivial(group)
        for k in range(top_length(group.order)):
            built.clear()
            group_homology(group, w, k, provider="bar", budget=BUDGET)
            assert built == [bar_column_count(group, k)], (name, k)
    for name, count in (("d4", 56), ("q8", 98)):
        group = standard_library()[name]
        w = OrientationChar.trivial(group)
        for reader in (group_homology, induced_homology_maps):
            built.clear()
            reader(group, w, 2, provider="bar", budget=BUDGET)
            assert built == [count], (name, reader.__name__)


def test_stored_resolution_twists_each_differential_once(monkeypatch):
    z4 = cyclic_group(4)
    res = periodic_resolution(z4, 5)
    asked = []
    twist = Resolution.twisted_matrix

    def recording(self, k, w):
        asked.append(k)
        return twist(self, k, w)

    monkeypatch.setattr(Resolution, "twisted_matrix", recording)
    w = OrientationChar.trivial(z4)
    got = group_homology(z4, w, 3, resolution=res)
    assert got.invariant_factors() == (0, (4,))
    assert sorted(asked) == [3, 4]
    # The package's own periodic route builds and twists nothing.
    asked.clear()

    def refuse(group, length):
        raise AssertionError("the periodic route built a resolution")

    monkeypatch.setattr(resolutions, "periodic_resolution", refuse)
    monkeypatch.setattr(homology, "periodic_resolution", refuse,
                        raising=False)
    assert group_homology(z4, w, 3, provider="cyclic") == got
    assert asked == []
