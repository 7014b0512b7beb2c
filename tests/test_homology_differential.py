"""Differential tests: the elementary-divisor route against the generic one.

``group_homology`` reads ``H_k`` off the elementary divisors of sparse
twisted differentials.  Each piece is compared here with the dense generic
path it replaced, which stays in the package as the oracle:

* ``elementary_divisors`` against the diagonal of the full
  ``smith_normal_form`` on seeded random matrices, degenerate shapes
  included;
* the eliminations ``eliminate_units`` records, replayed on random
  vectors, against membership in the column lattice (``SNFSolver``), and
  its remainder against the cokernel of the whole matrix;
* the sparse twisted bar columns against
  ``chain_resolution(...).twisted_matrix(k, w)``;
* ``group_homology`` against ``quotient_of_kernel_by_image`` (kernel basis
  and solves) on every bundled (group, character, degree) within
  :data:`BUDGET`, with every provider that applies.  The oracle reads both
  ``d_k`` and ``d_{k+1}``, so it also checks that ``H_k`` has no free part
  for ``k >= 1``, which ``group_homology`` takes as given.

The last tests pin that ``group_homology`` builds ``d_{k+1}`` alone, once.
"""

import random

import pytest

from gammalab import homology
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import cyclic_group, standard_library
from gammalab.errors import BudgetExceededError, IncompatibleInputError
from gammalab.groups import OrientationChar, all_characters
from gammalab.homology import (MAX_DEGREE, _reduce, group_homology,
                               quotient_of_kernel_by_image)
from gammalab.intmat import (IntMatrix, SNFSolver, elementary_divisors,
                             eliminate_units, from_sparse_columns,
                             smith_normal_form, sparse_columns)
from gammalab.resolutions import (Resolution, chain_resolution,
                                  chain_resolution_ranks, periodic_resolution,
                                  resolution_cost, twisted_chain_columns)

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
        m = random_matrix(rng, rows, cols, entries, density)
        columns = sparse_columns(m)
        snapshot = [dict(col) for col in columns]
        expected = smith_normal_form(m).diagonal
        assert elementary_divisors(rows, columns) == expected, m
        assert columns == snapshot  # the input is left untouched
        checked += 1
    assert checked >= 1000


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
        # The remainder, plus one free generator per surviving zero row,
        # presents the cokernel of the whole matrix.
        whole = AbelianPresentation.from_relation_rows(
            rows, [m.column(j) for j in range(cols)])
        part = AbelianPresentation.from_relation_rows(
            len(kept), [rest.column(j) for j in range(rest.cols)])
        zero_rows = rows - len(pivots) - len(kept)
        assert whole.invariant_factors() == \
            (part.rank + zero_rows, part.torsion), m
        # Replaying the eliminations moves a vector within its class and
        # off the pivot rows.
        solver = SNFSolver(m)
        for _ in range(4):
            x = [rng.randint(-3, 3) for _ in range(rows)]
            reduced = _reduce(eliminations,
                              {i: c for i, c in enumerate(x) if c})
            assert not set(reduced) & set(pivots)
            assert solver.contains([c - reduced.get(i, 0)
                                    for i, c in enumerate(x)]), (m, x)


def test_elementary_divisors_degenerate_shapes():
    assert elementary_divisors(0, [{}, {}, {}]) == []
    assert elementary_divisors(4, []) == []
    assert elementary_divisors(0, []) == []
    assert elementary_divisors(3, [{}, {}]) == [0, 0]
    # Explicit zeros in a column are ignored.
    assert elementary_divisors(2, [{0: 0, 1: 2}, {0: 4}]) == [2, 4]
    assert elementary_divisors(2, [{0: 2}, {1: 3}]) == [1, 6]


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


# -- group homology ---------------------------------------------------------


def generic_homology(res, w, k):
    d_out = res.twisted_matrix(k, w) if k else IntMatrix(0, res.ranks[0])
    return quotient_of_kernel_by_image(d_out, res.twisted_matrix(k + 1, w))


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


def test_budget_fires_where_the_chain_resolution_would():
    for name, group in sorted(standard_library().items()):
        w = OrientationChar.trivial(group)
        for k in range(MAX_DEGREE + 1):
            cost = chain_cost(group.order, k + 1)
            if cost == 0:
                continue
            with pytest.raises(BudgetExceededError):
                group_homology(group, w, k, provider="bar", budget=cost - 1)
            with pytest.raises(BudgetExceededError):
                chain_resolution(group, k + 1, budget=cost - 1)
            if cost <= BUDGET:
                group_homology(group, w, k, provider="bar", budget=cost)


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

    def recording(group, w, k):
        asked.append(k)
        return build(group, w, k)

    monkeypatch.setattr(homology, "twisted_chain_columns", recording)
    for w in all_characters(group):
        for k in range(MAX_DEGREE + 1):
            asked.clear()
            group_homology(group, w, k, provider="bar")
            assert asked == [k + 1], (w.values, k)


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
    # The package's own periodic resolution is not checked again.
    asked.clear()
    assert group_homology(z4, w, 3, provider="cyclic") == got
    assert asked == [4]
