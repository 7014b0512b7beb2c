"""Differential tests: the closed-form invariants of the functor value
against the dense Smith normal form of its relation matrix.

``quadratic_value`` writes the relation rows of the value directly and
takes their invariants from the input's own invariants (the value of the
Smith diagonal).  Each case here rebuilds the rows from ``expand_square``
and ``polarization`` against every unit vector, and compares the invariants
with those of a fresh presentation on the same rows, which runs the dense
normal form.  The element-level oracle in ``test_gamma.py`` stays separate.
"""

import random

from gammalab.abelian import AbelianPresentation
from gammalab.gamma import expand_square, gamma_rank, polarization, quadratic_value
from gammalab.intmat import IntMatrix

CASES_PER_FAMILY = 100


def reference_rows(a):
    n = a.ngens
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    rows = []
    for r in range(a.relations.rows):
        rel = a.relations.row(r)
        rows.append(expand_square(rel))
        rows.extend(polarization(rel, e) for e in units)
    return rows


def random_rows(rng, ngens, nrels, entries):
    return [[rng.choice(entries) for _ in range(ngens)] for _ in range(nrels)]


def scrambled(rng, ngens):
    """``Z^r + Z/d_1 + ...`` on ``ngens`` generators, as ``P D Q`` for
    random unimodular ``P`` and ``Q``, with zero rows dropped."""
    rank = rng.randint(0, ngens)
    orders = [rng.choice((2, 3, 4, 6, 8, 9, 12))
              for _ in range(rng.randint(0, ngens - rank))]
    diagonal = orders + [0] * rank + [1] * (ngens - rank - len(orders))

    def unimodular():
        m = IntMatrix.identity(ngens)
        for _ in range(2 * ngens if ngens > 1 else 0):
            i, j = rng.sample(range(ngens), 2)
            c = rng.choice((-1, 1))
            m.data[i] = [x + c * y for x, y in zip(m.data[i], m.data[j])]
        return m

    d = IntMatrix.diagonal(diagonal)
    product = unimodular().mul(d).mul(unimodular())
    return [row for row in product.data if any(row)]


def families(rng):
    """(name, ngens, rows) for each family of seeded inputs."""
    for _ in range(CASES_PER_FAMILY):
        yield "no generators", 0, [[] for _ in range(rng.randint(0, 3))]
        n = rng.randint(0, 8)
        yield "free", n, []
        n = rng.randint(1, 8)
        yield "zero rows", n, [[0] * n for _ in range(rng.randint(1, 3))]
        n = rng.randint(1, 5)
        yield "more rows than generators", n, random_rows(
            rng, n, rng.randint(n + 1, n + 4), range(-6, 7))
        n = rng.randint(1, 6)
        yield "unit entries", n, random_rows(
            rng, n, rng.randint(1, n), (-1, 0, 0, 1))
        n = rng.randint(1, 5)
        yield "entries up to 50", n, random_rows(
            rng, n, rng.randint(1, 3), range(-50, 51))
        yield "scrambled", rng.randint(1, 8), None


def test_closed_form_invariants_match_dense_snf():
    rng = random.Random(505)
    count = 0
    for name, n, rows in families(rng):
        if rows is None:
            rows = scrambled(rng, n)
        a = AbelianPresentation.from_relation_rows(n, rows)
        value = quadratic_value(a).presentation
        expected = reference_rows(a)
        assert value.ngens == gamma_rank(n), name
        assert [value.relations.row(i) for i in range(value.relations.rows)] \
            == expected, (name, rows)
        fresh = AbelianPresentation.from_relation_rows(gamma_rank(n), expected)
        assert value.invariant_factors() == fresh.invariant_factors(), \
            (name, rows)
        value._canon()
        assert value.invariant_factors() == fresh.invariant_factors(), \
            (name, rows)
        count += 1
    assert count == 7 * CASES_PER_FAMILY


def test_invariants_do_not_depend_on_a_filled_input():
    """The value reads the input's invariants whether or not the input had
    computed them, or its canonical coordinates, beforehand."""
    rng = random.Random(506)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = scrambled(rng, n)
        plain = quadratic_value(AbelianPresentation.from_relation_rows(n, rows))
        filled = AbelianPresentation.from_relation_rows(n, rows)
        filled.to_canonical([0] * n)
        assert quadratic_value(filled).invariant_factors() \
            == plain.invariant_factors()
