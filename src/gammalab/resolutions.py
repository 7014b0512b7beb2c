"""Free resolutions of the integers over a group ring.

A resolution stores, per degree, a free rank and a differential given as a
matrix of group ring coefficient vectors.  Two views of a differential are
used: the underlying integer matrix (one block row/column per module
generator, one slot per group element) for validation, and the small twisted
matrix obtained by summing each coefficient vector against a sign character,
which is what homology with twisted integer coefficients needs.

Two providers are built in: the normalized inhomogeneous chain resolution,
which works for every group but grows like ``(order - 1)^k``, and the
periodic rank-one resolution for cyclic groups.  The former is charged
:func:`resolution_cost` before it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import (DEFAULT_BUDGET, IncompatibleInputError,
                     UnsupportedInputError, charge)
from .groups import FiniteGroup, OrientationChar
from .intmat import IntMatrix, elementary_divisors, sparse_columns

if TYPE_CHECKING:
    from .modules import ZPiModule

# A differential is a matrix of group ring elements, stored as nested lists:
# entry[i][j] is a coefficient tuple of length ``group.order``.
RingMatrix = List[List[Tuple[int, ...]]]

# A column of a bar differential with no character and no coefficients:
# ``(rest, g_1, faces, replay)``, as :func:`bar_skeleton` describes.
SkeletonColumn = Tuple[int, int, Tuple[Tuple[int, int], ...], bool]


@dataclass
class Resolution:
    """A chain of free modules resolving the integers."""

    group: FiniteGroup
    ranks: List[int]
    differentials: List[RingMatrix]

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def differential(self, k: int) -> RingMatrix:
        """The map from degree ``k`` to ``k - 1`` (``1 <= k <= length``)."""
        if not (1 <= k <= self.length):
            raise IncompatibleInputError(
                f"no differential at degree {k} in a resolution of length "
                f"{self.length}")
        return self.differentials[k - 1]

    def underlying_matrix(self, k: int) -> IntMatrix:
        """Integer matrix of the degree-``k`` differential on underlying
        generators, indexed ``(i, g) -> i * order + g``."""
        ring = self.differential(k)
        order = self.group.order
        table = self.group.table
        rows_out = self.ranks[k - 1] * order
        cols_out = self.ranks[k] * order
        mat = IntMatrix.zeros(rows_out, cols_out)
        for i in range(self.ranks[k - 1]):
            for j in range(self.ranks[k]):
                coeffs = ring[i][j]
                for h in range(order):
                    col = j * order + h
                    for g, c in enumerate(coeffs):
                        if c:
                            mat.data[i * order + table[h][g]][col] += c
        return mat

    def twisted_matrix(self, k: int, w: OrientationChar) -> IntMatrix:
        """The degree-``k`` differential after tensoring down to twisted
        integers: each ring entry collapses to its signed coefficient sum."""
        ring = self.differential(k)
        rows = []
        for i in range(self.ranks[k - 1]):
            row = []
            for j in range(self.ranks[k]):
                row.append(sum(c * w(g) for g, c in enumerate(ring[i][j])))
            rows.append(row)
        return IntMatrix.from_rows(rows, cols=self.ranks[k])

    def validate(self) -> None:
        """Check the chain condition and exactness over the integers (the
        defining property of resolving the integers).

        Exactness is read off elementary divisors: the complex is exact at
        degree ``k`` when ``rank d_k + rank d_{k+1}`` is the rank of the
        degree-``k`` module and every nonzero divisor of ``d_{k+1}`` is 1;
        the cokernel of ``d_1`` must be ``Z``, so ``d_1`` has corank one
        and no divisor above 1."""
        underlying = [self.underlying_matrix(k) for k in range(1, self.length + 1)]
        for k in range(2, self.length + 1):
            prod = underlying[k - 2].mul(underlying[k - 1])
            if not prod.is_zero():
                raise IncompatibleInputError(
                    f"differentials at degrees {k} and {k - 1} do not compose "
                    f"to zero")
        if self.length < 1:
            return
        divisors = [elementary_divisors(m.rows, sparse_columns(m))
                    for m in underlying]
        rank_of = [0] + [sum(1 for d in divs if d) for divs in divisors]
        unit_only = [all(d in (0, 1) for d in divs) for divs in divisors]
        if underlying[0].rows - rank_of[1] != 1 or not unit_only[0]:
            raise IncompatibleInputError(
                "degree-zero cokernel of the underlying complex is not "
                "infinite cyclic; this chain does not resolve the integers")
        for k in range(1, self.length):
            if (rank_of[k] + rank_of[k + 1] != underlying[k - 1].cols
                    or not unit_only[k]):
                raise IncompatibleInputError(
                    f"underlying complex is not exact at degree {k}")


def chain_resolution_ranks(order: int, length: int) -> List[int]:
    return [(order - 1) ** k for k in range(length + 1)]


def resolution_cost(order: int, ranks: Sequence[int]) -> int:
    """Work estimate: entries times ring size, summed over differentials."""
    return sum(ranks[k - 1] * ranks[k] * order for k in range(1, len(ranks)))


def chain_tuples(group: FiniteGroup, k: int) -> List[Tuple[int, ...]]:
    """The ``k``-tuples of nonidentity elements, in the order in which they
    index the degree-``k`` generators of the chain resolution."""
    return list(itertools.product(range(1, group.order), repeat=k))


def bar_skeleton(group: FiniteGroup, k: int,
                 last: Optional[Sequence[int]] = None) -> List[SkeletonColumn]:
    """The columns of the chain resolution's ``d_k`` that
    :func:`twisted_chain_columns` keeps for ``last``, free of character
    and coefficients, from one tuple walk per group, degree and ``last``:
    the walk is kept in ``group.bar_skeletons`` for the life of the group.
    Each column ``(g_1, ..., g_k)`` is ``(rest, g_1, faces, replay)``:
    ``rest`` indexes ``(g_2, ..., g_k)``, the drop-first face, which is
    translated by ``g_1``; ``faces`` are the other faces as ``(row,
    sign)`` pairs (merge entries ``i`` and ``i + 1`` with sign ``(-1)^(i +
    1)``, drop the last entry with sign ``(-1)^k``; merged tuples holding
    the identity die).  They are summed in walk order, unless a face lands
    on ``rest``: then ``replay`` is true and ``faces`` holds every term in
    walk order, for the tensor step to add onto the drop-first entry."""
    key = (k, None if last is None else tuple(last))
    skeleton = group.bar_skeletons.get(key)
    if skeleton is None:
        skeleton = group.bar_skeletons[key] = _walk_tuples(group, k, last)
    return skeleton


def _walk_tuples(group: FiniteGroup, k: int,
                 last: Optional[Sequence[int]]) -> List[SkeletonColumn]:
    """The walk behind :func:`bar_skeleton`, on the digits of the column
    index: tuples in mixed radix ``order - 1``, last entry fastest."""
    base, table = group.order - 1, group.table
    power = [base ** p for p in range(k + 1)]
    ends = range(1, group.order) if last is None else last
    # The ends kept after each second-to-last entry y; y = 0 for k = 1,
    # where 0 < h keeps them all.
    after = [list(ends) if last is None else
             [h for h in ends if table[h][h] or y == h or y < table[y][h]]
             for y in range(group.order)]
    skeleton = []
    for head_index, head in enumerate(chain_tuples(group, k - 1)):
        for h in after[head[-1] if head else 0]:
            tup, index = head + (h,), head_index * base + h - 1
            rest = index % power[k - 1]
            terms = []
            sign = -1
            for i in range(k - 1):
                merged = table[tup[i]][tup[i + 1]]
                if merged != 0:
                    terms.append((index // power[k - i] * power[k - 1 - i]
                                  + (merged - 1) * power[k - 2 - i]
                                  + index % power[k - 2 - i], sign))
                sign = -sign
            terms.append((index // base, sign))
            replay = any(row == rest for row, _ in terms)
            if not replay:
                faces: Dict[int, int] = {}
                for row, c in terms:
                    _add_coeff(faces, row, c)
                terms = list(faces.items())
            skeleton.append((rest, tup[0], tuple(terms), replay))
    return skeleton


def chain_resolution(group: FiniteGroup, length: int,
                     budget: Optional[int] = DEFAULT_BUDGET) -> Resolution:
    """The normalized inhomogeneous chain resolution.

    Degree ``k`` is free on ``k``-tuples of nonidentity elements (see
    :func:`chain_tuples`); the differential is read off
    :func:`bar_skeleton` with every column kept: the drop-first face
    carries ``g_1`` as its ring coefficient, every other face the
    identity.  Its :func:`resolution_cost` is charged against ``budget``
    before anything is built.
    """
    order = group.order
    ranks = chain_resolution_ranks(order, length)
    charge(resolution_cost(order, ranks), budget, "resolution",
           lambda: f"group order {order}, differential sizes "
                   + " + ".join(f"{ranks[k - 1]}x{ranks[k]}"
                                for k in range(1, len(ranks))))
    differentials = []
    for k in range(1, length + 1):
        entries: List[List[Dict[int, int]]] = [
            [dict() for _ in range(ranks[k])] for _ in range(ranks[k - 1])
        ]
        for col, (rest, g, faces, _) in enumerate(bar_skeleton(group, k)):
            entries[rest][col][g] = 1
            for row, c in faces:
                _add_coeff(entries[row][col], 0, c)
        ring: RingMatrix = []
        for row_entries in entries:
            ring_row = []
            for entry in row_entries:
                coeffs = [0] * order
                for g, c in entry.items():
                    coeffs[g] = c
                ring_row.append(tuple(coeffs))
            ring.append(ring_row)
        differentials.append(ring)
    return Resolution(group, ranks, differentials)


def twisted_chain_columns(group: FiniteGroup, w: OrientationChar, k: int,
                          last: Optional[Sequence[int]] = None,
                          coefficients: Optional[ZPiModule] = None
                          ) -> List[Dict[int, int]]:
    """The columns of the chain resolution's ``d_k`` tensored down to ``M ⊗
    Z^w``, as ``{row: value}`` maps, built from the group's kept
    :func:`bar_skeleton`: no ring matrix and no budget check.  ``M`` is the
    ``coefficients``, free on ``n`` underlying generators, or the integers
    (``n = 1``) when ``None``, which gives the columns of
    ``chain_resolution(group, k).twisted_matrix(k, w)``.  Column ``(g_1,
    ..., g_k) ⊗ e_a`` drops its first entry to ``(g_2, ...) ⊗
    w(g_1)·g_1⁻¹·e_a`` and keeps ``e_a`` in every other term; row
    ``tuple·n + b`` is ``tuple ⊗ e_b``, tuples in mixed radix ``order -
    1``.  Each column's drop-first entries come first, then its other
    faces in walk order, so the columns and their insertion order do not
    depend on whether the skeleton was kept.

    With ``last``, only the columns ``head + (h,)`` with ``h`` in ``last``,
    and of those ending ``(y, t)`` with ``t`` an involution (``t·t = 1``)
    and ``y != t``, only the ones with ``y < y·t``.  If ``last`` generates
    the group they span the same lattice as all columns, whatever ``M``:
    both rules come from ``d d = 0`` in the resolution.

    * Generators: ``d d (head, x, h) = 0`` makes ``col(head, x) =
      ±col(head, x·h)`` modulo columns ending in ``h``, and a walk ``x ->
      x·h_1 -> ... -> 1`` through ``last`` ends at ``col(head, 1) = 0``.
    * Involutions: take ``e = (a_1, ..., a_{k-1}, y, t, t)`` with ``y``
      not in ``{1, t}``.  In ``d e`` the merge ``t·t = 1`` dies; dropping
      ``a_1`` and every merge before ``y·t`` leave tuples ending ``(t,
      t)``; the merge ``y·t`` gives the partner ``(..., y·t, t)``; and
      dropping the last entry gives ``(..., y, t)`` with coefficient ``±1``,
      as no twist reaches it.  So ``d d e = 0`` makes ``col(..., y, t) =
      ±col(..., y·t, t) ± w(a_1) col(..., t, t) ± ...``.  Of the pair
      ``{y, y·t}`` the smaller is kept, and so is every column ending
      ``(t, t)``: each dropped column is an integer combination of kept
      ones, and nothing is circular.  For ``k = 1`` there is no ``y`` and
      nothing is dropped."""
    skeleton = bar_skeleton(group, k, last)
    columns = []
    if coefficients is None:
        # Z^w: the drop-first entry is w(g_1), and the face rows are the
        # skeleton's own.
        values = w.values
        for rest, g, faces, replay in skeleton:
            column = {rest: values[g]}
            if replay:
                for row, c in faces:
                    _add_coeff(column, row, c)
            else:
                column.update(faces)
            columns.append(column)
        return columns
    # Per element g and basis vector e_a: a and the entries of w(g)·g⁻¹·e_a.
    n = coefficients.underlying.ngens
    units = list(enumerate(IntMatrix.identity(n).data))
    twist = [[(a, [(b, w(g) * c) for b, c in enumerate(
        coefficients.act(group.inv(g), unit)) if c]) for a, unit in units]
        for g in range(group.order)]
    for rest, g, faces, replay in skeleton:
        for a, first in twist[g]:
            column = {}
            for b, c in first:
                column[rest * n + b] = c
            if replay:
                for row, c in faces:
                    _add_coeff(column, row * n + a, c)
            else:
                column.update((row * n + a, c) for row, c in faces)
            columns.append(column)
    return columns


def _add_coeff(entry: Dict[int, int], g: int, c: int) -> None:
    entry[g] = entry.get(g, 0) + c
    if entry[g] == 0:
        del entry[g]


def periodic_generator(group: FiniteGroup) -> int:
    """The smallest element of full order in a cyclic group."""
    for g in range(group.order):
        if group.element_order(g) == group.order:
            return g
    raise UnsupportedInputError(
        "periodic resolution requires a cyclic group, and no element "
        "generates this one")


def periodic_resolution(group: FiniteGroup, length: int) -> Resolution:
    """The rank-one two-periodic resolution for a cyclic group: generator
    minus identity in odd degrees, the full element sum in even degrees.
    Homology reads its one twisted entry per degree without building it;
    the resolution is built for stored-resolution callers and the tests."""
    t = periodic_generator(group)
    order = group.order
    minus_one = [0] * order
    minus_one[0] = -1
    gen_minus_one = list(minus_one)
    gen_minus_one[t] += 1
    norm = [1] * order
    differentials: List[RingMatrix] = []
    for k in range(1, length + 1):
        entry = tuple(gen_minus_one) if k % 2 == 1 else tuple(norm)
        differentials.append([[entry]])
    return Resolution(group, [1] * (length + 1), differentials)
