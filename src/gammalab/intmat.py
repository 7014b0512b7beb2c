"""Exact integer matrices, Smith normal form, and lattice utilities.

Everything here runs on Python's arbitrary-precision integers; no result is
ever rounded or reduced modulo anything.  This module is the computational
substrate for the rest of the package: presentations of abelian groups,
kernels, preimage lattices and homology all reduce to the functions below.

Conventions
-----------
* ``IntMatrix`` is dense, with explicit row and column counts so that the
  degenerate shapes ``0 x n`` and ``n x 0`` (empty relation sets, rank-zero
  modules) stay unambiguous.
* A sparse matrix is a row count plus a list of columns, each a
  ``{row: value}`` map of its nonzero entries; ``eliminate_units``,
  ``elementary_divisors`` and ``Cokernel`` take this form.
  ``eliminate_units`` leaves the unit-free remainder as dense rows, one
  per surviving column, which is the form both its readers take.
* The diagonal-only routes never run ``smith_normal_form``, which stays
  for the callers that read a transform and as the test oracle.  A dense
  route and a sparse route meet in one tail, ``dense_elementary_divisors``:
  a one-row or one-column matrix is the gcd of its entries, and a larger
  one takes an unlogged diagonalization that takes unit pivots first and
  drops each row that becomes zero, then the divisibility order by
  ``divisor_chain``.  The relation rows of a presentation go to the tail
  as they stand.  ``elementary_divisors`` is the sparse route: it
  eliminates the unit pivots of sparse columns, picked to keep fill-in
  low, and hands the tail the remainder's rows, uncopied, when any
  survive.  It serves the bar differentials of homology (up to 2,401 x
  4,802, where a dense pass would take cubic time), the one entry of a
  periodic differential, stored resolutions, ``Resolution.validate`` and
  module sizes.
* Canonical coordinates of a cokernel have one route, ``Cokernel``: the
  unit pivots go through ``eliminate_units``, and only the unit-free
  remainder, as it comes, goes to ``smith_normal_form``.  Presentations
  and homology orbits read their coordinates from it.
* ``smith_normal_form`` returns ``U, D, V`` with ``U * M * V = D``, both
  transforms unimodular, and the diagonal of ``D`` nonnegative with each
  entry dividing the next.  The reduction logs its elementary operations;
  each transform, and each inverse, is built from the log only when a
  caller reads it, by replaying the operations on an identity (inverses by
  undoing them from the other side), never by inverting after the fact.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import deque
from functools import cached_property
from itertools import chain, compress
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)


def xgcd(a: int, b: int) -> tuple:
    """Extended gcd: return ``(g, x, y)`` with ``g = x*a + y*b`` and ``g >= 0``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def bezout_combination(values: Sequence[int]) -> tuple:
    """Return ``(g, coeffs)`` with ``g = sum(c * v) >= 0`` over the values.

    The running gcd takes one ``xgcd`` step per value, ``g_k = x_k·g_{k-1}
    + y_k·v_k``, so the coefficient of ``v_i`` is ``y_i`` times the product
    of the later ``x_k``: one pass forward, then one pass back."""
    g = 0
    steps = []
    for v in values:
        g, x, y = xgcd(g, v)
        steps.append((x, y))
    coeffs = []
    later = 1
    for x, y in reversed(steps):
        coeffs.append(y * later)
        later *= x
    coeffs.reverse()
    return g, coeffs


class IntMatrix:
    """A dense matrix of Python integers with explicit shape."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Sequence[Sequence[int]]] = None):
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix shape ({rows}, {cols}) is negative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError(f"expected {rows} rows, got {len(data)}")
            copied = []
            for i, row in enumerate(data):
                row = list(row)
                if len(row) != cols:
                    raise ValueError(f"row {i} has length {len(row)}, expected {cols}")
                copied.append(row)
            self.data = copied

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Build from a list of rows; ``cols`` is required when the list is empty."""
        if not rows:
            if cols is None:
                raise ValueError("column count required for an empty row list")
            return cls(0, cols)
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError(f"rows have length {width}, expected {cols}")
        return cls(len(rows), width, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        """Build from a list of columns; ``rows`` is required when the list is empty."""
        if not columns:
            if rows is None:
                raise ValueError("row count required for an empty column list")
            return cls(rows, 0)
        height = len(columns[0])
        if rows is not None and rows != height:
            raise ValueError(f"columns have length {height}, expected {rows}")
        m = cls(height, len(columns))
        for j, col in enumerate(columns):
            if len(col) != height:
                raise ValueError(f"column {j} has length {len(col)}, expected {height}")
            for i, value in enumerate(col):
                m.data[i][j] = value
        return m

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None,
                 cols: Optional[int] = None) -> "IntMatrix":
        n = len(entries)
        m = cls(rows if rows is not None else n, cols if cols is not None else n)
        for i, value in enumerate(entries):
            m.data[i][i] = value
        return m

    # -- basic access -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def row(self, i: int) -> List[int]:
        return list(self.data[i])

    def column(self, j: int) -> List[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> Iterator[List[int]]:
        for j in range(self.cols):
            yield self.column(j)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, self.data)

    def transpose(self) -> "IntMatrix":
        t = IntMatrix(self.cols, self.rows)
        for i in range(self.rows):
            row = self.data[i]
            for j in range(self.cols):
                t.data[j][i] = row[j]
        return t

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"IntMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = IntMatrix(self.rows, other.cols)
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a == 0:
                    continue
                brow = bdata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] += a * b
        return out

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot add {self.shape} and {other.shape}")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot subtract {other.shape} from {self.shape}")
        return IntMatrix(self.rows, self.cols,
                         [[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [[c * v for v in row] for row in self.data])

    def mat_vec(self, x: Sequence[int]) -> List[int]:
        if len(x) != self.cols:
            raise ValueError(f"vector length {len(x)} does not match {self.cols} columns")
        return [sum(map(operator.mul, row, x)) for row in self.data]

    def vec_mat(self, x: Sequence[int]) -> List[int]:
        if len(x) != self.rows:
            raise ValueError(f"vector length {len(x)} does not match {self.rows} rows")
        out = [0] * self.cols
        for i, coeff in enumerate(x):
            if coeff == 0:
                continue
            row = self.data[i]
            for j in range(self.cols):
                out[j] += coeff * row[j]
        return out

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"trace of a non-square {self.shape} matrix")
        return sum(self.data[i][i] for i in range(self.rows))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError(f"cannot hstack {self.shape} and {other.shape}")
        return IntMatrix(self.rows, self.cols + other.cols,
                         [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError(f"cannot vstack {self.shape} and {other.shape}")
        return IntMatrix(self.rows + other.rows, self.cols, self.data + other.data)


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact for any size."""
    if m.rows != m.cols:
        raise ValueError(f"determinant of a non-square {m.shape} matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


class SNFResult:
    """Smith normal form ``U * M * V = D`` of a matrix.

    ``diagonal`` lists the diagonal of ``D`` out to ``min(rows, cols)``,
    sign-normalized and in divisibility order.  ``u``, ``v``, ``uinv`` and
    ``vinv`` are each built from the operation log on first read.
    """

    def __init__(self, d: IntMatrix, diagonal: List[int], log: tuple):
        self.d = d
        self.diagonal = diagonal
        self._log = log

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @cached_property
    def u(self) -> IntMatrix:
        return _replay(self._log, _ROW, self.d.rows, undo=False)

    @cached_property
    def uinv(self) -> IntMatrix:
        return _replay(self._log, _ROW, self.d.rows, undo=True).transpose()

    @cached_property
    def v(self) -> IntMatrix:
        return _replay(self._log, _COL, self.d.cols, undo=False).transpose()

    @cached_property
    def vinv(self) -> IntMatrix:
        return _replay(self._log, _COL, self.d.cols, undo=True)


# An operation is logged as ``code | target << 3 | source << 33`` in an
# ``array`` of 64-bit ints, and its factor, of any size, in a list.  The low
# bit of the code is the side (row or column), the rest the kind: swap,
# ``target += factor * source``, or negation of ``target``.
_ROW, _COL = 0, 1
_SWAP, _ADD, _NEGATE = 0, 2, 4


def _replay(log: tuple, side: int, n: int, undo: bool) -> IntMatrix:
    """Replay the logged operations of one side, in order, as row
    operations on the ``n x n`` identity: this gives ``U`` for rows and
    ``V^T`` for columns.  With ``undo`` each operation is inverted and
    applied from the other side, which gives ``(U^-1)^T`` and ``V^-1``."""
    t = IntMatrix.identity(n)
    a = t.data
    for op, factor in zip(*log):
        if op & 1 != side:
            continue
        kind = op & 6
        target, source = op >> 3 & 0x3FFFFFFF, op >> 33
        if kind == _SWAP:
            a[target], a[source] = a[source], a[target]
        elif kind == _ADD:
            if undo:
                target, source, factor = source, target, -factor
            row = a[target]
            for k, x in enumerate(a[source]):
                if x:
                    row[k] += factor * x
        else:
            a[target] = [-x for x in a[target]]
    return t


class _Worker:
    """Mutable elimination state: the matrix plus a log of the elementary
    operations made on it, from which :class:`SNFResult` builds the
    transforms."""

    def __init__(self, m: IntMatrix):
        self.a = [row[:] for row in m.data]
        self.rows = m.rows
        self.cols = m.cols
        self.ops = array("q")
        self.factors: List[int] = []

    def log(self, code: int, target: int, source: int, factor: int) -> None:
        self.ops.append(code | target << 3 | source << 33)
        self.factors.append(factor)

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.log(_SWAP | _ROW, i, j, 0)

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        self.log(_SWAP | _COL, i, j, 0)

    def add_row(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j."""
        if q == 0:
            return
        ai, aj = self.a[i], self.a[j]
        for k in range(self.cols):
            if aj[k]:
                ai[k] += q * aj[k]
        self.log(_ADD | _ROW, i, j, q)

    def add_col(self, j: int, i: int, q: int) -> None:
        """col_j += q * col_i."""
        if q == 0:
            return
        for row in self.a:
            if row[i]:
                row[j] += q * row[i]
        self.log(_ADD | _COL, j, i, q)

    def negate_col(self, j: int) -> None:
        for row in self.a:
            row[j] = -row[j]
        self.log(_NEGATE | _COL, j, j, 0)


def _find_min_pivot(a, t, rows, cols):
    best = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            value = row[j]
            if value != 0:
                key = (abs(value), i, j)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2]


def _clear_classical(w: _Worker, t: int) -> bool:
    """Clear row and column ``t`` using division steps, re-picking the
    minimal pivot whenever a remainder survives.  Terminates because the
    pivot's absolute value strictly decreases on every re-pick.  Returns
    ``False``, having done nothing, when the trailing block is zero."""
    while True:
        pos = _find_min_pivot(w.a, t, w.rows, w.cols)
        if pos is None:
            return False
        w.swap_rows(t, pos[0])
        w.swap_cols(t, pos[1])
        pivot = w.a[t][t]
        dirty = False
        for i in range(t + 1, w.rows):
            value = w.a[i][t]
            if value:
                q = value // pivot
                w.add_row(i, t, -q)
                if w.a[i][t]:
                    dirty = True
        for j in range(t + 1, w.cols):
            value = w.a[t][j]
            if value:
                q = value // pivot
                w.add_col(j, t, -q)
                if w.a[t][j]:
                    dirty = True
        if not dirty:
            return True


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms.

    Each step picks the nonzero entry of minimal absolute value and reduces
    by repeated division (ties broken by position, so the whole computation
    is deterministic).  The transforms are built only when read.
    """
    w = _Worker(m)
    limit = min(w.rows, w.cols)
    t = 0
    while t < limit:
        if not _clear_classical(w, t):
            break
        # Fold any entry of the trailing block that the pivot does not divide
        # into the pivot's row, then re-clear: this drives the pivot down to
        # the gcd of the whole block, which yields the divisibility chain.
        pivot = w.a[t][t]
        fold = None if abs(pivot) == 1 else next(
            (i for i in range(t + 1, w.rows)
             if any(x % pivot for x in w.a[i][t + 1:])), None)
        if fold is None:
            t += 1
        else:
            w.add_row(t, fold, 1)
    for i in range(limit):
        if w.a[i][i] < 0:
            w.negate_col(i)
    diagonal = [w.a[i][i] for i in range(limit)]
    return SNFResult(IntMatrix(w.rows, w.cols, w.a), diagonal,
                     (w.ops, w.factors))


def sparse_columns(m: IntMatrix) -> List[Dict[int, int]]:
    """The columns of ``M`` as ``{row: value}`` maps of their nonzero entries."""
    columns: List[Dict[int, int]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, value in enumerate(row):
            if value:
                columns[j][i] = value
    return columns


def from_sparse_columns(nrows: int, columns: Sequence[Mapping[int, int]]) -> IntMatrix:
    """The dense ``nrows x len(columns)`` matrix with the given sparse columns."""
    m = IntMatrix(nrows, len(columns))
    for j, col in enumerate(columns):
        for i, value in col.items():
            m.data[i][j] = value
    return m


# One unit pivot: (pivot row, pivot sign, pivot column as it stood).
Elimination = Tuple[int, int, Dict[int, int]]


def eliminate_units(nrows: int, columns: Sequence[Mapping[int, int]]
                    ) -> Tuple[List[Elimination], List[int], List[List[int]]]:
    """Sparse elimination of the entries ``±1`` of the ``nrows x
    len(columns)`` matrix whose ``j``-th column has the nonzero entries
    ``columns[j]`` (row -> value).

    Each pivot is replaced by its Schur complement, which drops its row and
    column.  Within a column the unit in the shortest row is taken, which
    keeps fill-in low; a column without a unit is looked at again only
    after an elimination changed it.

    Returns ``(eliminations, rows, rest)``.  ``eliminations`` lists, in the
    order made, ``(pivot row, pivot sign, pivot column)`` with the column as
    it stood then; in the cokernel that column says the pivot row's basis
    vector equals ``-sign`` times the rest of the column.  ``rest`` is the
    unit-free remainder as dense rows: one per surviving nonzero column, in
    column order, each over the surviving rows that still hold an entry,
    listed in ``rows`` in increasing order; the other surviving rows are
    zero.  So ``rest`` is the transpose of the remainder, which has the same
    elementary divisors, and an empty ``rest`` leaves ``rows`` empty.  The
    input columns are left as they are.
    """
    cols = [{i: v for i, v in col.items() if v} for col in columns]
    in_row: List[set] = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            in_row[i].add(j)
    queue = deque(sorted(range(len(cols)), key=lambda j: len(cols[j])))
    queued = [True] * len(cols)
    eliminations: List[Elimination] = []
    while queue:
        j = queue.popleft()
        queued[j] = False
        pivot_col = cols[j]
        best = -1
        for i, value in pivot_col.items():
            if (value == 1 or value == -1) and (
                    best < 0 or len(in_row[i]) < len(in_row[best])):
                best = i
        if best < 0:
            continue
        for r in pivot_col:
            in_row[r].discard(j)
        # col_c -= (col_c[best] / pivot) * pivot_col, and 1 / pivot = pivot.
        pivot = pivot_col[best]
        for c in in_row[best].copy():
            col = cols[c]
            factor = col[best] * pivot
            for r, value in pivot_col.items():
                new = col.get(r, 0) - factor * value
                if new:
                    if r not in col:
                        in_row[r].add(c)
                    col[r] = new
                else:
                    del col[r]
                    in_row[r].discard(c)
            if not queued[c]:
                queued[c] = True
                queue.append(c)
        cols[j] = {}
        eliminations.append((best, pivot, pivot_col))
    live_cols = [col for col in cols if col]
    rows = sorted({i for col in live_cols for i in col})
    position = {i: p for p, i in enumerate(rows)}
    rest = []
    for col in live_cols:
        row = [0] * len(rows)
        for i, value in col.items():
            row[position[i]] = value
        rest.append(row)
    return eliminations, rows, rest


def replay_eliminations(eliminations: Sequence[Elimination],
                        vector: Dict[int, int]) -> Dict[int, int]:
    """Replay the unit eliminations on the vector ``{row: value}``, used
    up, in the order they were made: each pivot row's coefficient is traded
    for the rest of its pivot column, which does not change the class in
    the cokernel.  The result lives on the surviving rows."""
    for row, sign, column in eliminations:
        a = vector.pop(row, 0)
        if a:
            a *= sign
            for r, value in column.items():
                if r != row:
                    vector[r] = vector.get(r, 0) - a * value
    return vector


class Cokernel:
    """Canonical coordinates on the cokernel of a sparse matrix, given as
    to :func:`eliminate_units`: ``rank`` coordinates in ``Z`` and one in
    ``Z/d`` per entry ``d`` of ``torsion``, a divisor chain of entries
    ``>= 2``.

    The unit pivots go first, through :func:`eliminate_units`, and only the
    unit-free remainder goes to :func:`smith_normal_form`, in the rows
    ``eliminate_units`` gives, one per surviving column.  Coordinates
    replay the eliminations, then read ``y = V^T x`` on the rows the
    remainder meets; a surviving row that no column meets is a free
    coordinate of its own.  Lifts go back through ``V^-1`` onto the
    surviving rows.  :meth:`diagonal` takes the rows as the coordinates,
    with neither step.
    """

    def __init__(self, nrows: int, columns: Sequence[Mapping[int, int]]):
        self._eliminations, self._rows, rest = eliminate_units(nrows, columns)
        self._snf = smith_normal_form(IntMatrix.from_rows(
            rest, cols=len(self._rows)))
        taken = set(self._rows).union(row for row, _, _ in self._eliminations)
        own = [i for i in range(nrows) if i not in taken]
        diagonal = self._snf.diagonal
        self._index(nrows, own, diagonal + [0] * (
            len(self._rows) - len(diagonal) + len(own)))

    @classmethod
    def diagonal(cls, orders: Sequence[int]) -> "Cokernel":
        """``Z/d`` on row ``i`` for ``d = orders[i]`` and ``Z`` for ``0``;
        the nonzero orders must form a divisor chain of entries ``>= 2``."""
        coker = cls.__new__(cls)
        coker._eliminations, coker._rows = [], []
        coker._snf = SNFResult(IntMatrix(0, 0), [], (array("q"), []))
        coker._index(len(orders), list(range(len(orders))), list(orders))
        return coker

    def _index(self, nrows: int, own: List[int], moduli: List[int]) -> None:
        """Slot ``s`` of ``V^T x`` followed by the ``own`` rows of ``x`` is
        a ``Z`` coordinate for ``moduli[s] = 0`` and a ``Z/d`` one for ``d
        >= 2``; ``1`` is dead."""
        self.nrows, self._own = nrows, own
        self._free = [s for s, d in enumerate(moduli) if d == 0]
        self._torsion = [s for s, d in enumerate(moduli) if d > 1]
        self.rank = len(self._free)
        self.torsion = tuple(moduli[s] for s in self._torsion)

    def _spread(self, slots: Sequence[int], values: Iterable[int],
                transform) -> List[int]:
        """The vector over all rows that holds ``values`` at ``slots`` of
        ``V^T x`` followed by the own rows, ``transform`` mapping the first
        part back onto the rows the remainder meets."""
        z = [0] * (len(self._rows) + len(self._own))
        for s, value in zip(slots, values):
            z[s] = value
        m = len(self._rows)
        x = [0] * self.nrows
        for i, value in zip(self._rows + self._own, transform(z[:m]) + z[m:]):
            x[i] = value
        return x

    def coordinates(self, vector: Mapping[int, int]
                    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(free, torsion)`` of the class of the vector ``{row: value}``."""
        x = replay_eliminations(self._eliminations, dict(vector))
        slots = self._snf.v.vec_mat([x.get(i, 0) for i in self._rows]) + [
            x.get(i, 0) for i in self._own]
        return (tuple(slots[s] for s in self._free),
                tuple(slots[s] % d for s, d in zip(self._torsion, self.torsion)))

    def lift(self, free: Sequence[int], torsion: Sequence[int]) -> List[int]:
        """A vector with the coordinates ``(free, torsion)``."""
        if len(free) != self.rank or len(torsion) != len(self.torsion):
            raise ValueError(
                f"coordinates of lengths ({len(free)}, {len(torsion)}) do "
                f"not match ({self.rank}, {len(self.torsion)})")
        return self._spread(self._free + self._torsion, chain(free, torsion),
                            self._snf.vinv.vec_mat)

    def functional(self, coefficients: Sequence[int]) -> List[int]:
        """The row ``f`` with ``f . x = sum(c_i * free_i(x))``, which kills
        every column: undone last first, each elimination gives its pivot
        row the value of the rest of its pivot column."""
        f = self._spread(self._free, coefficients, self._snf.v.mat_vec)
        for row, sign, column in reversed(self._eliminations):
            f[row] = -sign * sum(value * f[r] for r, value in column.items()
                                 if r != row)
        return f


def _diagonalize(a: List[List[int]]) -> List[int]:
    """The nonzero entries of a diagonal form of the dense matrix ``a``
    (a list of equal-length rows, used up), reached by unimodular row and
    column operations that are not logged.

    While some row holds a ``1`` or ``-1``, the first such row with the
    fewest nonzero entries gives the pivot, which keeps fill-in low, and
    one pass of row steps clears its column with no remainder.  The pivot
    row then leaves the matrix, and so does each row the steps make zero:
    the column steps would only clear the pivot row, and a zero row adds
    nothing.  So a mostly-zero matrix shrinks as it goes.

    What is left holds no unit.  Each of its pivots starts as a nonzero
    entry of smallest absolute value.  Row division steps clear its column;
    a remainder is smaller than the pivot, so the smallest one becomes the
    pivot until the column is clear.  The column steps then only reduce the
    pivot's row modulo the pivot, and a remainder there becomes the pivot
    in turn.  Every re-pick stays in the pivot's row or column.  The
    entries are not in divisibility order: :func:`divisor_chain` sorts them
    out.
    """
    diagonal: List[int] = []
    a = [row for row in a if any(row)]
    while True:
        i, fewest = -1, 0
        for r, top in enumerate(a):
            if 1 in top or -1 in top:
                size = len(top) - top.count(0)
                if i < 0 or size < fewest:
                    i, fewest = r, size
        if i < 0:
            break
        top = a.pop(i)
        j = top.index(1) if 1 in top else top.index(-1)
        pivot = top[j]
        across = [(k, top[k]) for k in compress(range(len(top)), top)]
        # The rows that meet the pivot's column, last first, so that
        # dropping one leaves the positions still to come as they are.
        for r in reversed(list(compress(range(len(a)),
                                        map(operator.itemgetter(j), a)))):
            row = a[r]
            # ``row[j] // pivot``, as a unit is its own inverse.
            q = row[j] * pivot
            for k, x in across:
                row[k] -= q * x
            if not any(row):
                del a[r]
        diagonal.append(pivot)
    rows = len(a)
    cols = len(a[0]) if a else 0
    for t in range(min(rows, cols)):
        # Rows from ``t`` on are zero before column ``t``.
        size = 0
        for r in range(t, rows):
            least = min(map(abs, filter(None, a[r])), default=0)
            if least and (not size or least < size):
                size, i = least, r
        if not size:
            break
        row = a[i]
        j = row.index(size) if size in row else row.index(-size)
        while True:
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
            while True:
                a[t], a[i] = a[i], a[t]
                top = a[t]
                pivot = top[t]
                across = [(k, top[k]) for k in range(t + 1, cols) if top[k]]
                low = 0
                for r in range(t + 1, rows):
                    row = a[r]
                    if row[t]:
                        q = row[t] // pivot
                        if q:
                            row[t] -= q * pivot
                            for k, x in across:
                                row[k] -= q * x
                        if row[t] and (not low or abs(row[t]) < low):
                            low, i = abs(row[t]), r
                if not low:
                    break
            top[t + 1:] = [x % pivot for x in top[t + 1:]]
            size = min(map(abs, filter(None, top[t + 1:])), default=0)
            if not size:
                diagonal.append(pivot)
                break
            # ``top[t]`` is larger than ``size``, and earlier entries are zero.
            i, j = t, top.index(size) if size in top else top.index(-size)
    return diagonal


def divisor_chain(orders: Sequence[int]) -> List[int]:
    """The invariant factors of the sum of ``Z/d`` over ``orders``: each
    ``>= 2`` and dividing the next.  ``-d`` counts as ``d``; ``0`` and
    ``±1`` add nothing.

    Each order is inserted into the chain from the top down, using ``Z/a +
    Z/b = Z/gcd(a, b) + Z/lcm(a, b)``: the lcm stays in place and the gcd
    moves on, until it is a multiple of the chain entry below it.
    """
    chain: List[int] = []
    for d in orders:
        d = abs(d)
        j = len(chain)
        while d > 1 and j > 0 and d % chain[j - 1]:
            g = math.gcd(d, chain[j - 1])
            chain[j - 1] = chain[j - 1] // g * d
            d = g
            j -= 1
        if d > 1:
            chain.insert(j, d)
    return chain


def dense_elementary_divisors(rows: Sequence[Sequence[int]],
                              length: int) -> List[int]:
    """The Smith normal form diagonal, padded to ``length`` entries, of the
    matrix with the given dense rows.

    With ``length = min(rows, cols)`` this is
    ``smith_normal_form(M).diagonal`` for the matrix ``M`` with these rows,
    and equally with these columns: a matrix and its transpose have the
    same diagonal.  The tail reduces a copy, so the input is left as it
    is.
    """
    return _used_up_divisors([list(row) for row in rows], length)


def _used_up_divisors(rows: List[List[int]], length: int) -> List[int]:
    """:func:`dense_elementary_divisors` of rows it may use up.  A matrix of
    one row or one column has one divisor, the gcd of its entries; a larger
    one goes to :func:`_diagonalize`.  :func:`divisor_chain` puts the
    diagonal in divisibility order, and ones and zeros pad it to
    ``length``."""
    if len(rows) > 1 and len(rows[0]) > 1:
        diagonal = _diagonalize(rows)
    else:
        g = math.gcd(*chain.from_iterable(rows))
        diagonal = [g] if g else []
    divisors = divisor_chain(diagonal)
    ones = len(diagonal) - len(divisors)
    return [1] * ones + divisors + [0] * (length - len(diagonal))


def elementary_divisors(nrows: int, columns: Sequence[Mapping[int, int]]) -> List[int]:
    """The Smith normal form diagonal of the ``nrows x len(columns)`` matrix
    whose ``j``-th column has the nonzero entries ``columns[j]`` (row ->
    value); the same list as ``smith_normal_form(M).diagonal``.

    :func:`eliminate_units` contributes a divisor ``1`` per unit pivot, and
    the dense tail of :func:`dense_elementary_divisors` finishes the
    remainder's rows, which nothing else reads, so they are not copied;
    with no remainder the rest of the diagonal is zeros.
    """
    eliminations, _, rest = eliminate_units(nrows, columns)
    units = len(eliminations)
    length = min(nrows, len(columns)) - units
    if not rest:
        return [1] * units + [0] * length
    return [1] * units + _used_up_divisors(rest, length)


class SNFSolver:
    """Reusable exact solver for ``M x = b`` built on one Smith normal form.

    Solving many right-hand sides against the same matrix (expressing lattice
    vectors in a basis, building presentations of kernels) amortizes the
    normal form.
    """

    def __init__(self, m: IntMatrix):
        self.m = m
        self.snf = smith_normal_form(m)

    def solve(self, b: Sequence[int]) -> Optional[List[int]]:
        """Return integer ``x`` with ``M x = b``, or ``None`` if none exists."""
        if len(b) != self.m.rows:
            raise ValueError(f"rhs length {len(b)} does not match {self.m.rows} rows")
        ub = self.snf.u.mat_vec(list(b))
        diag = self.snf.diagonal
        z = [0] * self.m.cols
        for i, value in enumerate(ub):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if value != 0:
                    return None
            else:
                q, r = divmod(value, d)
                if r != 0:
                    return None
                if i < self.m.cols:
                    z[i] = q
        return self.snf.v.mat_vec(z)

    def contains(self, b: Sequence[int]) -> bool:
        """Whether ``b`` lies in the lattice spanned by the columns of ``M``."""
        return self.solve(b) is not None

    def solve_matrix(self, b: IntMatrix) -> Optional[IntMatrix]:
        """Column-wise :meth:`solve`; ``None`` if any column is unsolvable."""
        columns = []
        for j in range(b.cols):
            x = self.solve(b.column(j))
            if x is None:
                return None
            columns.append(x)
        return IntMatrix.from_columns(columns, rows=self.m.cols)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A basis for the integer kernel ``{x : M x = 0}``, as columns."""
    snf = smith_normal_form(m)
    diag = snf.diagonal
    columns = []
    for j in range(m.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            columns.append(snf.v.column(j))
    return IntMatrix.from_columns(columns, rows=m.cols)


def lattice_basis(m: IntMatrix) -> IntMatrix:
    """A basis (as columns) for the lattice spanned by the columns of ``M``.

    From ``U M V = D`` the column span of ``M`` equals that of ``U^-1 D``,
    whose nonzero columns are a basis.
    """
    snf = smith_normal_form(m)
    columns = []
    for j, d in enumerate(snf.diagonal):
        if d != 0:
            columns.append([d * value for value in snf.uinv.column(j)])
    return IntMatrix.from_columns(columns, rows=m.rows)


def preimage_lattice(f: IntMatrix, target_gens: IntMatrix) -> IntMatrix:
    """Basis (columns) of ``{x : F x in colspan(target_gens)}``.

    Computed as the projection to the first block of the kernel of the
    stacked map ``[F | -G]``.
    """
    if f.rows != target_gens.rows:
        raise ValueError(
            f"map has {f.rows} output rows but target lattice lives in rank {target_gens.rows}")
    stacked = f.hstack(target_gens.scale(-1))
    kernel = kernel_basis(stacked)
    projected = IntMatrix(f.cols, kernel.cols,
                          [kernel.data[i] for i in range(f.cols)])
    return lattice_basis(projected)


def integer_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix over Z; raises if the matrix is not unimodular."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert a non-square {m.shape} matrix")
    solver = SNFSolver(m)
    inverse = solver.solve_matrix(IntMatrix.identity(m.rows))
    if inverse is None:
        raise ValueError("matrix is not invertible over the integers")
    return inverse
