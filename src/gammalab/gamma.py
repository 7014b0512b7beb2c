"""The quadratic functor on finitely generated abelian groups.

On a free group ``Z^n`` the functor yields a free group of rank
``n(n+1)/2`` with basis ``v_1..v_n`` followed by ``w_ij`` for ``i < j``;
``v_i`` plays the role of the square of the i-th generator and ``w_ij`` the
polarized product of the i-th and j-th.  A presented group is handled by
presenting the functor value: squares and polarizations of relation vectors
against everything generate exactly the needed relations.  Its invariants
come in closed form from the invariants of the input, so those relation
rows are written only when a caller reads the presentation.

The whole construction is functorial, and a symmetric integer matrix
corresponds to a unique element here (squares on the diagonal, ``w_ij``
off it), which is how intersection forms enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .abelian import (AbelianHom, AbelianPresentation, cyclic_invariants,
                      format_invariants)
from .errors import (BudgetExceededError, IncompatibleInputError,
                     UnsupportedInputError)
from .intmat import IntMatrix
from .resolutions import DEFAULT_BUDGET


def gamma_rank(n: int) -> int:
    """Rank of the functor value on ``Z^n``."""
    return n * (n + 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Position of ``w_ij`` (``i < j``) in the basis of the value on ``Z^n``."""
    if not (0 <= i < j < n):
        raise IncompatibleInputError(f"pair ({i}, {j}) is not ordered within 0..{n - 1}")
    return n + i * n - i * (i + 1) // 2 + (j - i - 1)


def basis_labels(n: int) -> List[str]:
    labels = [f"v{i + 1}" for i in range(n)]
    labels += [f"w{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    return labels


def expand_square(vec: Sequence[int]) -> List[int]:
    """Image of the square of ``sum a_i e_i``: quadratic in the coefficients."""
    n = len(vec)
    out = [0] * gamma_rank(n)
    for i, a in enumerate(vec):
        out[i] = a * a
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            out[pos] = vec[i] * vec[j]
            pos += 1
    return out


def polarization(x: Sequence[int], y: Sequence[int]) -> List[int]:
    """The symmetric cross term: square of a sum minus both squares.

    Bilinear in ``x`` and ``y``, with ``polarization(x, x)`` twice the square.
    """
    if len(x) != len(y):
        raise IncompatibleInputError(
            f"polarization of vectors of different lengths {len(x)} and {len(y)}")
    n = len(x)
    out = [0] * gamma_rank(n)
    for k in range(n):
        out[k] = 2 * x[k] * y[k]
    pos = n
    for k in range(n):
        for l in range(k + 1, n):
            out[pos] = x[k] * y[l] + x[l] * y[k]
            pos += 1
    return out


def _pair_starts(n: int) -> List[int]:
    """Row ``i`` of the pairs starts at ``start[i]``: ``w_ij`` sits at
    ``start[i] + j``, as in :func:`pair_index`."""
    return [n + i * n - i * (i + 1) // 2 - i - 1 for i in range(n)]


def induced_matrix(f: IntMatrix) -> IntMatrix:
    """Matrix of the induced map on functor values, for ``f: Z^n -> Z^m``.

    Columns follow the basis order: squares map to squares of image columns,
    ``w_ij`` to the polarization of the i-th and j-th image columns.
    """
    m, n = f.shape
    cols = []
    image = [f.column(i) for i in range(n)]
    for i in range(n):
        cols.append(expand_square(image[i]))
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(polarization(image[i], image[j]))
    return IntMatrix.from_columns(cols, rows=gamma_rank(m))


@dataclass(frozen=True)
class QuadraticValue:
    """The functor value on a presented abelian group.

    ``source`` is the input presentation and ``invariants`` the invariants
    of the value, in closed form from those of the input.  ``presentation``
    presents the value on ``gamma_rank(source.ngens)`` generators; its
    relation rows are written on first read and kept.
    """

    source: AbelianPresentation
    invariants: Tuple[int, Tuple[int, ...]]

    def invariant_factors(self) -> Tuple[int, Tuple[int, ...]]:
        return self.invariants

    def describe(self) -> str:
        return format_invariants(*self.invariants)

    @cached_property
    def presentation(self) -> AbelianPresentation:
        """Relations: the square of each input relation vector and its
        polarization against each generator, which generate all relations."""
        n = self.source.ngens
        units = IntMatrix.identity(n).data
        rows: List[List[int]] = []
        for rel in self.source.relations.data:
            rows.append(expand_square(rel))
            rows += [polarization(rel, e) for e in units]
        return AbelianPresentation.from_relation_rows(
            gamma_rank(n), rows, invariants=self.invariants)


def quadratic_value(a: AbelianPresentation,
                    budget: Optional[int] = DEFAULT_BUDGET) -> QuadraticValue:
    """The functor value on a presented abelian group, with its invariants.

    The invariants are not read off the relations of the value.  By
    functoriality the value is that of the Smith diagonal
    ``Z^r + Z/d_1 + ... + Z/d_k`` of the input, whose relations each have
    one nonzero entry: ``Z/(d_i gcd(d_i, 2))`` on ``v_i``, ``Z/gcd(d_i, d_j)``
    on ``w_ij`` (``Z/d_i`` against a free generator), and ``Z`` on the
    ``r(r+1)/2`` squares and products of free generators.  The relation rows
    of :attr:`QuadraticValue.presentation` are written only when a caller
    reads it.

    ``budget`` bounds the size of that presentation, its rank times one more
    than its relation count, whether or not it is read; ``None`` removes the
    bound.
    """
    n = a.ngens
    rank = gamma_rank(n)
    nrows = a.relations.rows * (n + 1)
    cost = rank * (nrows + 1)
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"functor value cost {cost} exceeds budget {budget} (input with "
            f"{n} generators and {a.relations.rows} relations: rank {rank}, "
            f"{nrows} relation rows); raise the budget or use a smaller "
            f"presentation")
    free, torsion = a.invariant_factors()
    orders: List[int] = []
    for i, d in enumerate(torsion):
        orders.append(d * math.gcd(d, 2))
        orders += [d] * (len(torsion) - 1 - i + free)
    return QuadraticValue(a, cyclic_invariants(gamma_rank(free), orders))


def induced_hom(f: AbelianHom) -> AbelianHom:
    """The induced map between functor values of presented groups."""
    src = quadratic_value(f.source).presentation
    dst = quadratic_value(f.target).presentation
    return AbelianHom(src, dst, induced_matrix(f.matrix))


def value_of_symmetric_matrix(s: IntMatrix) -> List[int]:
    """The element corresponding to a symmetric matrix: diagonal entries on
    squares, entry ``(i, j)`` on ``w_ij``."""
    n, m = s.shape
    if n != m:
        raise IncompatibleInputError(f"matrix is {n} x {m}, not square")
    for i in range(n):
        for j in range(i + 1, n):
            if s.data[i][j] != s.data[j][i]:
                raise IncompatibleInputError(
                    f"matrix is not symmetric at ({i}, {j}): "
                    f"{s.data[i][j]} vs {s.data[j][i]}")
    out = [s.data[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append(s.data[i][j])
    return out


def symmetric_matrix_of_value(coeffs: Sequence[int], n: int) -> IntMatrix:
    """Inverse of :func:`value_of_symmetric_matrix`; a bijection on coordinates."""
    if len(coeffs) != gamma_rank(n):
        raise IncompatibleInputError(
            f"coefficient vector of length {len(coeffs)} does not match rank "
            f"{gamma_rank(n)}")
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[i][i] = coeffs[i]
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = coeffs[pos]
            s[j][i] = coeffs[pos]
            pos += 1
    return IntMatrix.from_rows(s, cols=n)


def split_indices(n_first: int, n_second: int) -> Tuple[List[int], List[int], List[int]]:
    """Basis positions of the three summands for a direct sum ``Z^a + Z^b``:
    value on the first block, mixed polarizations, value on the second block.
    """
    n = n_first + n_second
    first, mixed, second = [], [], []
    for i in range(n):
        (first if i < n_first else second).append(i)
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            if j < n_first:
                first.append(pos)
            elif i >= n_first:
                second.append(pos)
            else:
                mixed.append(pos)
            pos += 1
    return first, mixed, second


def pair_images(table, n: int):
    """The signed images of the basis of the value on ``Z^n`` under a
    signed-permutation action on ``Z^n`` given by its ``table``.

    The functor sends ``e.x`` to ``e^2`` times the square of ``x``, so ``g``
    sends ``v_a`` to ``v_(ga)`` and ``w_ab`` to ``e_a.e_b.w_(ga)(gb)``, for
    ``g.a = e_a.(ga)``.  Writing ``v_a`` as the pair ``(a, a)`` makes that
    one formula.  Returns the function that lists, for basis vector ``x``
    of the value and each group element in index order, the image's
    position and sign, in the form the orbit walk of
    :func:`~gammalab.modules._coinvariants_by_orbits` reads.
    """
    start = _pair_starts(n)
    # The position of the pair (a, b), in either order.
    position = [[start[a] + b if a < b else start[b] + a if b < a else a
                 for b in range(n)] for a in range(n)]
    pairs = [(a, a) for a in range(n)]
    pairs += [(a, b) for a in range(n) for b in range(a + 1, n)]

    def images(x: int) -> List[Tuple[int, int]]:
        a, b = pairs[x]
        return [(position[ia[a]][ia[b]], sa[a] * sa[b]) for ia, sa in table]

    return images


def quadratic_module(module):
    """Apply the functor to a module over a group ring: same group, induced
    action, free underlying group.

    Requires the underlying abelian group to be free (no relation rows),
    which covers every module this library constructs.  The value of a
    signed-permutation module is one too, with the table of
    :func:`pair_images`; any other module gets induced matrices.
    :func:`~gammalab.classify.gamma_coinvariants` reads the coinvariants of
    the value off :func:`pair_images` without building it, so this
    function is their test oracle.

    The value is checked through its input.  The functor sends the identity
    map to the identity and a composite ``f.g`` to the composite of the
    induced maps, so when the action on the input is a module action, so is
    the induced one; the value is free, so it has no relations to preserve.
    The input's own check (on ``n`` basis vectors) runs here unless the
    input has already passed it, even when it was built with
    ``check=False``, and the value of rank ``n(n+1)/2`` is built
    unchecked.  An input that fails its own check is refused with its own
    message, even where the signs it gets wrong square away in the value.
    """
    from .modules import ZPiModule

    if module.underlying.has_explicit_relations():
        raise UnsupportedInputError(
            "functor value with a group action is only computed over a free "
            "underlying group; this module carries nontrivial relations")
    module._validate()
    n = module.underlying.ngens
    value = AbelianPresentation.free(gamma_rank(n))
    if module.table is None:
        action = [induced_matrix(module.action_matrix(g))
                  for g in range(module.group.order)]
        return ZPiModule(module.group, value, action, check=False)
    images = pair_images(module.table, n)
    columns = [images(x) for x in range(gamma_rank(n))]
    table = [([c[g][0] for c in columns], [c[g][1] for c in columns])
             for g in range(module.group.order)]
    return ZPiModule(module.group, value, check=False, table=table)
