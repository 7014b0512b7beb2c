"""Finitely generated abelian groups as generator/relation presentations.

A presentation holds ``ngens`` generators and a relation matrix whose *rows*
are relations.  Elements are integer column vectors of generator
coefficients; homomorphisms act on such column vectors.  Two presentations
compare equal iff they present isomorphic groups (same invariant factors).

Canonical coordinates, which answer membership, equality, primitivity and
torsion questions, come from one :class:`~gammalab.intmat.Cokernel` of the
relation rows: ``Z`` coordinates, then one ``Z/d_i`` coordinate per
invariant factor.  It eliminates the unit pivots sparsely and runs a Smith
normal form on the unit-free remainder only; ``from_diagonal`` fills the
coordinates with neither step.  The invariant factors alone take the dense
unlogged diagonalization of the rows.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import IncompatibleInputError
from .intmat import (Cokernel, IntMatrix, bezout_combination,
                     dense_elementary_divisors, divisor_chain)


def format_invariants(rank: int, factors: Sequence[int]) -> str:
    """Human-readable name of ``Z^rank + Z/d_1 + ...``; ``"0"`` for the trivial group."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


def cyclic_invariants(rank: int, factors: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Invariants of ``Z^rank + Z/d_1 + Z/d_2 + ...``, by arithmetic alone:
    a factor ``0`` adds a free summand, and the others go through
    :func:`~gammalab.intmat.divisor_chain` (``±1`` drops out, ``-d``
    counts as ``d``)."""
    return rank + sum(1 for d in factors if d == 0), tuple(divisor_chain(factors))


class AbelianPresentation:
    """An abelian group presented by generators and relation rows.

    A presentation from :meth:`from_factors` writes its rows on the first
    read of ``relations``; its invariants, equality, hash and description
    never read them."""

    def __init__(self, ngens: int, relations: IntMatrix):
        if relations.cols != ngens:
            raise ValueError(
                f"relation matrix has {relations.cols} columns for {ngens} generators")
        self.ngens = ngens
        self._relations: Optional[IntMatrix] = relations
        self._invariants: Optional[Tuple[int, Tuple[int, ...]]] = None
        self._canonical = None

    # -- constructors -------------------------------------------------

    @classmethod
    def free(cls, n: int) -> "AbelianPresentation":
        return cls(n, IntMatrix(0, n))

    @classmethod
    def from_relation_rows(cls, ngens: int, rows: Sequence[Sequence[int]],
                           invariants: Optional[Tuple[int, Tuple[int, ...]]] = None
                           ) -> "AbelianPresentation":
        """Presentation with the given relation rows; ``invariants``, when
        the caller already knows them, are taken as they are."""
        presentation = cls(ngens, IntMatrix.from_rows(rows, cols=ngens))
        presentation._invariants = invariants
        return presentation

    @classmethod
    def cyclic(cls, order: int) -> "AbelianPresentation":
        return cls(1, IntMatrix(1, 1, [[order]]))

    @classmethod
    def from_factors(cls, rank: int, factors: Sequence[int]) -> "AbelianPresentation":
        """``Z^rank`` plus one cyclic summand ``Z/d`` per factor, with the
        invariants read off the factors by :func:`cyclic_invariants`.  The
        relation row of ``Z/d`` is ``d`` on its generator, after the ``rank``
        free ones, written when ``relations`` is first read."""
        presentation = cls.__new__(cls)
        presentation.ngens = rank + len(factors)
        presentation._relations = None
        presentation._factors = tuple(factors)
        presentation._invariants = cyclic_invariants(rank, factors)
        presentation._canonical = None
        return presentation

    @classmethod
    def from_diagonal(cls, orders: Sequence[int]) -> "AbelianPresentation":
        """``Z/d`` on generator ``i`` for ``d = orders[i]``, ``Z`` for ``0``.

        The nonzero orders, in generator order, must form a divisor chain of
        entries ``>= 2``.  The generators are then the canonical coordinates,
        so invariants and coordinates are filled without a Smith normal form.
        """
        n = len(orders)
        torsion = [d for d in orders if d]
        if any(d < 2 for d in torsion) or any(
                b % a for a, b in zip(torsion, torsion[1:])):
            raise ValueError(f"orders {list(orders)} are not 0 or a divisor chain")
        rows = [[d if j == i else 0 for j in range(n)]
                for i, d in enumerate(orders) if d]
        presentation = cls.from_relation_rows(n, rows)
        presentation._canonical = Cokernel.diagonal(orders)
        presentation._invariants = (n - len(torsion), tuple(torsion))
        return presentation

    @property
    def relations(self) -> IntMatrix:
        """One relation per row; :meth:`from_factors` writes them here."""
        if self._relations is None:
            n = self.ngens
            rank = n - len(self._factors)
            rows = []
            for i, d in enumerate(self._factors):
                row = [0] * n
                row[rank + i] = d
                rows.append(row)
            self._relations = IntMatrix.from_rows(rows, cols=n)
        return self._relations

    # -- invariants ---------------------------------------------------

    def invariant_factors(self) -> Tuple[int, Tuple[int, ...]]:
        """Return ``(free_rank, torsion_factors)`` with each factor >= 2 and
        dividing the next.

        They are read off the nonzero elementary divisors of the relation
        rows, diagonalized as they stand
        (:func:`~gammalab.intmat.dense_elementary_divisors`): the rows and
        the columns of a matrix have the same divisors."""
        if self._invariants is None:
            relations = self.relations
            nonzero = [d for d in dense_elementary_divisors(
                relations.data, min(relations.rows, self.ngens)) if d]
            rank = self.ngens - len(nonzero)
            torsion = tuple(d for d in nonzero if d >= 2)
            self._invariants = (rank, torsion)
        return self._invariants

    @property
    def rank(self) -> int:
        return self.invariant_factors()[0]

    @property
    def torsion(self) -> Tuple[int, ...]:
        return self.invariant_factors()[1]

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_torsion_free(self) -> bool:
        return not self.torsion

    def torsion_order(self) -> int:
        order = 1
        for d in self.torsion:
            order *= d
        return order

    def has_explicit_relations(self) -> bool:
        return not self.relations.is_zero() if self.relations.rows else False

    def describe(self) -> str:
        rank, torsion = self.invariant_factors()
        return format_invariants(rank, torsion)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianPresentation):
            return NotImplemented
        return self.invariant_factors() == other.invariant_factors()

    def __hash__(self):
        return hash(self.invariant_factors())

    def __repr__(self) -> str:
        return (f"AbelianPresentation({self.ngens} gens, "
                f"{self.relations.rows} relations: {self.describe()})")

    # -- canonical coordinates ---------------------------------------

    def _canon(self) -> Cokernel:
        """The relation rows' :class:`~gammalab.intmat.Cokernel`, built on
        first use, whose invariants replace any the caller supplied."""
        if self._canonical is None:
            self._canonical = Cokernel(self.ngens, [
                {j: value for j, value in enumerate(row) if value}
                for row in self.relations.data])
            self._invariants = (self._canonical.rank, self._canonical.torsion)
        return self._canonical

    def to_canonical(self, x: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Express an element in canonical coordinates ``(free, torsion)``."""
        if len(x) != self.ngens:
            raise ValueError(f"element length {len(x)} does not match {self.ngens} generators")
        return self._canon().coordinates(dict(enumerate(x)))

    def from_canonical(self, free: Sequence[int], torsion: Sequence[int]) -> List[int]:
        """An element with the canonical coordinates ``(free, torsion)``;
        ``ValueError`` unless there is one of each."""
        return self._canon().lift(free, torsion)

    def element_is_zero(self, x: Sequence[int]) -> bool:
        """Whether ``x`` lies in the subgroup spanned by the relation rows."""
        free, torsion = self.to_canonical(x)
        return not any(free) and not any(torsion)

    def elements_equal(self, x: Sequence[int], y: Sequence[int]) -> bool:
        return self.element_is_zero([a - b for a, b in zip(x, y)])

    # -- torsion ------------------------------------------------------

    def torsion_part(self) -> Tuple["AbelianPresentation", "AbelianHom"]:
        """The torsion subgroup with its inclusion.

        Returns a diagonal presentation ``(Z/d_1 + ... + Z/d_k)`` and a hom
        into ``self`` sending the ``j``-th torsion generator to the element
        of ``self`` whose canonical coordinates are ``e_j``.
        """
        coker = self._canon()
        sub = AbelianPresentation.from_factors(0, coker.torsion)
        zeros = [0] * coker.rank
        units = IntMatrix.identity(len(coker.torsion)).data
        matrix = IntMatrix.from_columns([coker.lift(zeros, unit)
                                         for unit in units], rows=self.ngens)
        return sub, AbelianHom(sub, self, matrix)

    def enumerate_torsion(self) -> Iterator[Tuple[int, ...]]:
        """All canonical torsion coordinate tuples (free part held at zero)."""
        return itertools.product(*[range(d) for d in self._canon().torsion])

    # -- primitivity and functionals ---------------------------------

    def is_primitive_mod_torsion(self, x: Sequence[int]) -> bool:
        """True iff some homomorphism to Z sends ``x`` to 1 — equivalently the
        free canonical coordinates of ``x`` have gcd 1."""
        free, _ = self.to_canonical(x)
        return math.gcd(*free) == 1

    def functional_hitting_one(self, x: Sequence[int]) -> Optional[List[int]]:
        """Coefficient row of a hom to Z with value 1 on ``x``, or ``None``.

        The row ``f`` satisfies ``sum(f[i] * e[i]) = 1`` for ``e = x`` and
        kills every relation, so it defines an honest functional on the
        presented group.
        """
        free, _ = self.to_canonical(x)
        g, coeffs = bezout_combination(list(free))
        if g != 1:
            return None
        return self._canon().functional(coeffs)

    # -- combination --------------------------------------------------

    def direct_sum(self, other: "AbelianPresentation") -> "AbelianPresentation":
        left = self.relations
        right = other.relations
        top = left.hstack(IntMatrix(left.rows, other.ngens))
        bottom = IntMatrix(right.rows, self.ngens).hstack(right)
        return AbelianPresentation(self.ngens + other.ngens, top.vstack(bottom))


class AbelianHom:
    """A homomorphism between presented abelian groups.

    ``matrix`` has shape ``target.ngens x source.ngens`` and acts on column
    vectors of generator coefficients.  Construction checks well-definedness:
    every relation of the source must land in the relation lattice of the
    target.
    """

    def __init__(self, source: AbelianPresentation, target: AbelianPresentation,
                 matrix: IntMatrix, check: bool = True):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"hom matrix is {matrix.shape}, expected "
                f"({target.ngens}, {source.ngens})")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            for i in range(source.relations.rows):
                relation = source.relations.row(i)
                image = matrix.mat_vec(relation)
                if not target.element_is_zero(image):
                    raise IncompatibleInputError(
                        f"hom is not well defined: image of relation {i} "
                        f"is nonzero in the target")

    @classmethod
    def identity(cls, a: AbelianPresentation) -> "AbelianHom":
        return cls(a, a, IntMatrix.identity(a.ngens), check=False)

    def apply(self, x: Sequence[int]) -> List[int]:
        return self.matrix.mat_vec(list(x))

    def compose(self, other: "AbelianHom") -> "AbelianHom":
        """Return ``self ∘ other`` (apply ``other`` first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("homs are not composable")
        return AbelianHom(other.source, self.target,
                          self.matrix.mul(other.matrix), check=False)

    def equals(self, other: "AbelianHom") -> bool:
        """Equality as maps (columns may differ by target relations)."""
        if self.matrix.shape != other.matrix.shape:
            return False
        diff = self.matrix.sub(other.matrix)
        return all(self.target.element_is_zero(diff.column(j))
                   for j in range(diff.cols))

    def cokernel(self) -> AbelianPresentation:
        """The target modulo the image of this map."""
        rows = [self.target.relations.row(i)
                for i in range(self.target.relations.rows)]
        rows.extend(self.matrix.column(j) for j in range(self.matrix.cols))
        return AbelianPresentation.from_relation_rows(self.target.ngens, rows)

    def kernel(self) -> Tuple[AbelianPresentation, IntMatrix]:
        """The kernel as an abstract group plus a matrix of coset
        representatives (columns, in source generator coordinates)."""
        from .intmat import preimage_lattice, SNFSolver
        target_lattice = self.target.relations.transpose()
        preimage = preimage_lattice(self.matrix, target_lattice)
        if preimage.cols == 0:
            return AbelianPresentation.free(0), preimage
        solver = SNFSolver(preimage)
        rows = []
        source_lattice = self.source.relations
        for i in range(source_lattice.rows):
            coords = solver.solve(source_lattice.row(i))
            if coords is None:
                raise AssertionError("source relation escaped the preimage lattice")
            rows.append(coords)
        presentation = AbelianPresentation.from_relation_rows(preimage.cols, rows)
        return presentation, preimage


def tensor_product(a: AbelianPresentation, b: AbelianPresentation) -> AbelianPresentation:
    """Presentation of ``A (x) B`` over Z.

    Generators are ``g_i (x) h_j`` ordered with the first factor outermost;
    the relations are the relations of each factor tensored with the
    generators of the other.
    """
    n, m = a.ngens, b.ngens
    rows = []
    for i in range(a.relations.rows):
        relation = a.relations.row(i)
        for j in range(m):
            row = [0] * (n * m)
            for k in range(n):
                row[k * m + j] = relation[k]
            rows.append(row)
    for i in range(b.relations.rows):
        relation = b.relations.row(i)
        for k in range(n):
            row = [0] * (n * m)
            for j in range(m):
                row[k * m + j] = relation[j]
            rows.append(row)
    return AbelianPresentation.from_relation_rows(n * m, rows)
