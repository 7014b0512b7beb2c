"""Hermitian forms over group rings and the counting invariants they feed.

The pipeline: a hermitian form on a free module over the group ring is
evaluated at the identity coefficient to produce a symmetric integer matrix
on the underlying basis; that matrix names an element of the quadratic
functor value; the class of that element in twisted coinvariants — together
with the torsion subgroup of those coinvariants — carries every count and
diagnostic this module reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .abelian import AbelianPresentation
from .errors import (IncompatibleInputError, SingularFormError,
                     UnsupportedInputError)
from .gamma import gamma_rank, induced_matrix, pair_images, quadratic_module
from .groups import (FiniteGroup, GroupRingElement, OrientationChar,
                     bar_involution, central_involutions)
from .homology import group_homology
from .intmat import IntMatrix, det
from .modules import (CoinvariantsResult, ZPiModule, _check_same_group,
                      _coinvariants_by_orbits, check_coinvariants_budget,
                      free_module, twisted_coinvariants)
from .resolutions import DEFAULT_BUDGET, Resolution

__all__ = [
    "HermitianForm",
    "QuadraticTwoType",
    "check_hermitian",
    "stabilize",
    "underlying_symmetric_matrix",
    "lambda_to_gamma",
    "kappa_splitting",
    "KappaDiagnostics",
    "kappa_diagnostics",
    "obstruction_torsion",
    "involution_rank_formula",
    "TwoTypeHomologySplit",
    "h4_twotype_split",
    "CensusReport",
    "census",
    "module_census",
    "hermitian_closure",
    "random_unimodular_ring_matrix",
    "change_of_basis",
]


class HermitianForm:
    """A pairing on a free module over the group ring, given by its matrix.

    ``matrix[i][j]`` is the value on the ``i``-th and ``j``-th basis vectors;
    all other values follow by sesquilinearity (ring-linear in the first
    slot, twisted-involution-linear in the second).  The constructor does not
    require the hermitian symmetry law — use :func:`check_hermitian` — so
    that asymmetric matrices can be built and then rejected constructively.
    """

    def __init__(self, group: FiniteGroup, w: OrientationChar,
                 matrix: Sequence[Sequence[GroupRingElement]]):
        if w.group is not group:
            raise IncompatibleInputError(
                "orientation character belongs to a different group")
        self.group = group
        self.w = w
        self.matrix = [list(row) for row in matrix]
        self.rank = len(self.matrix)
        for row in self.matrix:
            if len(row) != self.rank:
                raise IncompatibleInputError(
                    f"form matrix has a row of length {len(row)}; expected a "
                    f"square {self.rank} x {self.rank} layout")
            for entry in row:
                if entry.group is not group:
                    raise IncompatibleInputError(
                        "form entry lives in a different group ring")

    @classmethod
    def from_coefficients(cls, group: FiniteGroup, w: OrientationChar,
                          rows: Sequence[Sequence[Sequence[int]]]) -> "HermitianForm":
        """Build from raw coefficient vectors (one per entry, length |G|)."""
        matrix = [[GroupRingElement(group, entry) for entry in row]
                  for row in rows]
        return cls(group, w, matrix)

    def entry(self, i: int, j: int) -> GroupRingElement:
        return self.matrix[i][j]

    def evaluate(self, alpha: Sequence[GroupRingElement],
                 beta: Sequence[GroupRingElement]) -> GroupRingElement:
        """Value on two module elements written in the basis: the sum of
        ``alpha_i * matrix[i][j] * bar(beta_j)``."""
        if len(alpha) != self.rank or len(beta) != self.rank:
            raise IncompatibleInputError(
                f"arguments must have {self.rank} ring coordinates")
        total = GroupRingElement.zero(self.group)
        for i, a in enumerate(alpha):
            if a.is_zero():
                continue
            for j, b in enumerate(beta):
                if b.is_zero():
                    continue
                total = total + a * self.matrix[i][j] * bar_involution(
                    self.group, self.w, b)
        return total

    def orthogonal_unit(self, sign: int) -> "HermitianForm":
        """The orthogonal extension by a rank-one diagonal entry ``sign``."""
        if sign not in (1, -1):
            raise IncompatibleInputError(f"diagonal extension sign must be "
                                         f"+1 or -1, not {sign}")
        zero = GroupRingElement.zero(self.group)
        rows = [row + [zero] for row in self.matrix]
        rows.append([zero] * self.rank
                    + [GroupRingElement.from_element(self.group, 0, sign)])
        return HermitianForm(self.group, self.w, rows)

    def __repr__(self) -> str:
        return f"HermitianForm(rank={self.rank}, |G|={self.group.order})"


def check_hermitian(form: HermitianForm) -> bool:
    """Whether ``entry(i, j) == bar(entry(j, i))`` for all ``i`` and ``j``.

    The involution sends the coefficient ``b[g]`` at ``g`` to ``w(g)·b[g]``
    at ``g^-1``, so the test compares coefficient tuples, ``a[g^-1] ==
    w(g)·b[g]`` for ``a = entry(i, j)`` and ``b = entry(j, i)``.  The
    involution squares to the identity, so the pairs with ``i <= j``
    decide it.  Only this exact, entrywise test reads the input.
    The law ``value(h1 a, h2 b) = h1 * value(a, b) * bar(h2)`` holds for
    every matrix over a validated group and character, so the test suite
    covers it instead.
    """
    inverse, signs, matrix = form.group.inverse, form.w.values, form.matrix
    for i in range(form.rank):
        for j in range(i, form.rank):
            a, b = matrix[i][j].coeffs, matrix[j][i].coeffs
            if list(map(a.__getitem__, inverse)) != list(map(mul, signs, b)):
                return False
    return True


def hermitian_closure(group: FiniteGroup, w: OrientationChar,
                      matrix: Sequence[Sequence[GroupRingElement]]) -> HermitianForm:
    """Symmetrize an arbitrary square matrix into a hermitian form by adding
    the involution of its transpose."""
    rank = len(matrix)
    rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            row.append(matrix[i][j]
                       + bar_involution(group, w, matrix[j][i]))
        rows.append(row)
    return HermitianForm(group, w, rows)


class QuadraticTwoType:
    """A group with orientation character, a free module over its group
    ring, and a pairing on that module; the k-invariant is carried only as a
    trivial flag and nontrivial ones are rejected."""

    def __init__(self, group: FiniteGroup, w: OrientationChar,
                 pi2: ZPiModule, form: HermitianForm,
                 k_invariant_trivial: bool = True):
        if w.group is not group:
            raise IncompatibleInputError(
                "orientation character belongs to a different group")
        if pi2.group is not group:
            raise IncompatibleInputError("module belongs to a different group")
        if form.group is not group:
            raise IncompatibleInputError("form belongs to a different group")
        if form.w != w:
            raise IncompatibleInputError(
                "form was built for a different orientation character")
        if not k_invariant_trivial:
            raise UnsupportedInputError(
                "only trivial k-invariants are supported")
        if pi2.zpi_free_rank is None:
            raise UnsupportedInputError(
                "the degree-two module must be free over the group ring")
        if form.rank != pi2.zpi_free_rank:
            raise IncompatibleInputError(
                f"form rank {form.rank} does not match the module's free "
                f"rank {pi2.zpi_free_rank}")
        self.group = group
        self.w = w
        self.pi2 = pi2
        self.form = form
        self.k_invariant_trivial = True

    @classmethod
    def from_form(cls, group: FiniteGroup, w: OrientationChar,
                  form: HermitianForm) -> "QuadraticTwoType":
        return cls(group, w, free_module(group, form.rank), form)

    def __repr__(self) -> str:
        return (f"QuadraticTwoType(|G|={self.group.order}, "
                f"rank={self.form.rank})")


def stabilize(q: QuadraticTwoType, sign: int) -> QuadraticTwoType:
    """Add a free rank-one summand to the module and extend the form
    orthogonally by a diagonal entry ``sign``; the old block is unchanged
    and the k-invariant stays trivial."""
    return QuadraticTwoType(q.group, q.w,
                            free_module(q.group, q.form.rank + 1),
                            q.form.orthogonal_unit(sign))


def underlying_symmetric_matrix(form: HermitianForm) -> IntMatrix:
    """The identity-coefficient matrix of the form over the underlying basis.

    Basis vector ``(i, g)`` sits at index ``i * |G| + g``; the entry at
    ``((i, g), (j, h))`` is the identity coefficient of
    ``g * matrix[i][j] * bar(h)``, which works out to ``w(h)`` times the
    coefficient of ``g^-1 h`` in ``matrix[i][j]``.  The result is symmetric
    exactly when the form is hermitian.
    """
    group, w = form.group, form.w
    order = group.order
    n = form.rank * order
    s = IntMatrix.zeros(n, n)
    for i in range(form.rank):
        for j in range(form.rank):
            coeffs = form.matrix[i][j].coeffs
            for g in range(order):
                ginv = group.inverse[g]
                row = s.data[i * order + g]
                for h in range(order):
                    row[j * order + h] = w(h) * coeffs[group.table[ginv][h]]
    return s


def lambda_to_gamma(form: HermitianForm) -> List[int]:
    """Coordinates, in the quadratic functor value on the underlying free
    group, of the unique element whose expansion matrix is the form's
    identity-coefficient matrix: diagonal entries land on squares and
    off-diagonal entries on mixed basis vectors."""
    if not check_hermitian(form):
        raise IncompatibleInputError(
            "the matrix is not hermitian for the twisted involution")
    return _symmetric_value(form)


def _symmetric_value(form: HermitianForm) -> List[int]:
    """``value_of_symmetric_matrix(underlying_symmetric_matrix(form))`` for
    a hermitian form, read straight off its entries: the diagonal, then the
    upper triangle row by row.  The entry at ``((i, g), (j, h))`` is
    ``w(h)`` times the coefficient of ``g^-1 h`` in ``matrix[i][j]``; the
    matrix is symmetric because the form is hermitian, so no check of that
    is repeated here.  Where each entry is read depends on the group and
    the rank alone, so it is kept on the group (see
    :func:`_symmetric_gather`)."""
    group, rank = form.group, form.rank
    kept = group.symmetric_gathers
    if rank not in kept:
        kept[rank] = _symmetric_gather(group, rank)
    positions, columns = kept[rank]
    flat = [c for row in form.matrix for entry in row for c in entry.coeffs]
    return list(map(mul, map(form.w.values.__getitem__, columns),
                    map(flat.__getitem__, positions)))


def _symmetric_gather(group: FiniteGroup,
                      rank: int) -> Tuple[List[int], List[int]]:
    """For each coordinate of :func:`_symmetric_value`, in its order, the
    position of the coefficient it reads in the form's entries laid end to
    end (entry ``(i, j)`` from ``(i·rank + j)·|G|``), and the column
    element ``h`` whose sign it takes."""
    order = group.order
    rows = [group.table[group.inverse[g]] for g in range(order)]
    # On the diagonal, g^-1 g is the identity, element 0.
    positions = [(i * rank + i) * order for i in range(rank)
                 for g in range(order)]
    columns = list(range(order)) * rank
    for i in range(rank):
        for g in range(order):
            row = rows[g]
            for j in range(i, rank):
                start = (i * rank + j) * order
                for h in range(g + 1 if j == i else 0, order):
                    positions.append(start + row[h])
                    columns.append(h)
    return positions, columns


def _check_form_module_pair(group: FiniteGroup, w: OrientationChar,
                            pi2: ZPiModule, form: HermitianForm) -> None:
    if w.group is not group:
        raise IncompatibleInputError(
            "orientation character belongs to a different group")
    if pi2.group is not group or form.group is not group:
        raise IncompatibleInputError(
            "module and form must live over the given group")
    if pi2.zpi_free_rank is None:
        raise UnsupportedInputError(
            "this diagnostic needs a module that is free over the group ring")
    if form.rank != pi2.zpi_free_rank:
        raise IncompatibleInputError(
            f"form rank {form.rank} does not match the module's free rank "
            f"{pi2.zpi_free_rank}")


def kappa_splitting(group: FiniteGroup, w: OrientationChar, pi2: ZPiModule,
                    form: HermitianForm) -> Optional[List[int]]:
    """A functional on the twisted coinvariants of the functor value sending
    the form's class to 1, or ``None`` when that class is not primitive
    modulo torsion (absence is a value, not an error)."""
    _check_form_module_pair(group, w, pi2, form)
    gamma_coords = lambda_to_gamma(form)
    coinv = gamma_coinvariants(pi2, w)
    cls = coinv.project(gamma_coords)
    return coinv.presentation.functional_hitting_one(cls)


def gamma_coinvariants(pi2: ZPiModule, w: OrientationChar,
                       budget: Optional[int] = DEFAULT_BUDGET) -> CoinvariantsResult:
    """Twisted coinvariants of the functor value of ``pi2``, refused before
    any work when their estimate exceeds ``budget``.

    For ``pi2`` with a signed-permutation table and no relations, the value
    is never built: its coinvariants are read off the orbits of its basis
    (squares, then pairs), each orbit walked with the signed images of
    :func:`~gammalab.gamma.pair_images`, ``|G|`` of them per orbit rather
    than ``|G|·n(n+1)/2`` for the value's whole table.  ``pi2`` is checked
    first, as :func:`~gammalab.gamma.quadratic_module` would check it.  Any
    other module goes through :func:`~gammalab.gamma.quadratic_module`,
    which refuses relations.  The budget applies as in
    :func:`~gammalab.modules.twisted_coinvariants` on the value.  The
    orbit-route answer is kept on ``pi2`` per character, and the budget
    check still runs on every call."""
    n = pi2.underlying.ngens
    signed = pi2.table is not None
    check_coinvariants_budget(pi2.group, gamma_rank(n), 0, signed, budget)
    if not signed or pi2.underlying.has_explicit_relations():
        return twisted_coinvariants(quadratic_module(pi2), w, budget)
    pi2._validate()
    _check_same_group(pi2, w)
    kept = pi2._gamma_coinvariants
    result = kept.get(w.values) or _coinvariants_by_orbits(
        AbelianPresentation.free(gamma_rank(n)), w, pair_images(pi2.table, n))
    kept[w.values] = result
    return result


@dataclass
class KappaDiagnostics:
    """The three numeric diagnostics of a form's class.

    ``kappa1`` is the group order, confirmed by letting the signed norm act
    on the class.  ``kappa2`` is the trace of the form measured against its
    own inverse — the rank of the underlying group when the form is
    unimodular.  ``kappa3`` is minus half the trace of a chosen central
    involution composed with that comparison map; it is ``None`` when no
    suitable involution exists, when the group is not a 2-group, or when the
    trace is odd (the odd trace is then reported instead of failing).
    """

    kappa1: int
    kappa2: int
    kappa3: Optional[int]
    kappa3_status: str
    involution: Optional[int] = None
    involution_trace: Optional[int] = None
    chi_consistent: Optional[bool] = None


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def kappa_diagnostics(group: FiniteGroup, w: OrientationChar,
                      pi2: ZPiModule, form: HermitianForm,
                      chi: Optional[int] = None) -> KappaDiagnostics:
    """Compute the three diagnostics for a hermitian form on a free module.

    Requires the identity-coefficient matrix to be invertible over the
    integers; a singular one leaves the comparison map undefined.  When an
    Euler characteristic is supplied, the identity
    ``kappa2 == |G| * chi - 2`` is cross-checked and reported.
    """
    _check_form_module_pair(group, w, pi2, form)
    gamma_coords = lambda_to_gamma(form)

    # The signed norm must scale the class by the group order; this is the
    # constructive content behind reporting kappa1 = |G|.
    if gamma_coords:
        total = [0] * len(gamma_coords)
        for g in range(group.order):
            image = induced_matrix(pi2.action_matrix(g)).mat_vec(gamma_coords)
            for pos, value in enumerate(image):
                total[pos] += w(g) * value
        expected = [group.order * value for value in gamma_coords]
        if total != expected:
            raise IncompatibleInputError(
                "the signed norm does not scale the form's class by the "
                "group order; the form is not equivariant")
    kappa1 = group.order

    s = underlying_symmetric_matrix(form)
    determinant = det(s)
    if determinant not in (1, -1):
        raise SingularFormError(
            f"identity-coefficient matrix has determinant {determinant}; "
            "the comparison map needs a unimodular form")
    # The comparison map, the form against its own inverse, is the identity.
    kappa2 = s.rows

    chi_consistent = None
    if chi is not None:
        chi_consistent = (kappa2 == group.order * chi - 2)

    kappa3: Optional[int] = None
    involution: Optional[int] = None
    involution_trace: Optional[int] = None
    if not _is_power_of_two(group.order):
        status = "undefined: the group is not a 2-group"
    else:
        candidates = central_involutions(group, w)
        if not candidates:
            status = "undefined: no central involution with sign +1"
        else:
            involution = candidates[0]
            involution_trace = pi2.action_matrix(involution).trace()
            if involution_trace % 2 != 0:
                status = f"undefined: trace {involution_trace} is odd"
            else:
                kappa3 = -involution_trace // 2
                status = "ok"
    return KappaDiagnostics(kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                            kappa3_status=status, involution=involution,
                            involution_trace=involution_trace,
                            chi_consistent=chi_consistent)


def obstruction_torsion(group: FiniteGroup, w: OrientationChar,
                        pi2: ZPiModule) -> AbelianPresentation:
    """Torsion subgroup of the twisted coinvariants of the functor value;
    its order counts polarized homotopy types with a fixed pairing."""
    if pi2.group is not group:
        raise IncompatibleInputError("module belongs to a different group")
    coinv = gamma_coinvariants(pi2, w).presentation
    return AbelianPresentation.from_factors(0, coinv.torsion)


def involution_rank_formula(group: FiniteGroup, w: OrientationChar) -> int:
    """The number of non-identity elements that square to the identity and
    carry orientation sign -1; the obstruction torsion of the rank-one free
    module is an elementary abelian 2-group of exactly this rank."""
    if w.group is not group:
        raise IncompatibleInputError(
            "orientation character belongs to a different group")
    return sum(1 for g in group.involutions() if w(g) == -1)


@dataclass
class TwoTypeHomologySplit:
    """Degree-four homology of the classifying object of a two-type with a
    free module, presented as the tracked direct sum of the twisted
    coinvariants of the functor value and the group homology summand."""

    total: AbelianPresentation
    coinvariants_part: AbelianPresentation
    homology_part: AbelianPresentation


def h4_twotype_split(group: FiniteGroup, w: OrientationChar, pi2: ZPiModule,
                     provider: str = "auto",
                     budget: Optional[int] = DEFAULT_BUDGET,
                     resolution: Optional[Resolution] = None) -> TwoTypeHomologySplit:
    """The split computation of degree-four homology for a free module:
    twisted coinvariants of the functor value plus degree-four group
    homology with twisted integer coefficients."""
    if pi2.group is not group:
        raise IncompatibleInputError("module belongs to a different group")
    if pi2.zpi_free_rank is None:
        raise UnsupportedInputError(
            "the split formula needs a free module (trivial k-invariant)")
    coinv = gamma_coinvariants(pi2, w).presentation
    h4 = group_homology(group, w, 4, provider=provider, budget=budget,
                        resolution=resolution)
    return TwoTypeHomologySplit(total=coinv.direct_sum(h4),
                                coinvariants_part=coinv,
                                homology_part=h4)


@dataclass
class CensusReport:
    """Counting data for a two-type with a fixed pairing.

    ``count`` is the order of the obstruction torsion group — the number of
    polarized homotopy types sharing the pairing.  ``lambda_class`` gives
    the form's element of the functor value in its basis, which names its
    class in the coinvariants (``None`` when no form was supplied), with its
    primitivity status and splitting functional, a row over the same basis
    that kills every twist relation.  The report also records whether the torsion
    matches the elementary-abelian prediction from the involution count and
    the two exactness facts about the norm quotient: its twisted
    coinvariants are cyclic of the group order and its first derived
    functor vanishes.
    """

    group_order: int
    free_rank: Optional[int]
    coinvariants: AbelianPresentation
    torsion: AbelianPresentation
    count: int
    involution_rank: int
    torsion_matches_involution_formula: Optional[bool]
    norm_quotient_coinvariants: AbelianPresentation
    norm_quotient_is_cyclic_of_group_order: bool
    norm_quotient_tor_trivial: bool
    lambda_class: Optional[List[int]] = None
    lambda_primitive: Optional[bool] = None
    kappa_functional: Optional[List[int]] = None
    form_matrix: Optional[List[List[GroupRingElement]]] = None


def census(q: QuadraticTwoType,
           budget: Optional[int] = DEFAULT_BUDGET) -> CensusReport:
    """Full counting report for a two-type: coinvariants and their torsion,
    the count, the form's class with primitivity and splitting data, the
    involution-count cross-check, and the norm-quotient exactness facts.
    ``budget`` bounds the coinvariants as in :func:`gamma_coinvariants`."""
    if not check_hermitian(q.form):
        raise IncompatibleInputError(
            "the form matrix is not hermitian for the twisted involution")
    return _report(q.group, q.w, q.pi2, budget, q.form)


def module_census(group: FiniteGroup, w: OrientationChar, pi2: ZPiModule,
                  budget: Optional[int] = DEFAULT_BUDGET) -> CensusReport:
    """Counting report for a module without a chosen pairing; form-dependent
    fields stay empty and the involution-count cross-check applies only when
    the module is free over the group ring."""
    if pi2.group is not group:
        raise IncompatibleInputError("module belongs to a different group")
    return _report(group, w, pi2, budget, None)


def _report(group: FiniteGroup, w: OrientationChar, pi2: ZPiModule,
            budget: Optional[int], form: Optional[HermitianForm]) -> CensusReport:
    coinv = gamma_coinvariants(pi2, w, budget)
    torsion = AbelianPresentation.from_factors(0, coinv.presentation.torsion)
    r = involution_rank_formula(group, w)
    k = pi2.zpi_free_rank
    matches = None
    if k is not None:
        matches = (torsion.invariant_factors() == (0, (2,) * (r * k)))
    # For N = sum w(g) g, g.N = w(g) N, so ZG.N is Z^w, with coinvariants Z,
    # and N maps to sum w(g)^2 = |G| in the coinvariants Z of ZG.  Then
    # 0 -> Z^w -> ZG -> ZG/ZG.N -> 0 gives coinvariants Z/|G| and, as
    # Tor_1(ZG) = 0 and |G| != 0, Tor_1 = 0.  verify-paper recomputes both.
    report = CensusReport(
        group_order=group.order,
        free_rank=k,
        coinvariants=coinv.presentation,
        torsion=torsion,
        count=torsion.torsion_order(),
        involution_rank=r,
        torsion_matches_involution_formula=matches,
        norm_quotient_coinvariants=AbelianPresentation.from_factors(
            0, [group.order] if group.order > 1 else []),
        norm_quotient_is_cyclic_of_group_order=True,
        norm_quotient_tor_trivial=True,
    )
    if form is not None:
        # lambda_to_gamma without its second hermitian check.
        gamma_coords = _symmetric_value(form)
        cls = coinv.project(gamma_coords)
        functional = coinv.presentation.functional_hitting_one(cls)
        # The functional exists exactly when the gcd of the free canonical
        # coordinates is 1, which is primitivity modulo torsion.
        report.lambda_primitive = functional is not None
        if functional is not None:
            functional = coinv.pull_back(functional)
        report.lambda_class = gamma_coords
        report.kappa_functional = functional
        report.form_matrix = [row[:] for row in form.matrix]
    return report


def random_unimodular_ring_matrix(group: FiniteGroup, rank: int,
                                  rng: random.Random,
                                  steps: int = 6) -> List[List[GroupRingElement]]:
    """A random invertible matrix over the group ring: a product of
    elementary additions of ring multiples and diagonal sign-times-element
    units, returned as an explicit matrix."""
    zero = GroupRingElement.zero(group)
    one = GroupRingElement.one(group)
    rows = [[one if i == j else zero for j in range(rank)]
            for i in range(rank)]
    for _ in range(steps):
        kind = rng.randrange(2) if rank > 1 else 1
        if kind == 0:
            i = rng.randrange(rank)
            j = rng.randrange(rank)
            while j == i:
                j = rng.randrange(rank)
            factor = GroupRingElement.from_element(
                group, rng.randrange(group.order), rng.choice((-1, 1)))
            # row_i += factor * row_j
            rows[i] = [rows[i][col] + factor * rows[j][col]
                       for col in range(rank)]
        else:
            i = rng.randrange(rank)
            unit = GroupRingElement.from_element(
                group, rng.randrange(group.order), rng.choice((-1, 1)))
            rows[i] = [unit * entry for entry in rows[i]]
    return rows


def change_of_basis(form: HermitianForm,
                    basis: Sequence[Sequence[GroupRingElement]]) -> HermitianForm:
    """The form in a new basis: entry ``(i, j)`` becomes the evaluation of
    the old form on the ``i``-th and ``j``-th new basis rows."""
    rank = form.rank
    if len(basis) != rank or any(len(row) != rank for row in basis):
        raise IncompatibleInputError(
            f"change of basis needs a {rank} x {rank} matrix over the ring")
    rows = []
    for i in range(rank):
        rows.append([form.evaluate(basis[i], basis[j]) for j in range(rank)])
    return HermitianForm(form.group, form.w, rows)
