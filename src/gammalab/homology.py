"""Group homology with sign-twisted integer coefficients, in degrees up
to four, plus the action of character-preserving automorphisms on it and
the resulting orbit decomposition.

Homology is read off a free resolution after collapsing each differential
through the sign character.  Only ``d_{k+1}`` is read: ``C_{k-1}`` is free,
so the torsion of ``H_k`` is the torsion of the cokernel of ``d_{k+1}``, and
``|G|`` kills ``H_k`` of a finite group once ``k >= 1`` (K. S. Brown,
*Cohomology of Groups*, Cor. III.10.2), so there ``H_k`` is all torsion;
``H_0`` is the cokernel of ``d_1`` itself.  On the bar resolution only
columns of ``d_{k+1}`` whose tuple ends in ``T = group.bar_generators()``
are read, at most ``|T|·(n-1)^k`` of them: ``d_{k+1} d_{k+2} (tau, x, h) =
0`` makes ``col(tau, x) = ±col(tau, x·h)`` modulo columns ending in ``h``,
and a walk ``x -> x·h_1 -> ... -> 1`` through ``T`` ends at ``col(tau, 1)
= 0``, so they span the same lattice.  An involution ``t`` in ``T`` adds
only ``(n-1)^{k-1}·n/2`` of its ``(n-1)^k`` for ``k >= 1``: of ``(..., y,
t)`` and ``(..., y·t, t)`` one is the other modulo kept columns (see
:func:`~gammalab.resolutions.twisted_chain_columns`), and ``T`` takes the
involutions first.  Automorphisms act on that cokernel, read off the same
columns in the canonical coordinates of :class:`~gammalab.intmat.Cokernel`.
Neither builds a kernel basis.  ``homology_with_basis``,
the kernel-modulo-image route, stays only as their independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import AbelianHom, AbelianPresentation
from .errors import (BudgetExceededError, IncompatibleInputError,
                     UnsupportedInputError)
from .groups import (FiniteGroup, OrientationChar, automorphisms_preserving,
                     is_automorphism, preserving_generators_modulo_inner)
from .intmat import (Cokernel, IntMatrix, SNFSolver, elementary_divisors,
                     kernel_basis, sparse_columns)
from .resolutions import (DEFAULT_BUDGET, Resolution, chain_resolution_ranks,
                          check_budget, periodic_generator,
                          twisted_chain_columns)

MAX_DEGREE = 4


def homology_with_basis(d_out: IntMatrix,
                        d_in: IntMatrix) -> Tuple[AbelianPresentation, IntMatrix]:
    """Present ``ker(d_out) / im(d_in)`` for a composable pair with
    ``d_out . d_in = 0``, with the kernel basis (columns) the presentation
    generators refer to.  Only tests call it, as the oracle of homology,
    orbits and Tor₁; it stays because ``bench/tracing.py`` wraps it."""
    if d_out.cols != d_in.rows:
        raise IncompatibleInputError(
            f"maps of shapes {d_out.shape} and {d_in.shape} do not compose")
    if not d_out.mul(d_in).is_zero():
        raise IncompatibleInputError(
            "maps do not compose to zero; not a chain complex")
    basis = kernel_basis(d_out)
    c = basis.cols
    if c == 0:
        if not d_in.is_zero():
            raise IncompatibleInputError(
                "incoming map is nonzero but the kernel is trivial")
        return AbelianPresentation.free(0), basis
    solved = SNFSolver(basis).solve_matrix(d_in)
    if solved is None:
        raise IncompatibleInputError(
            "image does not lie inside the kernel lattice")
    rows = [solved.column(j) for j in range(solved.cols)]
    return AbelianPresentation.from_relation_rows(c, rows), basis


def _provider_name(group: FiniteGroup, provider: str) -> str:
    if provider == "auto":
        return "cyclic" if group.is_cyclic() else "bar"
    if provider in ("cyclic", "bar"):
        return provider
    raise UnsupportedInputError(f"unknown resolution provider '{provider}'")


def _check_degree(k: int) -> None:
    if not (0 <= k <= MAX_DEGREE):
        raise UnsupportedInputError(
            f"homology degree {k} is outside the supported range "
            f"0..{MAX_DEGREE}")


# A twisted differential as ``(rows, columns)``: its row count and its
# columns as ``{row: value}`` maps, the arguments of ``elementary_divisors``.
SparseDifferential = Tuple[int, List[Dict[int, int]]]


def _twisted_differential(group: FiniteGroup, w: OrientationChar, k: int,
                          provider: str, budget: Optional[int],
                          resolution: Optional[Resolution]
                          ) -> SparseDifferential:
    """The twisted differential ``d_{k+1}``, the only one homology in
    degree ``k`` reads.

    Without a stored resolution the bar provider builds it straight from
    tuples, after the budget check the full chain resolution of length
    ``k + 1`` would make, and only the columns ending in
    ``group.bar_generators()`` that
    :func:`~gammalab.resolutions.twisted_chain_columns` keeps, for homology
    and orbits alike.  The cyclic provider's periodic resolution has one
    entry per degree, ``t - 1`` in odd degrees and the sum of the elements
    in even ones (:func:`~gammalab.resolutions.periodic_resolution`), so
    ``d_{k+1}`` collapses through the character to ``w(t) - 1`` for even
    ``k`` and ``sum w(g)`` for odd ``k``, with no resolution built.  A
    stored resolution is collapsed through the character and checked to
    compose to zero with ``d_k``."""
    _check_degree(k)
    if w.group is not group:
        raise IncompatibleInputError(
            "orientation character belongs to a different group")
    if resolution is None:
        if _provider_name(group, provider) == "bar":
            ranks = chain_resolution_ranks(group.order, k + 1)
            check_budget(group.order, ranks, budget)
            return ranks[k], twisted_chain_columns(
                group, w, k + 1, group.bar_generators())
        t = periodic_generator(group)
        return 1, [{0: w(t) - 1 if k % 2 == 0 else sum(w.values)}]
    if resolution.length < k + 1:
        raise UnsupportedInputError(
            f"resolution of length {resolution.length} cannot compute "
            f"degree {k}; length {k + 1} is needed")
    d_in = resolution.twisted_matrix(k + 1, w)
    if k and not resolution.twisted_matrix(k, w).mul(d_in).is_zero():
        raise IncompatibleInputError(
            "maps do not compose to zero; not a chain complex")
    return resolution.ranks[k], sparse_columns(d_in)


def group_homology(group: FiniteGroup, w: OrientationChar, k: int,
                   provider: str = "auto",
                   budget: Optional[int] = DEFAULT_BUDGET,
                   resolution: Optional[Resolution] = None) -> AbelianPresentation:
    """Homology of the group in degree ``k`` with coefficients in the
    integers twisted by the character.

    One cyclic summand per elementary divisor of ``d_{k+1}`` above 1; in
    degree 0 also ``Z^(n_0 - rank d_1)``, and no free part above it.  A
    ``resolution`` must resolve the integers, as ``parse_resolution``
    checks: the free part of a complex that does not would go unseen."""
    nrows, columns = _twisted_differential(group, w, k, provider, budget,
                                           resolution)
    divisors = elementary_divisors(nrows, columns)
    rank = nrows - sum(1 for d in divisors if d) if k == 0 else 0
    return AbelianPresentation.from_factors(
        rank, [d for d in divisors if d > 1])


def _chain_self_map(group: FiniteGroup, k: int, alpha: Sequence[int]) -> List[int]:
    """Degree-``k`` twisted chain map induced by an automorphism on the
    chain resolution, a relabeling of tuples: entry ``i`` is the index in
    :func:`~gammalab.resolutions.chain_tuples` of the image of tuple ``i``.
    Tuples are listed in mixed radix ``order - 1``, last entry fastest."""
    base = group.order - 1
    perm = [0]
    for _ in range(k):
        perm = [p * base + alpha[g] - 1 for p in perm
                for g in range(1, group.order)]
    return perm


def _periodic_self_map(group: FiniteGroup, w: OrientationChar, k: int,
                       alpha: Sequence[int]) -> int:
    """Twisted chain map on the periodic resolution for the automorphism
    sending the generator to its ``m``-th power, a scalar: in degree ``2i``
    multiply by ``m^i``, in degree ``2i + 1`` additionally by the signed
    count of a length-``m`` geometric sum."""
    t = periodic_generator(group)
    m = None
    for e in range(1, group.order + 1):
        if group.power(t, e) == alpha[t]:
            m = e
            break
    if m is None:
        raise IncompatibleInputError(
            "automorphism does not send the generator to one of its powers")
    scalar = m ** (k // 2)
    if k % 2 == 1:
        scalar *= sum(w(t) ** j for j in range(m))
    return scalar


def _check_descends(group: FiniteGroup, w: OrientationChar,
                    alpha: Sequence[int]) -> None:
    """Raise unless ``alpha`` is an automorphism with ``w∘alpha = w``.  The
    bar construction is natural (Brown, I.5): such an ``alpha`` sends each
    term of a tuple's boundary to the same term of its image's boundary, so
    the relabeling commutes with every twisted differential exactly."""
    if not (is_automorphism(group, alpha)
            and all(w(alpha[g]) == w(g) for g in range(group.order))):
        raise IncompatibleInputError(
            "chain map does not commute with the differential, so it "
            "does not descend to homology")


def _homology_action(group: FiniteGroup, w: OrientationChar, k: int,
                     provider: str, budget: Optional[int]
                     ) -> Tuple[AbelianPresentation, List[Tuple[int, ...]],
                                Callable[[Sequence[int]], List[List[int]]]]:
    """The homology :func:`induced_homology_maps` presents, the
    character-preserving automorphisms, and a function that pushes one of
    them to the columns of the endomorphism it induces.  ``budget`` is
    charged for the resolution, then for the enumeration."""
    coker = Cokernel(*_twisted_differential(group, w, k, provider, budget,
                                            None))
    auts = automorphisms_preserving(group, w, budget)
    free = coker.rank if k == 0 else 0
    pres = AbelianPresentation.from_diagonal([0] * free + list(coker.torsion))
    hidden = [0] * (coker.rank - free)
    lifts = [{i: c for i, c in enumerate(coker.lift(unit[:free] + hidden,
                                                      unit[free:])) if c}
             for unit in IntMatrix.identity(pres.ngens).data]
    periodic = _provider_name(group, provider) == "cyclic"

    def push(alpha: Sequence[int]) -> List[List[int]]:
        if periodic:
            scalar = _periodic_self_map(group, w, k, alpha)
            perm = range(coker.nrows)
        else:
            _check_descends(group, w, alpha)
            scalar = 1
            perm = _chain_self_map(group, k, alpha)
        columns = []
        for lift in lifts:
            f, t = coker.coordinates({perm[i]: scalar * c
                                      for i, c in lift.items()})
            columns.append(list(f[:free] + t))
        return columns

    return pres, auts, push


def induced_homology_maps(group: FiniteGroup, w: OrientationChar, k: int,
                          provider: str = "auto",
                          budget: Optional[int] = DEFAULT_BUDGET
                          ) -> Tuple[AbelianPresentation, List[AbelianHom]]:
    """The degree-``k`` homology together with the endomorphisms induced by
    every character-preserving automorphism of the group, one map per
    automorphism, in the order of
    :func:`~gammalab.groups.automorphisms_preserving`.

    For ``k >= 1``, ``H_k`` is the torsion of the cokernel of ``d_{k+1}``
    (see the module docstring), presented by its torsion invariants on
    canonical coordinates; ``H_0`` is the cokernel of ``d_1`` itself.  One
    :class:`~gammalab.intmat.Cokernel` of the columns :func:`group_homology`
    reads gives the invariants, a lift of each coordinate, and the
    coordinates of its image under each chain map (a relabeling of tuples,
    or a scalar on the periodic resolution).
    """
    pres, auts, push = _homology_action(group, w, k, provider, budget)
    return pres, [AbelianHom(pres, pres, IntMatrix.from_columns(
        push(alpha), rows=pres.ngens)) for alpha in auts]


@dataclass
class OrbitReport:
    """Orbit decomposition of the torsion of a homology group under sign
    and character-preserving automorphisms.

    Only the (always enumerable) torsion part is partitioned; a nonzero
    ``free_rank`` is reported so callers know sign still identifies ``x``
    with ``-x`` on the rest.
    """

    presentation: AbelianPresentation
    free_rank: int
    automorphism_count: int
    orbit_count: int
    orbits: List[Tuple[Tuple[int, ...], int]]


def homology_orbits(group: FiniteGroup, w: OrientationChar, k: int,
                    provider: str = "auto",
                    budget: Optional[int] = DEFAULT_BUDGET) -> OrbitReport:
    """Partition the torsion classes of the degree-``k`` twisted homology
    under negation and induced automorphism action, with orbit sizes and
    canonical-coordinate representatives.

    Conjugation by ``g`` acts on ``H_k(G; Z^w)`` as ``w(g) = ±1`` (Brown,
    *Cohomology of Groups*, II.6), and negation is already in the walk, so
    only the automorphisms :func:`~gammalab.groups.generators_modulo_inner`
    keeps are pushed, found once per group and character: with the inner
    ones they generate every character-preserving automorphism, and the
    orbits are the same.
    ``automorphism_count`` still counts all of them, and the enumeration
    cost charged against ``budget`` is the torsion order times ``1 + 2 x``
    that count.  A class is its torsion tuple, visited in
    ``enumerate_torsion`` order, so each orbit is met first at its least."""
    pres, auts, push = _homology_action(group, w, k, provider, budget)
    order = pres.torsion_order()
    cost = order * (1 + 2 * len(auts))
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"orbit enumeration cost {cost} exceeds budget {budget} (torsion "
            f"order {order} times 1 + 2 x {len(auts)} character-preserving "
            f"automorphisms); raise the budget")
    free, torsion = pres.rank, pres.torsion
    # The torsion rows of each pushed map's torsion columns.
    maps = [list(zip(*push(alpha)[free:]))[free:]
            for alpha in preserving_generators_modulo_inner(group, w, auts)]

    def images(x: Tuple[int, ...]):
        yield tuple(-c % d for c, d in zip(x, torsion))
        for rows in maps:
            yield tuple(sum(a * c for a, c in zip(row, x)) % d
                        for row, d in zip(rows, torsion))

    orbits = []
    seen = set()
    for key in pres.enumerate_torsion():
        if key in seen:
            continue
        seen.add(key)
        stack, size = [key], 0
        while stack:
            size += 1
            for y in images(stack.pop()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        orbits.append((key, size))
    return OrbitReport(pres, free, len(auts), len(orbits), orbits)
