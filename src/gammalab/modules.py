"""Finitely generated modules over an integral group ring.

A module is an abelian presentation plus one integer matrix per group
element, acting on generator columns.  Validation only needs the action of a
generating set against everything: the identity axiom plus those products
pin down every other matrix.

The main computations: sign-twisted coinvariants (the quotient by
``g.m - w(g).m``), the first derived functor of that quotient, restriction
to a subgroup, and the wrong-way transfer map on coinvariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .abelian import AbelianHom, AbelianPresentation
from .errors import IncompatibleInputError
from .groups import FiniteGroup, OrientationChar, SubgroupData
from .intmat import (IntMatrix, SNFSolver, elementary_divisors, kernel_basis,
                     preimage_lattice, sparse_columns)


class ZPiModule:
    """A module over the integral group ring of a finite group."""

    def __init__(self, group: FiniteGroup, underlying: AbelianPresentation,
                 action: Sequence[IntMatrix],
                 zpi_free_rank: Optional[int] = None, check: bool = True):
        self.group = group
        self.underlying = underlying
        self.action = list(action)
        self.zpi_free_rank = zpi_free_rank
        if len(self.action) != group.order:
            raise IncompatibleInputError(
                f"{len(self.action)} action matrices for a group of order "
                f"{group.order}")
        n = underlying.ngens
        for g, mat in enumerate(self.action):
            if mat.shape != (n, n):
                raise IncompatibleInputError(
                    f"action matrix for element {g} has shape {mat.shape}, "
                    f"expected ({n}, {n})")
        if check:
            self._validate()

    def _validate(self) -> None:
        n = self.underlying.ngens
        if self.action[0] != IntMatrix.identity(n):
            raise IncompatibleInputError(
                "action of the identity element is not the identity matrix")
        gens = self.group.generating_set()
        for s in gens:
            for r in range(self.underlying.relations.rows):
                image = self.action[s].mat_vec(self.underlying.relations.row(r))
                if not self.underlying.contains_in_relation_lattice(image):
                    raise IncompatibleInputError(
                        f"action of element {s} does not preserve relation {r}")
        for s in gens:
            for h in range(self.group.order):
                if self.action[s].mul(self.action[h]) != self.action[self.group.table[s][h]]:
                    raise IncompatibleInputError(
                        f"action is not multiplicative at ({s}, {h})")

    def action_matrix(self, g: int) -> IntMatrix:
        return self.action[g]

    def act(self, g: int, x: Sequence[int]) -> List[int]:
        return self.action[g].mat_vec(x)

    def act_ring(self, x, vec: Sequence[int]) -> List[int]:
        """Act by a group ring element (its coefficient vector)."""
        out = [0] * self.underlying.ngens
        for g, c in enumerate(x.coeffs):
            if c:
                img = self.action[g].mat_vec(vec)
                out = [a + c * b for a, b in zip(out, img)]
        return out

    def is_free(self) -> bool:
        return self.zpi_free_rank is not None

    def __repr__(self) -> str:
        return (f"ZPiModule(order={self.group.order}, "
                f"ngens={self.underlying.ngens})")


def free_module(group: FiniteGroup, rank: int) -> ZPiModule:
    """The free module of the given rank; underlying generator ``(i, g)``
    sits at index ``i * order + g`` and carries the left translation action."""
    n = group.order
    action = []
    for h in range(n):
        mat = IntMatrix.zeros(rank * n, rank * n)
        for i in range(rank):
            for g in range(n):
                mat.data[i * n + group.table[h][g]][i * n + g] = 1
        action.append(mat)
    return ZPiModule(group, AbelianPresentation.free(rank * n), action,
                     zpi_free_rank=rank, check=False)


def regular_module(group: FiniteGroup) -> ZPiModule:
    return free_module(group, 1)


def trivial_module(group: FiniteGroup, rank: int = 1) -> ZPiModule:
    action = [IntMatrix.identity(rank) for _ in range(group.order)]
    return ZPiModule(group, AbelianPresentation.free(rank), action, check=False)


def sign_module(group: FiniteGroup, w: OrientationChar, rank: int = 1) -> ZPiModule:
    """Free abelian of the given rank with each element acting by its sign."""
    action = [IntMatrix.identity(rank).scale(w(g)) for g in range(group.order)]
    return ZPiModule(group, AbelianPresentation.free(rank), action, check=False)


def norm_quotient_module(group: FiniteGroup, w: OrientationChar) -> ZPiModule:
    """The group ring modulo the left ideal of the signed norm element.

    The ideal is infinite cyclic (left multiplication only flips the norm's
    sign), so one relation row suffices.
    """
    n = group.order
    norm_row = [w(g) for g in range(n)]
    underlying = AbelianPresentation.from_relation_rows(n, [norm_row])
    action = []
    for h in range(n):
        mat = IntMatrix.zeros(n, n)
        for g in range(n):
            mat.data[group.table[h][g]][g] = 1
        action.append(mat)
    return ZPiModule(group, underlying, action, check=False)


def direct_sum_module(a: ZPiModule, b: ZPiModule) -> ZPiModule:
    if a.group is not b.group:
        raise IncompatibleInputError("direct sum of modules over different groups")
    underlying = a.underlying.direct_sum(b.underlying)
    na, nb = a.underlying.ngens, b.underlying.ngens
    action = []
    for g in range(a.group.order):
        mat = IntMatrix.zeros(na + nb, na + nb)
        for i in range(na):
            for j in range(na):
                mat.data[i][j] = a.action[g].data[i][j]
        for i in range(nb):
            for j in range(nb):
                mat.data[na + i][na + j] = b.action[g].data[i][j]
        action.append(mat)
    rank = None
    if a.zpi_free_rank is not None and b.zpi_free_rank is not None:
        rank = a.zpi_free_rank + b.zpi_free_rank
    return ZPiModule(a.group, underlying, action, zpi_free_rank=rank, check=False)


def module_from_action(group: FiniteGroup, underlying: AbelianPresentation,
                       action: Sequence[IntMatrix], check: bool = True) -> ZPiModule:
    module = ZPiModule(group, underlying, action, check=check)
    module.zpi_free_rank = detect_free_structure(module)
    return module


def detect_free_structure(module: ZPiModule) -> Optional[int]:
    """Recognize the standard free layout: generators in blocks of one group
    orbit each, acted on by left translation.  Returns the block count, or
    ``None`` for anything else (including free modules in a permuted basis).
    """
    if module.zpi_free_rank is not None:
        return module.zpi_free_rank
    if module.underlying.has_explicit_relations():
        return None
    order = module.group.order
    n = module.underlying.ngens
    if n % order != 0:
        return None
    rank = n // order
    reference = free_module(module.group, rank)
    for g in range(order):
        if module.action[g] != reference.action[g]:
            return None
    return rank


@dataclass
class CoinvariantsResult:
    """A presentation of the twisted coinvariants with the quotient data.

    ``projection`` maps the module's underlying group onto the presentation;
    ``section`` picks a generator representative per presentation generator
    (``projection . section`` is the identity on generators).
    """

    presentation: AbelianPresentation
    projection: AbelianHom
    section: IntMatrix


def twisted_coinvariants(module: ZPiModule, w: OrientationChar) -> CoinvariantsResult:
    """The quotient of the module by all ``g.m - w(g).m``.

    Twist relations are added for a generating set only; products and
    inverses of twists stay in the same lattice, so nothing is lost.  Free
    modules collapse to one copy of the integers per module generator, with
    the class of ``(i, g)`` equal to ``w(g)`` times the i-th unit.
    """
    _check_same_group(module, w)
    n = module.underlying.ngens
    if module.zpi_free_rank is not None:
        k = module.zpi_free_rank
        order = module.group.order
        proj = IntMatrix.zeros(k, n)
        for i in range(k):
            for g in range(order):
                proj.data[i][i * order + g] = w(g)
        section = IntMatrix.zeros(n, k)
        for i in range(k):
            section.data[i * order][i] = 1
        presentation = AbelianPresentation.free(k)
        projection = AbelianHom(module.underlying, presentation, proj, check=False)
        return CoinvariantsResult(presentation, projection, section)
    rows = [list(module.underlying.relations.row(r))
            for r in range(module.underlying.relations.rows)]
    for s in module.group.generating_set():
        mat = module.action[s]
        ws = w(s)
        for j in range(n):
            rows.append([mat.data[i][j] - (ws if i == j else 0) for i in range(n)])
    presentation = AbelianPresentation.from_relation_rows(n, rows)
    projection = AbelianHom(module.underlying, presentation,
                            IntMatrix.identity(n), check=False)
    return CoinvariantsResult(presentation, projection, IntMatrix.identity(n))


def _check_same_group(module: ZPiModule, w: OrientationChar) -> None:
    if module.group is not w.group:
        raise IncompatibleInputError(
            "orientation character and module belong to different groups")


def tor_one(module: ZPiModule, w: OrientationChar) -> AbelianPresentation:
    """First derived functor of twisted coinvariants.

    Resolve one step by a free cover sending ``(k, g)`` to ``g`` acting on
    the k-th generator it keeps, take the kernel lattice with its inherited
    action, and compare coinvariants of kernel and cover: the kernel of that
    comparison map is the answer, because the cover contributes nothing in
    degree one.  The answer does not depend on the cover, so the cover keeps
    only the generators :func:`_minimal_cover` picks.
    """
    _check_same_group(module, w)
    if module.zpi_free_rank is not None:
        return AbelianPresentation.free(0)
    return _tor_one_over(module, w, _minimal_cover(module))


def _minimal_cover(module: ZPiModule) -> List[int]:
    """Underlying generators whose orbits, with the relations, span ``Z^n``.

    Generator ``i`` is kept when ``e_i`` lies outside the lattice spanned so
    far.  That lattice is invariant, so ``e_i`` lies in it exactly when its
    whole orbit does, and adding the orbit can only enlarge it: the two
    lattices are equal when their ranks and their products of nonzero
    elementary divisors agree.
    """
    n = module.underlying.ngens
    columns = sparse_columns(module.underlying.relations.transpose())
    size = _lattice_size(n, columns)
    kept: List[int] = []
    for i in range(n):
        if size == (n, 1):
            break
        orbit = [{r: row[i] for r, row in enumerate(mat.data) if row[i]}
                 for mat in module.action]
        grown = _lattice_size(n, columns + orbit)
        if grown != size:
            kept.append(i)
            columns += orbit
            size = grown
    return kept


def _lattice_size(n: int, columns: List[Dict[int, int]]) -> Tuple[int, int]:
    """Rank and product of the nonzero elementary divisors of a lattice."""
    nonzero = [d for d in elementary_divisors(n, columns) if d]
    return len(nonzero), math.prod(nonzero)


def _tor_one_over(module: ZPiModule, w: OrientationChar,
                  generators: Sequence[int]) -> AbelianPresentation:
    """:func:`tor_one` from the cover by the given underlying generators,
    whose orbits with the relations must span the underlying group."""
    group = module.group
    order = group.order
    n = module.underlying.ngens
    cover = free_module(group, len(generators))
    cover_cols = []
    for i in generators:
        for g in range(order):
            cover_cols.append(module.action[g].column(i))
    phi = IntMatrix.from_columns(cover_cols, rows=n)
    target = module.underlying.relations.transpose()
    kernel_cols = preimage_lattice(phi, target)
    r = kernel_cols.cols
    if r == 0:
        return AbelianPresentation.free(0)
    solver = SNFSolver(kernel_cols)
    gens = group.generating_set()
    twists = []
    coinv_proj = twisted_coinvariants(cover, w).projection.matrix
    comparison = coinv_proj.mul(kernel_cols)
    basis = kernel_basis(comparison)
    c = basis.cols
    if c == 0:
        return AbelianPresentation.free(0)
    basis_solver = SNFSolver(basis)
    rows = []
    for s in gens:
        shifted = cover.action[s].mul(kernel_cols)
        alpha = solver.solve_matrix(shifted)
        if alpha is None:
            raise IncompatibleInputError(
                "kernel lattice is not preserved by the action; the module "
                "data is inconsistent")
        ws = w(s)
        twist_cols = []
        for j in range(r):
            col = [alpha.data[i][j] - (ws if i == j else 0) for i in range(r)]
            twist_cols.append(col)
        twists.append(IntMatrix.from_columns(twist_cols, rows=r))
    for mat in twists:
        solved = basis_solver.solve_matrix(mat)
        if solved is None:
            raise IncompatibleInputError(
                "twist relation left the comparison kernel; the module data "
                "is inconsistent")
        for j in range(solved.cols):
            rows.append(solved.column(j))
    return AbelianPresentation.from_relation_rows(c, rows)


def restrict_module(module: ZPiModule, sub: SubgroupData) -> ZPiModule:
    """The same underlying group acted on by a subgroup only."""
    if sub.ambient is not module.group:
        raise IncompatibleInputError("subgroup data belongs to a different group")
    action = [module.action[g] for g in sub.elements]
    return ZPiModule(sub.subgroup, module.underlying, action, check=False)


def induced_coinvariants_map(module: ZPiModule, w: OrientationChar,
                             sub: SubgroupData) -> AbelianHom:
    """The quotient-further map from subgroup coinvariants to full
    coinvariants, induced by the identity on the module."""
    _check_same_group(module, w)
    restricted = restrict_module(module, sub)
    w_sub = w.restrict(sub.elements, sub.subgroup)
    coinv_sub = twisted_coinvariants(restricted, w_sub)
    coinv_full = twisted_coinvariants(module, w)
    matrix = coinv_full.projection.matrix.mul(coinv_sub.section)
    return AbelianHom(coinv_sub.presentation, coinv_full.presentation, matrix)


def transfer_down(module: ZPiModule, w: OrientationChar,
                  sub: SubgroupData) -> AbelianHom:
    """The wrong-way map on coinvariants along a subgroup.

    A full-group class maps to the signed sum of its translates over right
    coset representatives, read in subgroup coinvariants.  Composing with the
    quotient-further map multiplies by the subgroup index.
    """
    _check_same_group(module, w)
    restricted = restrict_module(module, sub)
    w_sub = w.restrict(sub.elements, sub.subgroup)
    coinv_sub = twisted_coinvariants(restricted, w_sub)
    coinv_full = twisted_coinvariants(module, w)
    n = module.underlying.ngens
    total = IntMatrix.zeros(n, n)
    for g in sub.representatives:
        total = total.add(module.action[g].scale(w(g)))
    matrix = coinv_sub.projection.matrix.mul(total).mul(coinv_full.section)
    return AbelianHom(coinv_full.presentation, coinv_sub.presentation, matrix)
