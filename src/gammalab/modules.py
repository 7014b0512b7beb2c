"""Finitely generated modules over an integral group ring.

A module is an abelian presentation plus the action of each group element on
generator columns: one integer matrix each, or, for a signed-permutation
module, a table of where each basis vector goes and with which sign.
Validation only needs the action of a generating set against everything:
the identity axiom plus those products pin down every other element.

The main computations: sign-twisted coinvariants (the quotient by
``g.m - w(g).m``), the first derived functor of that quotient, restriction
to a subgroup, and the wrong-way transfer map on coinvariants.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import AbelianHom, AbelianPresentation
from .errors import BudgetExceededError, IncompatibleInputError
from .groups import FiniteGroup, OrientationChar, SubgroupData
from .intmat import IntMatrix, elementary_divisors, kernel_basis
from .resolutions import DEFAULT_BUDGET, twisted_chain_columns

# ``table[g] = (images, signs)``: element ``g`` sends basis vector ``i`` to
# ``signs[i]`` times basis vector ``images[i]``.
SignedTable = List[Tuple[List[int], List[int]]]

# ``images(x)`` lists, one ``(y, e)`` per group element in index order, that
# the element sends basis vector ``x`` to ``e`` times basis vector ``y``.
SignedImages = Callable[[int], List[Tuple[int, int]]]


class ZPiModule:
    """A module over the integral group ring of a finite group.

    The action comes as dense matrices, as a signed-permutation ``table``,
    or both.  A module with only a table builds its matrices on first use
    of :attr:`action`.
    """

    def __init__(self, group: FiniteGroup, underlying: AbelianPresentation,
                 action: Optional[Sequence[IntMatrix]] = None,
                 zpi_free_rank: Optional[int] = None, check: bool = True,
                 table: Optional[SignedTable] = None):
        self.group = group
        self.underlying = underlying
        self._action = None if action is None else list(action)
        self.table = table
        self.zpi_free_rank = zpi_free_rank
        self._valid = False
        # Γ's coinvariants per character, kept by classify.gamma_coinvariants.
        self._gamma_coinvariants: Dict[tuple, "CoinvariantsResult"] = {}
        given = self._action if table is None else table
        if len(given) != group.order:
            raise IncompatibleInputError(
                f"{len(given)} action matrices for a group of order "
                f"{group.order}")
        n = underlying.ngens
        for g, mat in enumerate(self._action or ()):
            if mat.shape != (n, n):
                raise IncompatibleInputError(
                    f"action matrix for element {g} has shape {mat.shape}, "
                    f"expected ({n}, {n})")
        if check:
            self._validate()

    def _validate(self) -> None:
        """Check the module axioms: the identity acts as the identity, each
        element of a generating set preserves the relations, and its action
        composes with every element's as the group table says.

        A module passes once: success is recorded on the instance, and a
        later call returns at once.  A module that fails raises every time
        it is checked."""
        if self._valid:
            return
        n = self.underlying.ngens
        if self.table is None:
            identity = self.action[0] == IntMatrix.identity(n)
        else:
            identity = tuple(self.table[0]) == (list(range(n)), [1] * n)
        if not identity:
            raise IncompatibleInputError(
                "action of the identity element is not the identity matrix")
        gens = self.group.generating_set()
        for s in gens:
            for r in range(self.underlying.relations.rows):
                image = self.act(s, self.underlying.relations.row(r))
                if not self.underlying.element_is_zero(image):
                    raise IncompatibleInputError(
                        f"action of element {s} does not preserve relation {r}")
        for s in gens:
            for h in range(self.group.order):
                sh = self.group.table[s][h]
                if self.table is None:
                    ok = self.action[s].mul(self.action[h]) == self.action[sh]
                else:
                    (si, ss), (hi, hs) = self.table[s], self.table[h]
                    ok = ([si[j] for j in hi], [ss[j] * e for j, e in zip(hi, hs)]
                          ) == tuple(self.table[sh])
                if not ok:
                    raise IncompatibleInputError(
                        f"action is not multiplicative at ({s}, {h})")
        self._valid = True

    @property
    def action(self) -> List[IntMatrix]:
        if self._action is None:
            n = self.underlying.ngens
            self._action = []
            for images, signs in self.table:
                mat = IntMatrix.zeros(n, n)
                for i, (j, e) in enumerate(zip(images, signs)):
                    mat.data[j][i] = e
                self._action.append(mat)
        return self._action

    def action_matrix(self, g: int) -> IntMatrix:
        return self.action[g]

    def act(self, g: int, x: Sequence[int]) -> List[int]:
        if self.table is None:
            return self.action[g].mat_vec(x)
        out = [0] * len(x)
        for j, e, c in zip(*self.table[g], x):
            out[j] += e * c
        return out

    def act_ring(self, x, vec: Sequence[int]) -> List[int]:
        """Act by a group ring element (its coefficient vector)."""
        out = [0] * self.underlying.ngens
        for g, c in enumerate(x.coeffs):
            if c:
                img = self.act(g, vec)
                out = [a + c * b for a, b in zip(out, img)]
        return out

    def __repr__(self) -> str:
        return (f"ZPiModule(order={self.group.order}, "
                f"ngens={self.underlying.ngens})")


def signed_permutation_table(action: Sequence[Sequence[Sequence[int]]]
                             ) -> Optional[SignedTable]:
    """The table of an action given as one list of rows per element (the
    ``data`` of a matrix, or rows read from a file) when every column has a
    single entry, ``1`` or ``-1``; ``None`` for any other action.  Each row
    is read once, stepping over its zeros."""
    table = []
    for rows in action:
        width = len(rows[0]) if rows else 0
        images, signs = [0] * width, [0] * width
        for i, row in enumerate(rows):
            for j in compress(range(width), row):
                if signs[j] or row[j] not in (1, -1):
                    return None
                images[j], signs[j] = i, row[j]
        if 0 in signs:
            return None
        table.append((images, signs))
    return table


def _free_table(group: FiniteGroup, rank: int) -> SignedTable:
    """The table of the standard free layout: underlying generator ``(i, g)``
    sits at index ``i * order + g`` and carries the left translation action."""
    n = group.order
    return [([i * n + hg for i in range(rank) for hg in row], [1] * (rank * n))
            for row in group.table]


def free_module(group: FiniteGroup, rank: int) -> ZPiModule:
    """The free module of the given rank, in the layout of :func:`_free_table`.

    Left translation by a group is an action, so the module is valid by
    construction and starts as checked."""
    module = ZPiModule(group, AbelianPresentation.free(rank * group.order),
                       zpi_free_rank=rank, check=False,
                       table=_free_table(group, rank))
    module._valid = True
    return module


def regular_module(group: FiniteGroup) -> ZPiModule:
    return free_module(group, 1)


def trivial_module(group: FiniteGroup, rank: int = 1) -> ZPiModule:
    return sign_module(group, OrientationChar.trivial(group), rank)


def sign_module(group: FiniteGroup, w: OrientationChar, rank: int = 1) -> ZPiModule:
    """Free abelian of the given rank with each element acting by its sign."""
    table = [(list(range(rank)), [w(g)] * rank) for g in range(group.order)]
    return ZPiModule(group, AbelianPresentation.free(rank), check=False,
                     table=table)


def norm_quotient_module(group: FiniteGroup, w: OrientationChar) -> ZPiModule:
    """The group ring modulo the left ideal of the signed norm element.

    The ideal is infinite cyclic (left multiplication only flips the norm's
    sign), so one relation row suffices.
    """
    norm_row = [w(g) for g in range(group.order)]
    underlying = AbelianPresentation.from_relation_rows(group.order, [norm_row])
    table = [(list(row), [1] * group.order) for row in group.table]
    return ZPiModule(group, underlying, check=False, table=table)


def direct_sum_module(a: ZPiModule, b: ZPiModule) -> ZPiModule:
    if a.group is not b.group:
        raise IncompatibleInputError("direct sum of modules over different groups")
    underlying = a.underlying.direct_sum(b.underlying)
    na, nb = a.underlying.ngens, b.underlying.ngens
    rank = None
    if a.zpi_free_rank is not None and b.zpi_free_rank is not None:
        rank = a.zpi_free_rank + b.zpi_free_rank
    if a.table is not None and b.table is not None:
        table = [(ia + [na + j for j in ib], sa + sb)
                 for (ia, sa), (ib, sb) in zip(a.table, b.table)]
        return ZPiModule(a.group, underlying, zpi_free_rank=rank, check=False,
                         table=table)
    action = [ma.hstack(IntMatrix(na, nb)).vstack(IntMatrix(nb, na).hstack(mb))
              for ma, mb in zip(a.action, b.action)]
    return ZPiModule(a.group, underlying, action, zpi_free_rank=rank, check=False)


def module_from_action(group: FiniteGroup, underlying: AbelianPresentation,
                       action: Sequence[IntMatrix], check: bool = True) -> ZPiModule:
    """A module from its action matrices, with the signed-permutation table
    when the matrices have one.  Without a table the action is not the
    standard free layout, so the free rank stays unknown."""
    table = signed_permutation_table([mat.data for mat in action])
    module = ZPiModule(group, underlying, action, check=check, table=table)
    if table is not None:
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
    table = module.table or signed_permutation_table(
        [mat.data for mat in module.action])
    return rank if table == _free_table(module.group, rank) else None


class CoinvariantsResult:
    """A presentation of the twisted coinvariants with the quotient data.

    Basis vector ``y`` of the module's underlying group ``source`` projects
    to ``sign[y]`` times generator ``orbit[y]`` of the presentation, and
    presentation generator ``j`` lifts to basis vector ``firsts[j]``.
    :meth:`project` and :meth:`pull_back` read those lists, in time linear
    in the rank of ``source``.  The dense ``projection`` (an
    :class:`~gammalab.abelian.AbelianHom` from ``source``) and ``section``
    (``projection . section`` is the identity on generators) are built from
    them on first read.
    """

    def __init__(self, source: AbelianPresentation,
                 presentation: AbelianPresentation, orbit: List[int],
                 sign: List[int], firsts: List[int]):
        self.source = source
        self.presentation = presentation
        self.orbit = orbit
        self.sign = sign
        self.firsts = firsts

    def project(self, x: Sequence[int]) -> List[int]:
        """The class of ``x``, a vector over the basis of ``source``."""
        if len(x) != len(self.orbit):
            raise ValueError(f"vector length {len(x)} does not match "
                             f"{len(self.orbit)} columns")
        out = [0] * self.presentation.ngens
        for y in compress(range(len(x)), x):
            out[self.orbit[y]] += self.sign[y] * x[y]
        return out

    def pull_back(self, f: Sequence[int]) -> List[int]:
        """The row over the basis of ``source`` of the functional ``f`` on
        the presentation's generators, composed with the projection."""
        if len(f) != self.presentation.ngens:
            raise ValueError(f"vector length {len(f)} does not match "
                             f"{self.presentation.ngens} rows")
        return [f[o] * e for o, e in zip(self.orbit, self.sign)]

    @cached_property
    def projection(self) -> AbelianHom:
        proj = IntMatrix.zeros(self.presentation.ngens, self.source.ngens)
        for y, (o, e) in enumerate(zip(self.orbit, self.sign)):
            proj.data[o][y] = e
        return AbelianHom(self.source, self.presentation, proj, check=False)

    @cached_property
    def section(self) -> IntMatrix:
        section = IntMatrix.zeros(self.source.ngens, len(self.firsts))
        for j, x in enumerate(self.firsts):
            section.data[x][j] = 1
        return section


def twisted_coinvariants(module: ZPiModule, w: OrientationChar,
                         budget: Optional[int] = DEFAULT_BUDGET) -> CoinvariantsResult:
    """The quotient of the module by all ``g.m - w(g).m``.

    A module without relations that carries a signed-permutation table is
    read off the orbits of its basis vectors, with no Smith normal form, by
    :func:`_coinvariants_by_orbits`.  Free modules give one copy of the
    integers per module generator, ``(i, g)`` going to ``w(g)`` times the
    i-th unit.

    Every other module takes the relation-row route: its relations plus the
    twist relations of a generating set (products and inverses of twists
    stay in the same lattice, so nothing is lost), with each basis vector
    its own generator, so that projection and section are the identity.

    ``budget`` bounds the work estimate of :func:`check_coinvariants_budget`
    before anything is built; ``None`` removes the bound.
    """
    _check_same_group(module, w)
    signed = (module.table is not None
              and not module.underlying.has_explicit_relations())
    check_coinvariants_budget(module.group, module.underlying.ngens,
                              module.underlying.relations.rows, signed, budget)
    if signed:
        table = module.table
        return _coinvariants_by_orbits(
            module.underlying, w,
            lambda x: [(images[x], signs[x]) for images, signs in table])
    n = module.underlying.ngens
    rows = [list(module.underlying.relations.row(r))
            for r in range(module.underlying.relations.rows)]
    for s in module.group.generating_set():
        mat = module.action[s]
        ws = w(s)
        for j in range(n):
            rows.append([mat.data[i][j] - (ws if i == j else 0) for i in range(n)])
    presentation = AbelianPresentation.from_relation_rows(n, rows)
    every = list(range(n))
    return CoinvariantsResult(module.underlying, presentation, every,
                              [1] * n, every)


def check_coinvariants_budget(group: FiniteGroup, ngens: int,
                              relation_rows: int, signed: bool,
                              budget: Optional[int]) -> None:
    """Refuse coinvariants whose work estimate exceeds ``budget``: basis
    size times group order on the orbit route (``signed``), relation rows
    times columns on the relation-row route."""
    if signed:
        cost = ngens * group.order
        sizes = f"{ngens} basis vectors times group order {group.order}"
    else:
        rows = relation_rows + len(group.generating_set()) * ngens
        cost = rows * ngens
        sizes = f"{rows} relation rows times {ngens} columns"
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"twisted coinvariants cost {cost} ({sizes}) exceeds budget "
            f"{budget}; raise the budget or use a smaller module")


def _coinvariants_by_orbits(source: AbelianPresentation, w: OrientationChar,
                            images: SignedImages) -> CoinvariantsResult:
    """Twisted coinvariants of a signed-permutation action on the free
    group ``source``, read off the orbits of its basis; ``images`` gives
    the signed images of one basis vector, and is asked once per orbit.

    Each orbit gives one generator, its first basis vector ``x``.  When
    some ``s`` fixes ``x`` with ``s.x = e.x`` and ``e != w(s)``, the twist
    relation ``(e - w(s)).x`` makes it ``Z/2``; otherwise it is ``Z``.  The
    basis vector ``y = e.g.x`` projects to ``e.w(g)`` times its generator.
    Readers of its dense projection and section bound them with
    :func:`check_projection_budget`.
    """
    n = source.ngens
    orbit = [-1] * n
    sign = [0] * n
    firsts: List[int] = []
    orders: List[int] = []
    for x in range(n):
        if orbit[x] >= 0:
            continue
        k = len(firsts)
        orbit[x], sign[x] = k, 1
        order = 0
        for (y, e), wg in zip(images(x), w.values):
            e *= wg
            if orbit[y] < 0:
                orbit[y], sign[y] = k, e
            elif y == x and e != 1:
                order = 2
        firsts.append(x)
        orders.append(order)
    return CoinvariantsResult(source, AbelianPresentation.from_diagonal(orders),
                              orbit, sign, firsts)


def check_projection_budget(result: CoinvariantsResult,
                            budget: Optional[int]) -> None:
    """Refuse coinvariants whose dense projection, ``k·n`` entries for
    ``k`` generators over ``n`` basis vectors, exceeds ``budget``."""
    k, n = len(result.firsts), len(result.orbit)
    if budget is not None and k * n > budget:
        raise BudgetExceededError(
            f"twisted coinvariants projection of {k} orbits by {n} basis "
            f"vectors ({k * n} entries) exceeds budget {budget}; raise the "
            "budget or use a smaller module")


def _check_same_group(module: ZPiModule, w: OrientationChar) -> None:
    if module.group is not w.group:
        raise IncompatibleInputError(
            "orientation character and module belong to different groups")


def tor_one(module: ZPiModule, w: OrientationChar,
            budget: Optional[int] = DEFAULT_BUDGET) -> AbelianPresentation:
    """First derived functor of twisted coinvariants, ``H_1(G; M ⊗ Z^w)``.

    The module ``M = Z^n / R`` ends the exact sequence ``0 -> K -> P -> F
    -> M -> 0`` of modules free over the integers: ``F`` is ``Z^n`` with
    the action, ``P`` is free over the group ring on the relation rows
    ``r_j``, sending ``e_{j,h}`` to ``h·r_j``, and ``K`` is that map's
    kernel.  That complex has homology ``M`` in degree 0 only, and the
    bar resolution ``C`` is free, so Tor₁ is ``H_1`` of the total complex
    of ``C ⊗_G (K -> P -> F)^w``.  Its degree-0 term ``C_0 ⊗ F`` is free
    and ``|G|`` kills ``H_1``, so Tor₁ is the torsion of the cokernel of
    ``Tot_2 -> Tot_1``: one :func:`~gammalab.intmat.elementary_divisors`
    of the columns of ``d_2 ⊗ F`` that
    :func:`~gammalab.resolutions.twisted_chain_columns` keeps, of ``C_1 ⊗
    P``, and of a basis of ``K`` in ``C_0 ⊗ P``.  A module without
    relations has ``P = K = 0``.  The module is checked first (a module
    passes once); unchecked data that is not a module is refused there.

    ``budget`` bounds the estimate ``|G|·n·(|G|·n + relation rows)`` for
    ``n`` underlying generators; it is checked before any work, and
    ``None`` removes it.
    """
    _check_same_group(module, w)
    order, n = module.group.order, module.underlying.ngens
    cols, rows = order * n, module.underlying.relations.rows
    cost = cols * (cols + rows)
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"first derived functor cost {cost} ({cols} = group order "
            f"{order} times {n} generators, times {cols} plus {rows} "
            f"relation rows) exceeds budget {budget}; raise the budget or "
            "use a smaller module")
    if module.zpi_free_rank is not None:
        return AbelianPresentation.free(0)
    module._validate()
    group = module.group
    # Rows of Tot_1: C_1 ⊗ F at tuple·n + b, then C_0 ⊗ P at offset +
    # j·|G| + h.
    columns = twisted_chain_columns(group, w, 2, group.bar_generators(),
                                    module)
    offset = (order - 1) * n
    images = [module.act(h, r) for r in module.underlying.relations.data
              for h in range(order)]
    # C_1 ⊗ P: (g) ⊗ e_{j,h} goes to w(g)·e_{j,g⁻¹h} - e_{j,h} in C_0 ⊗ P
    # and to -(g) ⊗ h·r_j in C_1 ⊗ F, the map of P -> F taking the sign
    # (-1)^p of C_p in the total complex.
    for g in range(1, order):
        moved = group.table[group.inv(g)]
        for p, image in enumerate(images):
            j, h = divmod(p, order)
            column = {offset + p: -1, offset + j * order + moved[h]: w(g)}
            for b in compress(range(n), image):
                column[(g - 1) * n + b] = -image[b]
            columns.append(column)
    # C_0 ⊗ K: a basis of K, included in C_0 ⊗ P; without relations there
    # is none, and no logged Smith normal form runs.
    if images:
        kernel = kernel_basis(IntMatrix.from_columns(images, rows=n))
        columns += [{offset + p: c for p, c in enumerate(vector) if c}
                    for vector in kernel.columns()]
    divisors = elementary_divisors(offset + len(images), columns)
    return AbelianPresentation.from_factors(0, [d for d in divisors if d > 1])


def restrict_module(module: ZPiModule, sub: SubgroupData) -> ZPiModule:
    """The same underlying group acted on by a subgroup only."""
    if sub.ambient is not module.group:
        raise IncompatibleInputError("subgroup data belongs to a different group")
    if module.table is not None:
        return ZPiModule(sub.subgroup, module.underlying, check=False,
                         table=[module.table[g] for g in sub.elements])
    action = [module.action[g] for g in sub.elements]
    return ZPiModule(sub.subgroup, module.underlying, action, check=False)


def _coinvariants_pair(module: ZPiModule, w: OrientationChar,
                       sub: SubgroupData
                       ) -> Tuple[CoinvariantsResult, CoinvariantsResult]:
    """Coinvariants over the subgroup and over the group, each refused at
    the default budget before its dense projection and section are read."""
    _check_same_group(module, w)
    coinv_sub = twisted_coinvariants(restrict_module(module, sub),
                                     w.restrict(sub.elements, sub.subgroup))
    check_projection_budget(coinv_sub, DEFAULT_BUDGET)
    coinv_full = twisted_coinvariants(module, w)
    check_projection_budget(coinv_full, DEFAULT_BUDGET)
    return coinv_sub, coinv_full


def induced_coinvariants_map(module: ZPiModule, w: OrientationChar,
                             sub: SubgroupData) -> AbelianHom:
    """The quotient-further map from subgroup coinvariants to full
    coinvariants, induced by the identity on the module."""
    coinv_sub, coinv_full = _coinvariants_pair(module, w, sub)
    matrix = coinv_full.projection.matrix.mul(coinv_sub.section)
    return AbelianHom(coinv_sub.presentation, coinv_full.presentation, matrix)


def transfer_down(module: ZPiModule, w: OrientationChar,
                  sub: SubgroupData) -> AbelianHom:
    """The wrong-way map on coinvariants along a subgroup.

    A full-group class maps to the signed sum of its translates over right
    coset representatives, read in subgroup coinvariants.  Composing with the
    quotient-further map multiplies by the subgroup index.
    """
    coinv_sub, coinv_full = _coinvariants_pair(module, w, sub)
    n = module.underlying.ngens
    columns = []
    for x in coinv_full.section.columns():
        total = [0] * n
        for g in sub.representatives:
            total = [t + w(g) * v for t, v in zip(total, module.act(g, x))]
        columns.append(coinv_sub.projection.apply(total))
    matrix = IntMatrix.from_columns(columns, rows=coinv_sub.presentation.ngens)
    return AbelianHom(coinv_full.presentation, coinv_sub.presentation, matrix)
