"""Finite groups by multiplication table, orientation characters, and the
integral group ring with its twisted involution.

Elements are integers ``0 .. order-1`` with the identity at index 0.  A
multiplication table ``table[a][b]`` gives the product ``a * b``.  An
orientation character assigns each element a sign, multiplicatively; it twists
the group-ring involution ``sum c_g g  |->  sum c_g w(g) g^-1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DEFAULT_BUDGET, GroupValidationError,
                     IncompatibleInputError, charge)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Facts that depend on the group alone are found once and kept on it:
    its generating sets; in ``bar_skeletons`` one tuple walk of the bar
    differential per degree and kept ends, keyed ``(k, ends)``, which
    :func:`~gammalab.resolutions.bar_skeleton` fills on first use for
    every character and coefficient module; and in ``symmetric_gathers``,
    keyed by rank, where a form's symmetric matrix reads its entries,
    which :func:`~gammalab.classify._symmetric_value` fills for every
    character; in ``automorphism_lists``, under ``None`` and under each
    character's values, the automorphisms and those preserving the
    character; and in ``outer_generators``, under a character's values,
    their generators modulo inner ones.  They live as long as the group,
    and a group built again from the same table starts empty."""

    def __init__(self, table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        if labels is None:
            labels = [f"g{i}" for i in range(self.order)]
            if self.order:
                labels[0] = "e"
        if len(labels) != self.order:
            raise GroupValidationError(
                f"{len(labels)} labels for a group of order {self.order}")
        self.labels = tuple(str(l) for l in labels)
        self._generators: Optional[Tuple[int, ...]] = None
        self._bar_generators: Optional[Tuple[int, ...]] = None
        self._is_cyclic: Optional[bool] = None
        self.bar_skeletons: Dict[Tuple[int, Optional[Tuple[int, ...]]],
                                 list] = {}
        self.symmetric_gathers: Dict[int, Tuple[list, list]] = {}
        self.automorphism_lists: Dict[Optional[Tuple[int, ...]], list] = {}
        self.outer_generators: Dict[Tuple[int, ...], list] = {}
        self._validate()
        self.inverse = tuple(self._find_inverse(a) for a in range(self.order))

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise GroupValidationError("empty multiplication table")
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise GroupValidationError(
                    f"row {a} has length {len(row)}, expected {n}")
            for b, value in enumerate(row):
                if not (0 <= value < n):
                    raise GroupValidationError(
                        f"table[{a}][{b}] = {value} is outside 0..{n - 1}")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise GroupValidationError(
                    f"element 0 is not an identity: 0*{a} = {self.table[0][a]}, "
                    f"{a}*0 = {self.table[a][0]}")
        for a in range(n):
            if all(self.table[a][b] != 0 for b in range(n)):
                raise GroupValidationError(f"element {a} not invertible")
        # Light's test: the middle elements b that associate with every a
        # and c are closed under products, so the generators suffice.
        for b in self.generating_set():
            for a in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupValidationError(
                            f"associativity fails at ({a}, {b}, {c}): "
                            f"({a}*{b})*{c} = {self.table[ab][c]} but "
                            f"{a}*({b}*{c}) = {self.table[a][self.table[b][c]]}")

    def _find_inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == 0 and self.table[b][a] == 0:
                return b
        raise GroupValidationError(f"element {a} not invertible")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        result = 0
        for _ in range(k):
            result = self.table[result][a]
        return result

    def element_order(self, a: int) -> int:
        order = 1
        x = a
        while x != 0:
            x = self.table[x][a]
            order += 1
        return order

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def is_cyclic(self) -> bool:
        """Whether some element has the group's order, found once per
        group."""
        if self._is_cyclic is None:
            self._is_cyclic = any(self.element_order(a) == self.order
                                  for a in range(self.order))
        return self._is_cyclic

    def center(self) -> List[int]:
        return [a for a in range(self.order)
                if all(self.table[a][b] == self.table[b][a] for b in range(self.order))]

    def involutions(self) -> List[int]:
        return [a for a in range(1, self.order) if self.table[a][a] == 0]

    def generating_set(self) -> List[int]:
        """A small deterministic generating set (greedy closure), found once
        per group; each call returns a fresh list."""
        if self._generators is None:
            self._generators = tuple(self._greedy_generators(
                range(1, self.order)))
        return list(self._generators)

    def bar_generators(self) -> List[int]:
        """An irredundant generating set ``T``, ascending, found once per
        group; each call returns a fresh list.  The greedy closure takes
        the involutions first, then the other elements, and each member
        the others generate is dropped.  Bar homology reads the columns
        ending in ``T``, and an involution in ``T`` halves its share of
        them (see :func:`~gammalab.resolutions.twisted_chain_columns`)."""
        if self._bar_generators is None:
            gens = self._greedy_generators(self.involutions() + [
                a for a in range(1, self.order) if self.table[a][a]])
            for g in list(gens):
                rest = [h for h in gens if h != g]
                if len(self._closure(rest)) == self.order:
                    gens = rest
            self._bar_generators = tuple(sorted(gens))
        return list(self._bar_generators)

    def _greedy_generators(self, candidates: Iterable[int]) -> List[int]:
        """Each candidate outside the closure of those taken before it,
        until they generate the group."""
        gens: List[int] = []
        closed = {0}
        for a in candidates:
            if len(closed) == self.order:
                break
            if a not in closed:
                gens.append(a)
                closed = self._closure(gens)
        return gens

    def _closure(self, gens: Sequence[int]) -> set:
        closed = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return closed

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def build_group(table: Sequence[Sequence[int]],
                labels: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Validate a multiplication table and return the group.

    Raises :class:`GroupValidationError` naming the first failing axiom and
    its witness elements.
    """
    return FiniteGroup(table, labels)


class OrientationChar:
    """A homomorphism from the group to ``{+1, -1}``.

    ``w(ab) = w(a)w(b)`` is checked for ``a`` in ``generating_set()`` only:
    the ``a`` for which it holds for every ``b`` are closed under products,
    and every element is a product of generators."""

    def __init__(self, group: FiniteGroup, values: Sequence[int]):
        self.group = group
        self.values = tuple(int(v) for v in values)
        if len(self.values) != group.order:
            raise IncompatibleInputError(
                f"character has {len(self.values)} values for a group of "
                f"order {group.order}")
        if any(v not in (1, -1) for v in self.values):
            bad = next(v for v in self.values if v not in (1, -1))
            raise IncompatibleInputError(f"character value {bad} is not +1 or -1")
        if self.values[0] != 1:
            raise IncompatibleInputError("character does not send the identity to +1")
        witness = _non_multiplicative_pair(group, self.values)
        if witness is not None:
            raise IncompatibleInputError(
                f"character is not multiplicative at {witness}")

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "OrientationChar":
        return cls(group, [1] * group.order)

    def __call__(self, a: int) -> int:
        return self.values[a]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def restrict(self, elements: Sequence[int], subgroup: FiniteGroup) -> "OrientationChar":
        return OrientationChar(subgroup, [self.values[g] for g in elements])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientationChar):
            return NotImplemented
        return self.group is other.group and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self) -> str:
        return f"OrientationChar({list(self.values)})"


def all_characters(group: FiniteGroup) -> List[OrientationChar]:
    """Every sign character, found from sign assignments on a generating set."""
    gens = group.generating_set()
    found = []
    seen = set()
    for signs in itertools.product((1, -1), repeat=len(gens)):
        values = _extend_character(group, gens, signs)
        if values is not None and values not in seen:
            seen.add(values)
            found.append(OrientationChar(group, values))
    found.sort(key=lambda w: w.values, reverse=True)  # trivial character first
    return found


# ``_SIGN_PRODUCT[a][b]`` is ``a * b`` for signs ``a`` and ``b``.
_SIGN_PRODUCT = {1: {1: 1, -1: -1}, -1: {1: -1, -1: 1}}


def _extend_character(group, gens, signs):
    """The character with ``w(g) = s`` on each generator ``g`` and its sign
    ``s``, or ``None`` when there is none (see :func:`_walk`)."""
    return _walk(group, gens, signs, 1, _SIGN_PRODUCT)


def _walk(group, gens, images, identity, product):
    """The homomorphism ``f`` with ``f(g) = image`` on each generator ``g``
    and its image, into a target with the given ``identity`` and product
    table (``product[a][b]`` is ``a·b``), or ``None`` when there is none.

    The walk sets ``f(1) = identity`` and ``f(x·g) = f(x)·image`` along
    every edge ``(x, g)`` from the identity and refuses a conflict.  In a
    finite group every element is a product of generators, so the walk
    reaches them all, and at its end ``f(x·g) = f(x)·f(g)`` holds for every
    ``x`` and generator ``g`` (``f(g) = f(1·g) = image``).  By induction on
    the length of ``b`` as a product of generators, ``f(x·b) = f(x)·f(b)``
    for every ``x`` and ``b``: that is multiplicativity, so no further
    check is made.
    """
    values = [None] * group.order
    values[0] = identity
    frontier = [0]
    while frontier:
        x = frontier.pop()
        row = product[values[x]]
        for g, img in zip(gens, images):
            y = group.table[x][g]
            v = row[img]
            if values[y] is None:
                values[y] = v
                frontier.append(y)
            elif values[y] != v:
                return None
    return tuple(values)


def _non_multiplicative_pair(group: FiniteGroup,
                             values: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first ``(a, b)``, ``a`` a generator, with ``w(ab) != w(a)w(b)``
    for signs with ``w(1) = 1``; ``None`` makes them a character."""
    for a in group.generating_set():
        wa = values[a]
        for b, ab in enumerate(group.table[a]):
            if values[ab] != wa * values[b]:
                return a, b
    return None


class GroupRingElement:
    """An element of the integral group ring, stored as a coefficient vector."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Sequence[int]):
        if len(coeffs) != group.order:
            raise IncompatibleInputError(
                f"coefficient vector of length {len(coeffs)} for a group of "
                f"order {group.order}")
        self.group = group
        self.coeffs = tuple(map(int, coeffs))

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupRingElement":
        return cls(group, [0] * group.order)

    @classmethod
    def one(cls, group: FiniteGroup) -> "GroupRingElement":
        coeffs = [0] * group.order
        coeffs[0] = 1
        return cls(group, coeffs)

    @classmethod
    def from_element(cls, group: FiniteGroup, g: int, coeff: int = 1) -> "GroupRingElement":
        coeffs = [0] * group.order
        coeffs[g] = coeff
        return cls(group, coeffs)

    def _check_same_ring(self, other: "GroupRingElement") -> None:
        if self.group is not other.group:
            raise IncompatibleInputError("group ring elements over different groups")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_same_ring(other)
        return GroupRingElement(self.group,
                                [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_same_ring(other)
        return GroupRingElement(self.group,
                                [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, [-a for a in self.coeffs])

    def scale(self, c: int) -> "GroupRingElement":
        return GroupRingElement(self.group, [c * a for a in self.coeffs])

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_same_ring(other)
        table = self.group.table
        out = [0] * self.group.order
        for a, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            row = table[a]
            for b, cb in enumerate(other.coeffs):
                if cb:
                    out[row[b]] += ca * cb
        return GroupRingElement(self.group, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def ev0(self) -> int:
        """The coefficient of the identity element."""
        return self.coeffs[0]

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def twisted_augmentation(self, w: OrientationChar) -> int:
        return sum(c * w(g) for g, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for g, c in enumerate(self.coeffs):
            if c == 0:
                continue
            label = self.group.labels[g]
            if g == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(label)
            elif c == -1:
                terms.append(f"-{label}")
            else:
                terms.append(f"{c}*{label}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out


def bar_involution(group: FiniteGroup, w: OrientationChar,
                   x: GroupRingElement) -> GroupRingElement:
    """The twisted involution ``sum c_g g |-> sum c_g w(g) g^-1``.

    It is additive, sends products to reversed products of images, and is an
    involution because ``w(g) = w(g^-1)``.
    """
    out = [0] * group.order
    for g, c in enumerate(x.coeffs):
        if c:
            out[group.inverse[g]] += c * w(g)
    return GroupRingElement(group, out)


def norm_element(group: FiniteGroup, w: OrientationChar) -> GroupRingElement:
    """The signed sum of all group elements; satisfies ``g * N = w(g) * N``."""
    return GroupRingElement(group, [w(g) for g in range(group.order)])


def central_involutions(group: FiniteGroup, w: OrientationChar) -> List[int]:
    """Central elements of order two with orientation sign +1, ascending."""
    center = set(group.center())
    return [a for a in group.involutions() if a in center and w(a) == 1]


@dataclass
class SubgroupData:
    """A subgroup with its coset decomposition.

    ``elements`` lists the subgroup inside the ambient group (ascending, so
    the identity is first); ``subgroup`` is the reindexed group on those
    elements; ``cosets`` partitions the ambient group into right cosets
    ``U g``, each listed ascending and ordered by its minimal representative,
    which is also the chosen representative.
    """

    ambient: FiniteGroup
    elements: Tuple[int, ...]
    subgroup: FiniteGroup
    cosets: Tuple[Tuple[int, ...], ...]
    representatives: Tuple[int, ...]

    @property
    def index(self) -> int:
        return len(self.cosets)

    def ambient_to_sub(self, g: int) -> int:
        return self.elements.index(g)


def subgroup_and_cosets(group: FiniteGroup, generators: Sequence[int]) -> SubgroupData:
    """Close a generating set to a subgroup and decompose into right cosets."""
    for g in generators:
        if not (0 <= g < group.order):
            raise IncompatibleInputError(
                f"generator {g} is outside the group of order {group.order}")
    elements = sorted(group._closure(list(generators)))
    position = {g: i for i, g in enumerate(elements)}
    table = [[position[group.table[a][b]] for b in elements] for a in elements]
    subgroup = FiniteGroup(table, [group.labels[g] for g in elements])
    element_set = set(elements)
    assigned = {}
    cosets = []
    for g in range(group.order):
        if g in assigned:
            continue
        coset = sorted(group.table[u][g] for u in element_set)
        for x in coset:
            assigned[x] = len(cosets)
        cosets.append(tuple(coset))
    cosets.sort(key=lambda c: c[0])
    representatives = tuple(c[0] for c in cosets)
    return SubgroupData(group, tuple(elements), subgroup, tuple(cosets), representatives)


def automorphisms(group: FiniteGroup,
                  budget: Optional[int] = DEFAULT_BUDGET) -> List[Tuple[int, ...]]:
    """All automorphisms, as permutation tuples ``alpha[g]``.

    Enumeration assigns images to a generating set only (candidates filtered
    by element order) and extends each tuple of images by one walk over the
    group.  That work, the number of tuples times the group order, is
    charged against ``budget`` on every call, before any tuple is tried or
    the list kept from an earlier call is read; ``None`` removes the bound.
    """
    gens = group.generating_set()
    orders = [group.element_order(g) for g in range(group.order)]
    candidates = [[h for h in range(group.order) if orders[h] == orders[g]]
                  for g in gens]
    tuples = math.prod(map(len, candidates))
    charge(tuples * group.order, budget, "automorphism enumeration",
           lambda: f"{tuples} image tuples times group order {group.order}")
    found = group.automorphism_lists.get(None)
    if found is None:
        found = []
        for images in itertools.product(*candidates):
            alpha = _extend_automorphism(group, gens, images)
            if alpha is not None:
                found.append(alpha)
        found.sort()
        group.automorphism_lists[None] = found
    return list(found)


def _extend_automorphism(group, gens, images):
    """The automorphism sending each generator to its image, or ``None``:
    :func:`_walk` into the group itself, so only bijectivity is left to
    check."""
    alpha = _walk(group, gens, images, 0, group.table)
    return alpha if alpha and len(set(alpha)) == group.order else None


def is_automorphism(group: FiniteGroup, alpha: Sequence[int]) -> bool:
    """Whether ``alpha`` permutes the elements and ``alpha(ab) =
    alpha(a) alpha(b)`` for every pair: ``n^2`` table lookups."""
    table = group.table
    return sorted(alpha) == list(range(group.order)) and all(
        alpha[ab] == table[alpha[a]][alpha[b]]
        for a, row in enumerate(table) for b, ab in enumerate(row))


def automorphisms_preserving(group: FiniteGroup, w: OrientationChar,
                             budget: Optional[int] = DEFAULT_BUDGET
                             ) -> List[Tuple[int, ...]]:
    """Automorphisms ``alpha`` with ``w(alpha(g)) = w(g)`` for every ``g``,
    charged as :func:`automorphisms` charges, and kept on the group per
    character."""
    everything = automorphisms(group, budget)
    kept = group.automorphism_lists.get(w.values)
    if kept is None:
        kept = group.automorphism_lists[w.values] = [
            alpha for alpha in everything
            if all(w(alpha[g]) == w(g) for g in range(group.order))]
    return list(kept)


def generators_modulo_inner(group: FiniteGroup,
                            auts: Sequence[Tuple[int, ...]]
                            ) -> List[Tuple[int, ...]]:
    """Each automorphism of ``auts``, in their order, that is not in the
    group generated by the inner automorphisms and those kept before it.
    If ``auts`` is a group of automorphisms holding the inner ones, such
    as the character-preserving ones, the kept ones and the inner ones
    generate it; the identity is never kept."""
    table, inverse = group.table, group.inverse
    elements = range(group.order)
    gens = {tuple(table[table[g][x]][inverse[g]] for x in elements)
            for g in elements}
    closed = _compose_closure(group.order, gens)
    kept = []
    for alpha in auts:
        if alpha not in closed:
            kept.append(alpha)
            gens.add(alpha)
            closed = _compose_closure(group.order, gens)
    return kept


def preserving_generators_modulo_inner(group: FiniteGroup,
                                       w: OrientationChar,
                                       auts: Sequence[Tuple[int, ...]]
                                       ) -> List[Tuple[int, ...]]:
    """:func:`generators_modulo_inner` of ``auts``, the automorphisms
    preserving ``w`` as :func:`automorphisms_preserving` lists them, kept on
    the group per character."""
    kept = group.outer_generators.get(w.values)
    if kept is None:
        kept = group.outer_generators[w.values] = generators_modulo_inner(
            group, auts)
    return kept


def _compose_closure(order: int, gens: Iterable[Tuple[int, ...]]) -> set:
    """The group of permutations of ``range(order)`` that ``gens``
    generates under composition."""
    closed = {tuple(range(order))}
    frontier = list(closed)
    while frontier:
        alpha = frontier.pop()
        for gen in gens:
            beta = tuple(gen[x] for x in alpha)
            if beta not in closed:
                closed.add(beta)
                frontier.append(beta)
    return closed
