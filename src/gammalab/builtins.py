"""Standard small groups, constructed by multiplication table.

Each constructor fixes a deterministic element order (identity first), so
indices, labels, and downstream output are stable across runs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .groups import FiniteGroup


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], ["e"])


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with element i standing for t^i."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"t^{i}" if i > 1 else "t" for i in range(1, n)]
    return FiniteGroup(table, labels)


def klein_four_group() -> FiniteGroup:
    """Z/2 x Z/2 with elements e, a, b, ab."""
    table = [[0, 1, 2, 3],
             [1, 0, 3, 2],
             [2, 3, 0, 1],
             [3, 2, 1, 0]]
    return FiniteGroup(table, ["e", "a", "b", "ab"])


def _table_from_words(elements: List[Tuple], compose) -> List[List[int]]:
    index = {el: i for i, el in enumerate(elements)}
    return [[index[compose(x, y)] for y in elements] for x in elements]


def symmetric_group_3() -> FiniteGroup:
    """S3 as permutations of {0,1,2}: e, r, r^2, then the three transpositions."""
    elements = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = _table_from_words(elements, compose)
    return FiniteGroup(table, ["e", "r", "r^2", "s", "rs", "r^2s"])


def dihedral_group_4() -> FiniteGroup:
    """D4 of order 8: rotations r^i then reflections r^i s, with s r s = r^-1."""
    # element = (i, j) meaning r^i s^j, 0 <= i < 4, j in {0, 1}
    elements = [(i, 0) for i in range(4)] + [(i, 1) for i in range(4)]

    def compose(x, y):
        i, j = x
        k, l = y
        # (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l)
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    table = _table_from_words(elements, compose)
    labels = ["e", "r", "r^2", "r^3", "s", "rs", "r^2s", "r^3s"]
    return FiniteGroup(table, labels)


def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k."""
    # Encode q = (sign, axis) with axis 0 for the scalar 1 and 1,2,3 for i,j,k.
    elements = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]

    def compose(x, y):
        s, a = x
        t, b = y
        if a == 0:
            return (s * t, b)
        if b == 0:
            return (s * t, a)
        if a == b:
            return (-s * t, 0)
        # i*j = k and cyclic; anticyclic picks up a sign
        cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        if (a, b) in cyclic:
            return (s * t, cyclic[(a, b)])
        return (-s * t, cyclic[(b, a)])

    table = _table_from_words(elements, compose)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs, first factor major."""
    n, m = g.order, h.order
    table = [[(g.table[a][c]) * m + h.table[b][d]
              for c in range(n) for d in range(m)]
             for a in range(n) for b in range(m)]
    labels = [f"({g.labels[a]},{h.labels[b]})" for a in range(n) for b in range(m)]
    return FiniteGroup(table, labels)


def standard_library() -> Dict[str, FiniteGroup]:
    """Name -> group for every built-in, under the names of the bundled
    group files.  The command line reads those files instead, through
    :func:`~gammalab.serialize.resolve_input`."""
    return {
        "trivial": trivial_group(),
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z4": cyclic_group(4),
        "z6": cyclic_group(6),
        "klein4": klein_four_group(),
        "s3": symmetric_group_3(),
        "d4": dihedral_group_4(),
        "q8": quaternion_group(),
    }
