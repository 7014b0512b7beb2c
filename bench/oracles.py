"""Expected answers the benchmark checks every query against.

Each oracle is independent of the code path it checks: closed forms for the
quadratic functor and for cyclic group homology, the involution count read
straight off a multiplication table, and a table of non-cyclic homology
groups and orbit counts frozen from a run of the reference implementation.

Abelian groups are written as ``(rank, torsion)`` with ``torsion`` the
invariant factors, which is what ``AbelianPresentation.invariant_factors``
returns.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

Invariants = Tuple[int, Tuple[int, ...]]

CYCLIC_ORDERS = {"trivial": 1, "z2": 2, "z3": 3, "z4": 4, "z6": 6}

# Degree-indexed homology of the non-cyclic bundled groups, as
# (rank, torsion); only the degrees the homology workload queries.
Z = (1, ())
ZERO = (0, ())


def _c2(count: int) -> Invariants:
    return (0, (2,) * count)


FROZEN_HOMOLOGY: Dict[Tuple[str, str], List[Invariants]] = {
    ("klein4", "trivial"): [Z, _c2(2), _c2(1), _c2(3), _c2(2)],
    ("klein4", "w1"): [_c2(1), _c2(1), _c2(2), _c2(2), _c2(3)],
    ("klein4", "w2"): [_c2(1), _c2(1), _c2(2), _c2(2), _c2(3)],
    ("klein4", "w3"): [_c2(1), _c2(1), _c2(2), _c2(2), _c2(3)],
    ("s3", "trivial"): [Z, _c2(1), ZERO, (0, (6,))],
    ("s3", "w"): [_c2(1), (0, (3,)), _c2(1), ZERO],
    ("d4", "trivial"): [Z, _c2(2), _c2(1)],
    ("d4", "w1"): [_c2(1), (0, (4,)), _c2(2)],
    ("d4", "w2"): [_c2(1), _c2(1), _c2(2)],
    ("d4", "w3"): [_c2(1), _c2(1), _c2(2)],
    ("q8", "trivial"): [Z, _c2(2), ZERO],
    ("q8", "w1"): [_c2(1), _c2(1), _c2(1)],
    ("q8", "w2"): [_c2(1), _c2(1), _c2(1)],
    ("q8", "w3"): [_c2(1), _c2(1), _c2(1)],
}

# (group, character, degree) -> (orbit count, character-preserving
# automorphism count) of the torsion of H_degree up to sign.
FROZEN_ORBITS: Dict[Tuple[str, str, int], Tuple[int, int]] = {
    ("klein4", "trivial", 3): (4, 6),
    ("klein4", "w1", 3): (3, 2),
    ("klein4", "w2", 3): (3, 2),
    ("klein4", "w3", 3): (3, 2),
    ("z4", "trivial", 3): (3, 2),
    ("z4", "w", 3): (1, 2),
    ("z6", "trivial", 3): (4, 2),
    ("z6", "w", 3): (1, 2),
}


def cyclic_homology(order: int, twisted: bool, degree: int) -> Invariants:
    """H_degree of Z/order with integer coefficients, twisted by the sign
    character sending the generator to -1 when ``twisted``."""
    if twisted:
        return (0, (2,)) if degree % 2 == 0 else ZERO
    if degree == 0:
        return Z
    if degree % 2 == 1 and order > 1:
        return (0, (order,))
    return ZERO


def expected_homology(group: str, character: str, degree: int,
                      twisted: bool) -> Invariants:
    if group in CYCLIC_ORDERS:
        return cyclic_homology(CYCLIC_ORDERS[group], twisted, degree)
    return FROZEN_HOMOLOGY[(group, character)][degree]


def prime_powers(n: int) -> List[int]:
    """The prime-power factors of ``n`` (empty for 1)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def primary_decomposition(rank: int, cyclic_orders: Sequence[int]) -> Invariants:
    """Canonical form of ``Z^rank + sum Z/d``: the sorted prime powers."""
    parts = []
    for d in cyclic_orders:
        parts.extend(prime_powers(d))
    return (rank, tuple(sorted(parts)))


def gamma_closed_form(rank: int, orders: Sequence[int]) -> Invariants:
    """The quadratic functor on ``Z^rank + sum Z/d_i``, primary-decomposed.

    Gamma(Z) = Z, Gamma(Z/d) = Z/d for odd d and Z/2d for even d, and
    Gamma(A + B) = Gamma(A) + Gamma(B) + A (x) B, with Z (x) Z/d = Z/d and
    Z/a (x) Z/b = Z/gcd(a, b).
    """
    orders = [d for d in orders if d != 1]
    cyclic = [d if d % 2 else 2 * d for d in orders]
    cyclic += [d for d in orders for _ in range(rank)]
    cyclic += [gcd(a, b) for i, a in enumerate(orders) for b in orders[i + 1:]]
    return primary_decomposition(rank * (rank + 1) // 2, cyclic)


def check_gamma(rank: int, orders: Sequence[int],
                computed: Invariants) -> Optional[str]:
    """None when ``computed`` (invariant factors) is the functor value of
    ``Z^rank + sum Z/d``, otherwise a description of the mismatch."""
    expected = gamma_closed_form(rank, orders)
    got = primary_decomposition(computed[0], computed[1])
    if got != expected:
        return f"Gamma expected {expected}, computed {got}"
    return None


def involution_rank(table: Sequence[Sequence[int]],
                    character: Sequence[int]) -> int:
    """Non-identity elements squaring to the identity with sign -1, read
    straight off the multiplication table (identity is element 0)."""
    return sum(1 for g in range(1, len(table))
               if table[g][g] == 0 and character[g] == -1)


def check_census(doc: dict, order: int, rank: int, r: int) -> Optional[str]:
    """None when a structured census report for a free module of the given
    rank agrees with the involution formula and the norm-quotient facts."""
    expected_torsion = [2] * (r * rank)
    norm = doc.get("norm_quotient", {})
    problems = []
    if doc.get("schema") != "gammalab-report/1" or doc.get("command") != "census":
        problems.append("not a census report")
    if doc.get("count") != 2 ** (r * rank):
        problems.append(f"count {doc.get('count')} != 2^{r * rank}")
    if doc.get("involution_rank") != r:
        problems.append(f"involution rank {doc.get('involution_rank')} != {r}")
    if doc.get("free_rank") != rank:
        problems.append(f"free rank {doc.get('free_rank')} != {rank}")
    torsion = doc.get("torsion", {})
    if torsion.get("rank") != 0 or torsion.get("torsion") != expected_torsion:
        problems.append(f"torsion {torsion} != (Z/2)^{r * rank}")
    if doc.get("torsion_matches_involution_formula") is not True:
        problems.append("torsion does not match the involution formula")
    if norm.get("cyclic_of_group_order") is not True:
        problems.append("norm-quotient coinvariants not cyclic of group order")
    if norm.get("tor1_trivial") is not True:
        problems.append("norm-quotient first derived functor not trivial")
    expected_nq = [] if order == 1 else [order]
    if norm.get("coinvariants", {}).get("torsion") != expected_nq:
        problems.append(f"norm-quotient coinvariants {norm.get('coinvariants')}")
    return "; ".join(problems) or None
