"""Tor₁ against two oracles that do not read its route.

* Shapiro's lemma (Brown, *Cohomology of Groups*, III.6): the permutation
  module ``Z[G/H]`` on the left cosets of a subgroup ``H`` is induced from
  the trivial line, so ``Z[G/H] ⊗ Z^w`` is induced from ``Z^{w|H}`` and
  ``Tor₁(Z[G/H], w) = H_1(G; Z[G/H] ⊗ Z^w) = H_1(H; Z^{w|H})``, checked for
  every subgroup generated by at most two elements.
* Universal coefficients: ``Z/m ⊗ Z^w`` is ``Z^w ⊗ Z/m``, so
  ``Tor₁(Z/m, w) = H_1(G; Z^w) ⊗ Z/m ⊕ Tor(H_0(G; Z^w), Z/m)``, read off
  the invariant factors: ``Z/d ⊗ Z/m = Tor(Z/d, Z/m) = Z/gcd(d, m)``,
  and ``Z`` contributes ``Z/m`` to the first and nothing to the second.

The right-hand sides are twisted integral homology of a group, which does
not go through modules.  Both run over every bundled group and character.
"""

from itertools import combinations_with_replacement
from math import gcd

from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.groups import all_characters, subgroup_and_cosets
from gammalab.homology import group_homology
from gammalab.modules import ZPiModule, tor_one


def two_generated_subgroups(group):
    """Each subgroup generated by at most two elements, once."""
    seen = set()
    for pair in combinations_with_replacement(range(group.order), 2):
        sub = subgroup_and_cosets(group, pair)
        if sub.elements not in seen:
            seen.add(sub.elements)
            yield sub


def coset_module(group, elements):
    """``Z[G/H]``: one basis vector per left coset ``xH``, and ``g``
    sending ``xH`` to ``gxH``."""
    index, coset_of, members = {}, [], []
    for x in range(group.order):
        coset = frozenset(group.table[x][u] for u in elements)
        if coset not in index:
            index[coset] = len(members)
            members.append(x)
        coset_of.append(index[coset])
    table = [([coset_of[group.table[g][x]] for x in members],
              [1] * len(members)) for g in range(group.order)]
    return ZPiModule(group, AbelianPresentation.free(len(members)),
                     table=table)


def test_tor_of_a_coset_module_is_subgroup_homology():
    checked = 0
    for name, group in sorted(standard_library().items()):
        subgroups = list(two_generated_subgroups(group))
        for w in all_characters(group):
            for sub in subgroups:
                module = coset_module(group, sub.elements)
                expected = group_homology(
                    sub.subgroup, w.restrict(sub.elements, sub.subgroup), 1,
                    provider="bar")
                assert tor_one(module, w) == expected, \
                    (name, w.values, sub.elements)
                checked += 1
    assert checked >= 100, checked


def test_tor_of_a_trivial_cyclic_module_by_universal_coefficients():
    checked = 0
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            h1 = group_homology(group, w, 1)
            h0 = group_homology(group, w, 0)
            for m in (2, 3, 4, 6):
                module = ZPiModule(
                    group, AbelianPresentation.from_relation_rows(1, [[m]]),
                    table=[([0], [1])] * group.order)
                rank, torsion = h1.invariant_factors()
                assert rank == 0, name
                factors = [gcd(d, m) for d in torsion]
                factors += [gcd(d, m) for d in h0.invariant_factors()[1]]
                expected = AbelianPresentation.from_factors(0, factors)
                assert tor_one(module, w) == expected, (name, w.values, m)
                checked += 1
    assert checked >= 80, checked
