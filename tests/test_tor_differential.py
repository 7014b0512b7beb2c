"""Differential test: ``tor_one`` against Tor₁ from the full free cover.

``tor_one`` reads Tor₁ off one total complex (see its docstring).  The
oracle here is the route it replaced, kept only in this file: cover the
module by ``F``, free on every underlying generator, take the kernel
lattice ``K`` with its inherited action, and present the kernel of ``K_G ->
F_G`` by the kernel-modulo-image route of ``homology_with_basis``.

The modules, over every bundled group and character:

* seeded direct sums of trivial, sign, norm-quotient and regular modules,
  half of them in a random unimodular basis, none flagged as free (a free
  flag makes ``tor_one`` return early);
* the trivial and sign lines modulo ``m``, the group ring modulo 2, and the
  group ring modulo ``3·N_w`` for the signed norm ``N_w``, each also in a
  random basis: modules with relations, and with torsion underneath.
"""

import random

from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.groups import all_characters
from gammalab.homology import homology_with_basis
from gammalab.intmat import IntMatrix, SNFSolver, preimage_lattice
from gammalab.modules import (ZPiModule, direct_sum_module, free_module,
                              norm_quotient_module, regular_module,
                              sign_module, tor_one, trivial_module,
                              twisted_coinvariants)

from test_modules import in_random_basis

# The full cover of n generators over a group of order |G| has n|G| columns,
# and at 64 columns one oracle run takes about 0.2 s, so a sum stops
# growing at min(MAX_GENS, COVER_COLUMNS // |G|) generators.  Over the
# groups of order eight that leaves sums of lines only.
MAX_GENS = 10
COVER_COLUMNS = 40
CASES_PER_PAIR = 10


def full_cover_tor_one(module, w):
    """Tor₁ from the cover by every underlying generator.

    The cover ``F`` maps onto the module with kernel lattice ``K``, which
    each generator ``s`` of the group maps into itself by some ``alpha_s``.
    Tor₁ is the homology at ``K`` of the three-term complex ``twists -> K
    -> F_G``: the columns ``alpha_s - w(s)·I``, stacked over the generating
    set, and the projection of ``K`` onto the coinvariants of ``F``.  The
    projection kills ``(s - w(s))·F``, so the two compose to zero, and the
    twists of a generating set span all of ``(g - w(g))·K``: the quotient
    is the kernel of ``K_G -> F_G``."""
    group, n = module.group, module.underlying.ngens
    cover = free_module(group, n)
    phi = IntMatrix.from_columns(
        [module.action[g].column(i) for i in range(n)
         for g in range(group.order)], rows=n)
    kernel = preimage_lattice(phi, module.underlying.relations.transpose())
    comparison = twisted_coinvariants(
        cover, w, budget=None).projection.matrix.mul(kernel)
    solver = SNFSolver(kernel)
    identity = IntMatrix.identity(kernel.cols)
    twists = IntMatrix(kernel.cols, 0)
    for s in group.generating_set():
        alpha = solver.solve_matrix(cover.action[s].mul(kernel))
        assert alpha is not None, "the action does not preserve K"
        twists = twists.hstack(alpha.sub(identity.scale(w(s))))
    return homology_with_basis(comparison, twists)[0]


def bundled_pairs():
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            yield name, group, w


def random_sum(rng, group):
    """A direct sum of one to a few cyclic modules."""
    cap = min(MAX_GENS, COVER_COLUMNS // group.order)
    characters = all_characters(group)
    makers = [
        lambda: trivial_module(group),
        lambda: sign_module(group, rng.choice(characters)),
        lambda: norm_quotient_module(group, rng.choice(characters)),
        lambda: regular_module(group),
    ]
    if group.order > cap:
        makers = makers[:2]
    module = rng.choice(makers)()
    while rng.random() < 0.6:
        piece = rng.choice(makers)()
        if module.underlying.ngens + piece.underlying.ngens > cap:
            break
        module = direct_sum_module(module, piece)
    return module


def line_mod(group, v, m):
    """``Z/m`` with each element acting by its sign under ``v``."""
    return ZPiModule(group, AbelianPresentation.from_relation_rows(1, [[m]]),
                     table=[([0], [v(g)]) for g in range(group.order)])


def group_ring_mod(group, rows):
    """The group ring, left translation, modulo the given relation rows."""
    return ZPiModule(group, AbelianPresentation.from_relation_rows(
        group.order, rows), table=[(list(row), [1] * group.order)
                                   for row in group.table])


def modules_with_relations(group, w):
    """``(label, module)``: trivial and sign lines modulo 2, 3 and 4,
    ``(Z/2)[G]``, and ``Z[G]/(3·N_w)``."""
    for v in all_characters(group):
        for m in (2, 3, 4):
            yield f"Z/{m} by {v.values}", line_mod(group, v, m)
    n = group.order
    yield "(Z/2)[G]", group_ring_mod(
        group, [[2 * (i == j) for j in range(n)] for i in range(n)])
    yield "Z[G]/(3 N_w)", group_ring_mod(
        group, [[3 * w(g) for g in range(n)]])


def test_tor_one_matches_the_full_cover_on_random_sums():
    rng = random.Random(1978)
    checked = 0
    for name, group, w in bundled_pairs():
        for case in range(CASES_PER_PAIR):
            module = random_sum(rng, group)
            if case % 2:
                module = in_random_basis(rng, module)
            else:
                module = ZPiModule(group, module.underlying, module.action,
                                   check=False)
            assert tor_one(module, w) == full_cover_tor_one(module, w), \
                (name, w.values, case)
            checked += 1
    assert checked >= 200


def test_tor_one_matches_the_full_cover_with_relations():
    """Modules with relations, as given and in a random basis."""
    rng = random.Random(2705)
    nonzero = 0
    for name, group, w in bundled_pairs():
        for label, module in modules_with_relations(group, w):
            for given in (module, in_random_basis(rng, module)):
                expected = full_cover_tor_one(given, w)
                assert tor_one(given, w, budget=None) == expected, \
                    (name, w.values, label)
                nonzero += expected.torsion_order() > 1
    assert nonzero >= 200, nonzero
