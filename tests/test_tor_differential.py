"""Differential test: ``tor_one`` from a minimal cover against the full one.

``tor_one`` covers a module only by the underlying generators whose orbits
it needs.  The first derived functor does not depend on the free cover, so
the answer must match the cover by every underlying generator, which stays
in the package as ``_tor_one_over(module, w, range(n))``.  The modules are
direct sums of trivial, sign, norm-quotient and regular modules over every
bundled group, half of them written in a random unimodular basis, and none
flagged as free (a free flag makes ``tor_one`` return early).
"""

import random

from gammalab.builtins import standard_library
from gammalab.groups import all_characters
from gammalab.modules import (ZPiModule, _minimal_cover, _tor_one_over,
                              direct_sum_module, norm_quotient_module,
                              regular_module, sign_module, tor_one,
                              trivial_module)

from test_modules import in_random_basis

# The full cover of n generators over a group of order |G| has n|G| columns,
# and at 64 columns one reference run takes about 0.2 s, so a sum stops
# growing at min(MAX_GENS, COVER_COLUMNS // |G|) generators.  Over the
# groups of order eight that leaves sums of lines only.
MAX_GENS = 10
COVER_COLUMNS = 40
CASES_PER_PAIR = 10


def bundled_pairs():
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            yield name, group, w


def random_sum(rng, group):
    """A direct sum of one to a few cyclic modules, and its summand count."""
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
    pieces = 1
    while rng.random() < 0.6:
        piece = rng.choice(makers)()
        if module.underlying.ngens + piece.underlying.ngens > cap:
            break
        module = direct_sum_module(module, piece)
        pieces += 1
    return module, pieces


def test_minimal_cover_matches_full_cover():
    rng = random.Random(1978)
    checked = 0
    for name, group, w in bundled_pairs():
        for case in range(CASES_PER_PAIR):
            module, pieces = random_sum(rng, group)
            if case % 2:
                module = in_random_basis(rng, module)
            else:
                module = ZPiModule(group, module.underlying, module.action,
                                   check=False)
                # In the standard basis the first generator of each summand
                # generates it.
                assert len(_minimal_cover(module)) <= pieces, name
            n = module.underlying.ngens
            minimal = tor_one(module, w)
            full = _tor_one_over(module, w, range(n))
            assert minimal.invariant_factors() == full.invariant_factors(), \
                (name, w.values, case)
            checked += 1
    assert checked >= 200


def test_norm_quotient_is_covered_by_one_generator():
    """The norm quotient is cyclic; over the trivial group it is zero and
    needs no generator at all."""
    for name, group, w in bundled_pairs():
        expected = [] if group.order == 1 else [0]
        assert _minimal_cover(norm_quotient_module(group, w)) == expected, name
