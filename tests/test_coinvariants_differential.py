"""Differential test: twisted coinvariants by orbits against relation rows.

A relation-free module with a signed-permutation table takes the orbit
route of ``twisted_coinvariants``; the same module given by its dense
matrices alone takes the relation-row route, which stays in the package for
every other module.  Both must present the same group, with the same
elements zero, the same transfer maps, and, for the functor value, a table
whose matrices are the induced matrices of the action.  The modules: the
functor value of free modules, trivial, sign, free and regular modules and
their direct sums, and free or sign modules in a random signed basis, over
every bundled (group, character).
"""

import random

import pytest

from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.errors import IncompatibleInputError
from gammalab.gamma import gamma_rank, induced_matrix, quadratic_module
from gammalab.groups import all_characters, subgroup_and_cosets
from gammalab.intmat import IntMatrix
from gammalab.modules import (ZPiModule, direct_sum_module, free_module,
                              induced_coinvariants_map, module_from_action,
                              regular_module, restrict_module,
                              sign_module, transfer_down,
                              trivial_module, twisted_coinvariants)

# The relation-row route on the functor value of a free module of rank r
# over a group of order |G| reduces a matrix of about 2 gamma_rank(r|G|)
# rows; up to gamma rank 171 all characters of a group take under a second.
# Order-8 groups at rank 3 (gamma rank 300) take 4-6 s and are left out.
MAX_GAMMA_RANK = 171
CASES_PER_MODULE = 12


def bundled_pairs():
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            yield name, group, w


def dense(module):
    """The same module without its table: the relation-row route."""
    return ZPiModule(module.group, module.underlying, module.action,
                     zpi_free_rank=module.zpi_free_rank, check=False)


def in_signed_basis(rng, module):
    """The module in a random signed permutation of its basis, loaded from
    its matrices so that the table is detected."""
    n = module.underlying.ngens
    perm = list(range(n))
    rng.shuffle(perm)
    p = IntMatrix(n, n)
    for i, j in enumerate(perm):
        p.data[j][i] = rng.choice((-1, 1))
    action = [p.mul(mat).mul(p.transpose()) for mat in module.action]
    return module_from_action(module.group, AbelianPresentation.free(n), action)


def sample_modules(rng, group, max_gamma_rank=MAX_GAMMA_RANK):
    characters = all_characters(group)
    modules = [trivial_module(group, 2), regular_module(group),
               free_module(group, 2)]
    modules += [sign_module(group, v) for v in characters]
    modules.append(direct_sum_module(
        direct_sum_module(sign_module(group, rng.choice(characters)),
                          free_module(group, 1)),
        trivial_module(group)))
    modules.append(in_signed_basis(rng, free_module(group, 1)))
    signed = in_signed_basis(rng, direct_sum_module(
        sign_module(group, rng.choice(characters), 2), regular_module(group)))
    modules += [signed, quadratic_module(signed)]
    for rank in (1, 2, 3):
        if gamma_rank(rank * group.order) <= max_gamma_rank:
            modules.append(quadratic_module(free_module(group, rank)))
    return modules


def twist(module, w, rng, x):
    """``x`` minus random twist relations ``g.m - w(g).m``."""
    n = module.underlying.ngens
    out = list(x)
    for _ in range(3):
        g = rng.randrange(module.group.order)
        m = [rng.randint(-3, 3) for _ in range(n)]
        gm = module.act(g, m)
        out = [a - b + w(g) * c for a, b, c in zip(out, gm, m)]
    return out


def assert_same_coinvariants(rng, module, w, label):
    assert module.table is not None, label
    orbits = twisted_coinvariants(module, w)
    rows = twisted_coinvariants(dense(module), w, budget=None)
    assert orbits.presentation.invariant_factors() == \
        rows.presentation.invariant_factors(), label
    n = module.underlying.ngens
    comp = orbits.projection.matrix.mul(orbits.section)
    assert comp == IntMatrix.identity(orbits.presentation.ngens), label
    for case in range(CASES_PER_MODULE):
        x = [rng.randint(-3, 3) for _ in range(n)]
        y = twist(module, w, rng, x)
        if case % 3 and n:
            y[rng.randrange(n)] += rng.choice((1, 2))
        diff = [a - b for a, b in zip(x, y)]
        by_orbits = orbits.presentation.element_is_zero(
            orbits.projection.apply(diff))
        by_rows = rows.presentation.element_is_zero(diff)
        assert by_orbits == by_rows, (label, case)


def test_orbit_route_matches_relation_rows():
    rng = random.Random(2606)
    checked = 0
    for name, group, w in bundled_pairs():
        for index, module in enumerate(sample_modules(rng, group)):
            assert_same_coinvariants(rng, module, w, (name, w.values, index))
            checked += 1
    assert checked >= 200


def test_gamma_table_matches_induced_matrices():
    rng = random.Random(2607)
    for name, group in sorted(standard_library().items()):
        characters = all_characters(group)
        for module in (free_module(group, 2),
                       sign_module(group, characters[-1], 3),
                       in_signed_basis(rng, free_module(group, 1)),
                       in_signed_basis(rng, direct_sum_module(
                           regular_module(group),
                           sign_module(group, characters[-1])))):
            if gamma_rank(module.underlying.ngens) > MAX_GAMMA_RANK:
                continue
            value = quadratic_module(module)
            assert value.table is not None, name
            for g in range(group.order):
                assert value.action[g] == induced_matrix(module.action[g]), \
                    (name, g)


def test_relation_rows_run_without_a_table():
    """A module that is not a signed-permutation module keeps the
    relation-row route: Z/2 acting by [[1, 0], [1, -1]] on Z^2."""
    z2 = standard_library()["z2"]
    action = [IntMatrix.identity(2), IntMatrix.from_rows([[1, 0], [1, -1]])]
    module = module_from_action(z2, AbelianPresentation.free(2), action)
    assert module.table is None
    for w in all_characters(z2):
        result = twisted_coinvariants(module, w)
        assert result.section == IntMatrix.identity(2)
        assert result.presentation.relations.rows == 2


def test_tables_are_checked_by_composition():
    """Both non-identity elements of Z/3 swapping the basis is no action;
    the functor value of that table is refused as well."""
    z3 = standard_library()["z3"]
    swap = ([1, 0], [1, 1])
    table = [([0, 1], [1, 1]), swap, swap]
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        ZPiModule(z3, AbelianPresentation.free(2), table=table)
    broken = ZPiModule(z3, AbelianPresentation.free(2), check=False,
                       table=table)
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        quadratic_module(broken)


def _lift_equal(target_rows, target_orbits, got, expected):
    """Whether an element of the orbit presentation and one of the
    relation-row presentation name the same class."""
    lifted = target_orbits.section.mat_vec(got)
    return target_rows.presentation.elements_equal(lifted, expected)


def test_transfer_maps_match_relation_rows():
    rng = random.Random(2608)
    groups = standard_library()
    for group, gens in ((groups["z6"], [3]), (groups["klein4"], [1])):
        data = subgroup_and_cosets(group, gens)
        assert data.index in (3, 2)
        for w in all_characters(group):
            w_sub = w.restrict(data.elements, data.subgroup)
            for module in sample_modules(rng, group, max_gamma_rank=78):
                flat = dense(module)
                full_o = twisted_coinvariants(module, w)
                full_r = twisted_coinvariants(flat, w, budget=None)
                sub_o = twisted_coinvariants(restrict_module(module, data),
                                             w_sub)
                sub_r = twisted_coinvariants(restrict_module(flat, data),
                                             w_sub, budget=None)
                tr_o = transfer_down(module, w, data)
                tr_r = transfer_down(flat, w, data)
                up_o = induced_coinvariants_map(module, w, data)
                up_r = induced_coinvariants_map(flat, w, data)
                n = module.underlying.ngens
                for _ in range(4):
                    x = [rng.randint(-3, 3) for _ in range(n)]
                    down = tr_o.apply(full_o.projection.apply(x))
                    assert _lift_equal(sub_r, sub_o, down, tr_r.apply(x))
                    up = up_o.apply(sub_o.projection.apply(x))
                    assert _lift_equal(full_r, full_o, up, up_r.apply(x))
