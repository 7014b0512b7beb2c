"""Free resolutions over group rings: construction, validation, budgets.

The two providers (inductive chain construction for any group, the length-one
periodic pattern for cyclic groups) are validated against the definition:
consecutive differentials compose to zero and the underlying integer complex
is exact, resolving a single copy of the integers in degree zero.
"""

import random

import pytest

from gammalab.builtins import (
    cyclic_group,
    klein_four_group,
    quaternion_group,
    standard_library,
    symmetric_group_3,
    trivial_group,
)
from gammalab.errors import BudgetExceededError, IncompatibleInputError, \
    UnsupportedInputError
from gammalab.groups import OrientationChar, all_characters
from gammalab.homology import MAX_DEGREE
from gammalab.modules import (direct_sum_module, regular_module, sign_module,
                              trivial_module)
from gammalab.resolutions import (
    DEFAULT_BUDGET,
    Resolution,
    chain_resolution,
    chain_resolution_ranks,
    periodic_generator,
    periodic_resolution,
    resolution_cost,
    twisted_chain_columns,
)

from test_modules import in_random_basis


def copy_differentials(res):
    return [[[list(entry) for entry in row] for row in diff]
            for diff in res.differentials]


def freeze(diffs):
    return [[[tuple(entry) for entry in row] for row in diff]
            for diff in diffs]


# -- construction -----------------------------------------------------------


def test_chain_resolution_ranks_formula():
    assert chain_resolution_ranks(4, 4) == [1, 3, 9, 27, 81]
    assert chain_resolution_ranks(2, 3) == [1, 1, 1, 1]
    assert chain_resolution_ranks(1, 2) == [1, 0, 0]


def test_chain_resolution_validates():
    for group, length in [(trivial_group(), 3), (cyclic_group(2), 5),
                          (cyclic_group(3), 4), (cyclic_group(4), 3),
                          (klein_four_group(), 3), (symmetric_group_3(), 2),
                          (quaternion_group(), 2)]:
        res = chain_resolution(group, length)
        assert res.length == length
        assert res.ranks == chain_resolution_ranks(group.order, length)
        res.validate()


def test_periodic_resolution_validates():
    for n in range(1, 7):
        group = cyclic_group(n)
        res = periodic_resolution(group, 5)
        assert res.length == 5
        assert res.ranks == [1] * 6
        res.validate()


def test_periodic_resolution_differentials_alternate():
    z4 = cyclic_group(4)
    res = periodic_resolution(z4, 4)
    gen = periodic_generator(z4)
    # Odd degrees: generator minus identity; even degrees: the norm.
    difference = [0] * 4
    difference[gen] += 1
    difference[0] -= 1
    norm = [1, 1, 1, 1]
    assert list(res.differential(1)[0][0]) == difference
    assert list(res.differential(2)[0][0]) == norm
    assert list(res.differential(3)[0][0]) == difference
    assert list(res.differential(4)[0][0]) == norm


def test_periodic_generator_requires_cyclic():
    assert periodic_generator(cyclic_group(6)) == 1
    assert periodic_generator(trivial_group()) == 0
    with pytest.raises(UnsupportedInputError):
        periodic_generator(klein_four_group())
    with pytest.raises(UnsupportedInputError):
        periodic_generator(symmetric_group_3())


# -- matrices of differentials ----------------------------------------------


def test_twisted_matrix_is_signed_coefficient_sum():
    z4 = cyclic_group(4)
    res = chain_resolution(z4, 3)
    for w in all_characters(z4):
        for k in range(1, res.length + 1):
            ring = res.differential(k)
            twisted = res.twisted_matrix(k, w)
            for i in range(res.ranks[k - 1]):
                for j in range(res.ranks[k]):
                    expected = sum(c * w.values[g]
                                   for g, c in enumerate(ring[i][j]))
                    assert twisted.data[i][j] == expected


def test_twisted_complexes_compose_to_zero():
    """Every twisted complex the package builds for itself is a chain
    complex: homology relies on this and does not check it per query."""
    cases = [
        (periodic_resolution(cyclic_group(6), 5), cyclic_group(6)),
        (chain_resolution(cyclic_group(4), 4), cyclic_group(4)),
        (chain_resolution(klein_four_group(), 3), klein_four_group()),
    ]
    cases += [(periodic_resolution(group, MAX_DEGREE + 1), group)
              for group in standard_library().values() if group.is_cyclic()]
    for res, group in cases:
        for w in all_characters(group):
            for k in range(2, res.length + 1):
                prod = res.twisted_matrix(k - 1, w).mul(res.twisted_matrix(k, w))
                assert prod.is_zero()
    # The sparse bar differentials behind group_homology, in every degree
    # it reads (d_k and d_{k+1} for k <= MAX_DEGREE).
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            d_out = twisted_chain_columns(group, w, 1)
            for k in range(2, MAX_DEGREE + 2):
                d_in = twisted_chain_columns(group, w, k)
                for column in d_in:
                    image = {}
                    for i, c in column.items():
                        for r, v in d_out[i].items():
                            image[r] = image.get(r, 0) + c * v
                    assert not any(image.values()), (name, w.values, k)
                d_out = d_in


def test_sign_line_coefficients_are_the_product_character():
    """With the sign line ``Z^v`` as coefficients and character ``w``, the
    columns are the integral ones for ``w·v``, in degrees 1 to 4, all
    columns and those ending in the bar generators alike."""
    for name, group in sorted(standard_library().items()):
        characters = all_characters(group)
        for w in characters:
            for v in characters:
                product = OrientationChar(
                    group, [a * b for a, b in zip(w.values, v.values)])
                line = sign_module(group, v)
                for k in range(1, MAX_DEGREE + 1):
                    for last in (None, group.bar_generators()):
                        assert twisted_chain_columns(
                            group, w, k, last, line) == twisted_chain_columns(
                                group, product, k, last), \
                            (name, w.values, v.values, k, last)


def test_module_coefficient_columns_form_a_chain_complex():
    """``d_1 ⊗ M`` after ``d_2 ⊗ M``, and ``d_2 ⊗ M`` after ``d_3 ⊗ M``,
    are zero for modules whose elements move basis vectors to sums."""
    rng = random.Random(27)
    for name, group in sorted(standard_library().items()):
        modules = [regular_module(group),
                   in_random_basis(rng, direct_sum_module(
                       trivial_module(group), regular_module(group)))]
        for w in all_characters(group):
            for module in modules:
                d_out = twisted_chain_columns(group, w, 1, None, module)
                for k in (2, 3):
                    d_in = twisted_chain_columns(group, w, k, None, module)
                    for column in d_in:
                        image = {}
                        for i, c in column.items():
                            for r, v in d_out[i].items():
                                image[r] = image.get(r, 0) + c * v
                        assert not any(image.values()), (name, w.values, k)
                    d_out = d_in


def test_underlying_matrix_shapes():
    k4 = klein_four_group()
    res = chain_resolution(k4, 2)
    d1 = res.underlying_matrix(1)
    assert d1.shape == (4, 12)
    d2 = res.underlying_matrix(2)
    assert d2.shape == (12, 36)
    assert d1.mul(d2).is_zero()


def test_differential_degree_bounds():
    res = periodic_resolution(cyclic_group(3), 2)
    with pytest.raises(IncompatibleInputError):
        res.differential(0)
    with pytest.raises(IncompatibleInputError):
        res.differential(3)


# -- validation failure modes -----------------------------------------------


def test_validate_detects_broken_chain_condition():
    z4 = cyclic_group(4)
    res = periodic_resolution(z4, 5)
    diffs = copy_differentials(res)
    diffs[2][0][0][1] += 1  # perturb one ring coefficient of d_3
    broken = Resolution(z4, list(res.ranks), freeze(diffs))
    with pytest.raises(IncompatibleInputError) as info:
        broken.validate()
    assert "compose to zero" in str(info.value)


def test_validate_detects_inexactness():
    z4 = cyclic_group(4)
    res = periodic_resolution(z4, 5)
    diffs = copy_differentials(res)
    # A zero differential keeps the chain condition but breaks exactness.
    diffs[2] = [[[0, 0, 0, 0]]]
    broken = Resolution(z4, list(res.ranks), freeze(diffs))
    with pytest.raises(IncompatibleInputError) as info:
        broken.validate()
    assert "exact" in str(info.value)


def test_validate_checks_degree_zero_augmentation():
    # A resolution must leave exactly one copy of the integers behind; a
    # doubled first differential gives cokernel Z + Z/2 and must be refused.
    z2 = cyclic_group(2)
    res = periodic_resolution(z2, 5)
    diffs = copy_differentials(res)
    diffs[0] = [[[-2, 2]]]
    broken = Resolution(z2, list(res.ranks), freeze(diffs))
    with pytest.raises(IncompatibleInputError):
        broken.validate()


# -- budgets ----------------------------------------------------------------


def test_resolution_cost_is_sum_of_block_sizes():
    # Cost counts ring entries times the group order.
    assert resolution_cost(2, [1, 1, 1]) == 2 * (1 + 1)
    assert resolution_cost(4, [1, 3, 9]) == 4 * (1 * 3 + 3 * 9)
    assert resolution_cost(6, chain_resolution_ranks(6, 5)) == 12207030


def test_check_budget_raises_with_sizes():
    s3 = symmetric_group_3()
    with pytest.raises(BudgetExceededError) as info:
        chain_resolution(s3, 5, budget=DEFAULT_BUDGET)
    assert str(info.value) == (
        "resolution cost 12207030 exceeds budget 250000 (group order 6, "
        "differential sizes 1x5 + 5x25 + 25x125 + 125x625 + 625x3125); "
        "raise the budget")
    # The estimate passes and one less refuses.
    cost = resolution_cost(6, chain_resolution_ranks(6, 3))
    assert chain_resolution(s3, 3, budget=cost).ranks == [1, 5, 25, 125]
    with pytest.raises(BudgetExceededError, match=f"cost {cost} exceeds"):
        chain_resolution(s3, 3, budget=cost - 1)
    assert chain_resolution(s3, 3, budget=None).ranks == [1, 5, 25, 125]


def test_chain_resolution_respects_budget():
    with pytest.raises(BudgetExceededError):
        chain_resolution(symmetric_group_3(), 5)
    # Raising the budget unblocks the same call.
    res = chain_resolution(symmetric_group_3(), 3, budget=30000)
    res.validate()
    assert res.length == 3
