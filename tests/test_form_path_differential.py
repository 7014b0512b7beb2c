"""The census form path read off coefficient tuples, against ring elements.

``check_hermitian`` compares coefficient tuples over ``i <= j`` and
``_symmetric_value`` reads the form through a gather kept on the group.
Their reference is the route through ``GroupRingElement`` objects, kept
here: ``entry(i, j) == bar_involution(entry(j, i))`` for every ``i`` and
``j``, and ``value_of_symmetric_matrix(underlying_symmetric_matrix(form))``.
The inputs are every bundled group and character, ranks 0 to 3, seeded
hermitian closures, and every single-coefficient perturbation of them.
"""

import random

from gammalab.classify import (HermitianForm, _symmetric_value,
                               check_hermitian, hermitian_closure,
                               underlying_symmetric_matrix)
from gammalab.gamma import value_of_symmetric_matrix
from gammalab.groups import (FiniteGroup, GroupRingElement, OrientationChar,
                             bar_involution)
from gammalab.serialize import bundled_names, bundled_path, load_group

SEED = 2906
FORMS_PER_CASE = 2


def hermitian_by_objects(form):
    return all(form.matrix[i][j]
               == bar_involution(form.group, form.w, form.matrix[j][i])
               for i in range(form.rank) for j in range(form.rank))


def closures():
    """``(label, form)``: seeded hermitian closures of every rank 0-3 on
    every bundled group and character."""
    rng = random.Random(SEED)
    for name in bundled_names("group"):
        group, characters = load_group(bundled_path("group", name))
        for char, w in sorted(characters.items()):
            for rank in range(4):
                for index in range(FORMS_PER_CASE):
                    matrix = [[GroupRingElement(
                        group, [rng.randint(-3, 3)
                                for _ in range(group.order)])
                        for _ in range(rank)] for _ in range(rank)]
                    yield (f"{name}/{char}/rank {rank}/{index}",
                           hermitian_closure(group, w, matrix))


def perturbed(form, i, j, g, delta):
    rows = [row[:] for row in form.matrix]
    coeffs = list(rows[i][j].coeffs)
    coeffs[g] += delta
    rows[i][j] = GroupRingElement(form.group, coeffs)
    return HermitianForm(form.group, form.w, rows)


def test_check_hermitian_matches_the_ring_element_route():
    count = refused = refused_on_diagonal = 0
    for label, form in closures():
        assert hermitian_by_objects(form), label
        assert check_hermitian(form), label
        order = form.group.order
        for i in range(form.rank):
            for j in range(form.rank):
                for g in range(order):
                    moved = perturbed(form, i, j, g, 1 if (i + g) % 2 else -2)
                    expected = hermitian_by_objects(moved)
                    assert check_hermitian(moved) == expected, (label, i, j, g)
                    count += 1
                    if not expected:
                        refused += 1
                        refused_on_diagonal += i == j
                    # The form stays hermitian only where the moved
                    # coefficient is its own mirror: on the diagonal, at an
                    # element g = g^-1 with w(g) = 1.
                    assert expected == (i == j and form.group.inverse[g] == g
                                        and form.w(g) == 1), (label, i, j, g)
    assert count > 2000
    assert refused > 1000 and refused_on_diagonal > 100


def test_symmetric_value_matches_the_symmetric_matrix():
    count = 0
    for label, form in closures():
        expected = value_of_symmetric_matrix(underlying_symmetric_matrix(form))
        assert _symmetric_value(form) == expected, label
        # Again, through the gather now kept on the group.
        assert form.rank in form.group.symmetric_gathers
        assert _symmetric_value(form) == expected, label
        count += 1
    assert count > 150


def test_the_gather_is_kept_per_group_and_rank_for_every_character():
    loaded, characters = load_group(bundled_path("group", "d4"))
    group = FiniteGroup(loaded.table, loaded.labels)
    rng = random.Random(SEED)
    kept = []
    for _, w in sorted(characters.items()):
        w = OrientationChar(group, w.values)
        matrix = [[GroupRingElement(group, [rng.randint(-2, 2)
                                            for _ in range(group.order)])
                   for _ in range(2)] for _ in range(2)]
        form = hermitian_closure(group, w, matrix)
        assert _symmetric_value(form) == value_of_symmetric_matrix(
            underlying_symmetric_matrix(form))
        kept.append(group.symmetric_gathers[2])
    assert len(kept) == 4 and all(gather is kept[0] for gather in kept)
    assert sorted(group.symmetric_gathers) == [2]
    # A group built again from the same table starts with nothing kept.
    assert FiniteGroup(group.table, group.labels).symmetric_gathers == {}
