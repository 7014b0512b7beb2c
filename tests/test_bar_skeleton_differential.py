"""Differential test: the kept bar skeleton against one walk per call.

``twisted_chain_columns`` tensors a character-free skeleton of ``d_k``,
walked once per group, degree and kept ends, with ``M ⊗ Z^w``.  The oracle
is the route it replaced, kept only in this file: one tuple walk per call
that builds each column as it goes.  The columns must agree with their
dict insertion order, since unit elimination picks pivots in that order
and orbit representatives follow from it.  The cases are every bundled
group and character, degrees 1 to 4 with at most 3,000 tuples, all
columns and those ending in the bar generators, and as coefficients the
integers, free modules of rank 1 and 2, the sign line, the trivial
``Z^2``, and the same modules in a seeded random basis.
"""

import random

from gammalab.intmat import IntMatrix
from gammalab.modules import free_module, sign_module, trivial_module
from gammalab.resolutions import chain_tuples, twisted_chain_columns
from gammalab.serialize import bundled_names, bundled_path, load_group

from test_modules import in_random_basis

MAX_TUPLES = 3_000
SEED = 2801


def _add_coeff(entry, g, c):
    entry[g] = entry.get(g, 0) + c
    if entry[g] == 0:
        del entry[g]


def walked_columns(group, w, k, last=None, coefficients=None):
    """The columns of ``d_k ⊗ M ⊗ Z^w`` from one walk over the tuples, in
    the order and with the insertion order the package promises."""
    base, table = group.order - 1, group.table
    power = [base ** p for p in range(k + 1)]
    ends = range(1, group.order) if last is None else last
    after = [list(ends) if last is None else
             [h for h in ends if table[h][h] or y == h or y < table[y][h]]
             for y in range(group.order)]
    if coefficients is None:
        n = 1
        twist = [[(0, [(0, w(g))])] for g in range(group.order)]
    else:
        n = coefficients.underlying.ngens
        units = list(enumerate(IntMatrix.identity(n).data))
        twist = [[(a, [(b, w(g) * c) for b, c in enumerate(
            coefficients.act(group.inv(g), unit)) if c]) for a, unit in units]
            for g in range(group.order)]
    columns = []
    for head_index, head in enumerate(chain_tuples(group, k - 1)):
        for h in after[head[-1] if head else 0]:
            tup, index = head + (h,), head_index * base + h - 1
            rest = index % power[k - 1] * n
            for a, first in twist[tup[0]]:
                column = {}
                for b, c in first:
                    column[rest + b] = c
                sign = -1
                for i in range(k - 1):
                    merged = table[tup[i]][tup[i + 1]]
                    if merged != 0:
                        _add_coeff(column, (
                            index // power[k - i] * power[k - 1 - i]
                            + (merged - 1) * power[k - 2 - i]
                            + index % power[k - 2 - i]) * n + a, sign)
                    sign = -sign
                _add_coeff(column, index // base * n + a, sign)
                columns.append(column)
    return columns


def coefficient_modules(rng, group, w):
    modules = [None, free_module(group, 1), free_module(group, 2),
               sign_module(group, w), trivial_module(group, 2)]
    return modules + [in_random_basis(rng, module)
                      for module in modules[1:]]


def bundled_cases():
    for name in sorted(bundled_names("group")):
        group, characters = load_group(bundled_path("group", name))
        for char in sorted(characters):
            yield name, group, characters[char]


def same_columns(got, expected):
    """Equal columns with equal insertion order: ``list(c.items())``
    agrees for every column."""
    return len(got) == len(expected) and all(
        x == y and list(x) == list(y) for x, y in zip(got, expected))


def test_kept_skeleton_gives_the_walked_columns_in_order():
    """Each group, degree and ends is walked at most once; every other
    character and module reads the kept skeleton."""
    rng = random.Random(SEED)
    compared = 0
    groups = {}
    for name, group, w in bundled_cases():
        groups[name] = group
        degrees = [k for k in range(1, 5)
                   if (group.order - 1) ** k <= MAX_TUPLES]
        for module in coefficient_modules(rng, group, w):
            for k in degrees:
                for last in (None, group.bar_generators()):
                    expected = walked_columns(group, w, k, last, module)
                    assert same_columns(twisted_chain_columns(
                        group, w, k, last, module), expected), \
                        (name, w.values, k, last, module)
                    compared += len(expected)
    assert compared > 1_000_000
    # Faces that land on the drop-first row are replayed in walk order.
    assert sum(replay for group in groups.values()
               for skeleton in group.bar_skeletons.values()
               for _, _, _, replay in skeleton) > 100

