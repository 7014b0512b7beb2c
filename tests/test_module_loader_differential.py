"""Differential test: module files read straight into their table against
the dense route of ``module_from_action``.

``parse_module`` reads the signed-permutation table from the rows of a
module file and builds dense matrices only for an action that has no such
table.  ``module_from_action`` on the same rows as ``IntMatrix`` objects is
the reference.  Both must give the same table, free rank and action
matrices, or refuse with the same exception and message.  The detector
``signed_permutation_table`` is also compared, on every input, with an
oracle kept here that reads every column of every matrix.  The inputs,
seeded, over every bundled group: free and sign modules in a random signed
basis, the same modules in a random unimodular basis (no longer signed
permutations), actions with an entry 2, with two nonzero entries in one
column or with a zero column, modules with relations, a wrong identity and
a non-multiplicative table.
"""

import json
import random

import pytest

from gammalab import cli
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.errors import GammaLabError
from gammalab.groups import all_characters
from gammalab.intmat import IntMatrix
from gammalab.modules import (free_module, module_from_action, sign_module,
                              signed_permutation_table)
from gammalab.serialize import parse_module

CASES_PER_GROUP = 4


def column_table(action):
    """Oracle: per matrix, the single nonzero row of each column and its
    value, or ``None`` once some column has no single entry 1 or -1."""
    table = []
    for rows in action:
        images, signs = [], []
        for j in range(len(rows)):
            entries = [(i, row[j]) for i, row in enumerate(rows) if row[j]]
            if len(entries) != 1 or entries[0][1] not in (1, -1):
                return None
            images.append(entries[0][0])
            signs.append(entries[0][1])
        table.append((images, signs))
    return table


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def signed_basis(rng, n):
    """A random signed permutation matrix and its inverse (its transpose)."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        p[j][i] = rng.choice((-1, 1))
    return p, [list(col) for col in zip(*p)]


def unimodular_basis(rng, n):
    """A random product of elementary matrices and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] = c
        e_inv = [row[:] for row in e]
        e_inv[i][j] = -c
        p, q = matmul(e, p), matmul(q, e_inv)
    return p, q


def rows_of(module):
    return [mat.data for mat in module.action]


def change_basis(action, basis):
    p, q = basis
    return [matmul(matmul(p, rows), q) for rows in action]


def sample_inputs(rng, group):
    """(label, ngens, relation rows, action rows) for one group."""
    order = group.order
    characters = all_characters(group)
    inputs = []
    for case in range(CASES_PER_GROUP):
        w = rng.choice(characters)
        for label, module in (("free", free_module(group, 1 + case % 2)),
                              ("sign", sign_module(group, w, 1 + case % 3))):
            n = module.underlying.ngens
            action = rows_of(module)
            inputs.append((f"{label} signed", n, [],
                           change_basis(action, signed_basis(rng, n))))
            if n > 1:
                inputs.append((f"{label} unimodular", n, [],
                               change_basis(action, unimodular_basis(rng, n))))
            relation = [0] * n
            relation[rng.randrange(n)] = rng.choice((2, 3))
            inputs.append((f"{label} with a relation", n, [relation],
                           action))
        n = order
        regular = rows_of(free_module(group, 1))
        g, j = rng.randrange(order), rng.randrange(n)
        for label in ("entry 2", "two in a column", "zero column"):
            broken = [[row[:] for row in rows] for rows in regular]
            column = [row[j] for row in broken[g]]
            i = column.index(next(v for v in column if v))
            if label == "entry 2":
                broken[g][i][j] = 2
            elif label == "two in a column":
                broken[g][(i + 1) % n][j] = rng.choice((-1, 1))
            else:
                broken[g][i][j] = 0
            inputs.append((label, n, [], broken))
        wrong = [[row[:] for row in rows] for rows in regular]
        wrong[0] = [[-v for v in row] for row in wrong[0]]
        inputs.append(("wrong identity", n, [], wrong))
        if order > 2:
            shuffled = regular[:]
            a, b = rng.sample(range(1, order), 2)
            shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
            inputs.append(("non-multiplicative", n, [], shuffled))
    return inputs


def outcome(build):
    try:
        return build(), None
    except GammaLabError as exc:
        return None, (type(exc), str(exc))


def test_direct_table_matches_dense_route():
    rng = random.Random(2615)
    seen = {"table": 0, "dense": 0, "refused": 0}
    for name, group in sorted(standard_library().items()):
        for label, n, relations, action in sample_inputs(rng, group):
            doc = json.loads(json.dumps({
                "ngens": n, "relations": relations,
                "action": {str(g): rows for g, rows in enumerate(action)}}))
            direct, direct_error = outcome(lambda: parse_module(doc, group))
            reference, reference_error = outcome(lambda: module_from_action(
                group, AbelianPresentation.from_relation_rows(n, relations),
                [IntMatrix.from_rows(rows, cols=n) for rows in action]))
            context = (name, label, action)
            assert signed_permutation_table(action) == column_table(action), \
                context
            assert direct_error == reference_error, context
            if direct_error:
                seen["refused"] += 1
                continue
            assert direct.table == reference.table == column_table(action), \
                context
            assert direct.zpi_free_rank == reference.zpi_free_rank, context
            assert rows_of(direct) == rows_of(reference) == action, context
            seen["table" if direct.table else "dense"] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("argv", [
    ["census", "--module", "z2_regular"],
    ["census", "--module", "z2_regular", "--form", "rp4cp2"],
    ["census", "--module", "z2_z_plus_ztwist"],
    ["coinvariants", "--module", "z2_z_plus_ztwist"],
])
def test_census_on_a_permutation_module_builds_no_dense_action(
        argv, monkeypatch, capsys):
    """The bundled Z/2 modules are signed permutations: their matrices are
    never built on the way to a census or coinvariants report."""
    loaded = []
    real_load_module = cli.load_module

    def recording_load_module(path, group):
        loaded.append(real_load_module(path, group))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_module", recording_load_module)
    code = cli.main(argv + ["--group", "z2", "--character", "w"])
    assert code == 0, capsys.readouterr().err
    [module] = loaded
    assert module.table is not None and module._action is None
