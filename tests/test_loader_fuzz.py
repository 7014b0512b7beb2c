"""Seeded-random malformed inputs through ``gammalab census``.

Each case starts from a valid group, free module and hermitian form file
and breaks one of them: wrong types, ragged rows, huge sizes, deep nesting,
tables that are not groups, characters and actions that are not
multiplicative, and forms that are not hermitian.  Every such run must exit
2 with an ``error:`` line on stderr and no traceback.  Whether a broken
table, character or action really fails its law is decided here, from the
definitions, before the case is used.
"""

import json
import random

import pytest

from gammalab import cli
from gammalab.builtins import (cyclic_group, klein_four_group,
                               symmetric_group_3)
from gammalab.classify import hermitian_closure
from gammalab.groups import GroupRingElement, all_characters
from gammalab.modules import free_module

GROUPS = {"z3": cyclic_group(3), "z4": cyclic_group(4),
          "klein4": klein_four_group(), "s3": symmetric_group_3()}
CASES_PER_KIND = 12
JUNK = [True, 1.5, "x", {}, {"a": 1}, [], [1, "a"], [[1.5]]]


def copy(doc):
    return json.loads(json.dumps(doc))


def valid_docs(rng):
    """[group doc, module doc, form doc] for a random group with a random
    character named ``w``, its free module of rank 2 and a random hermitian
    form over it."""
    group = GROUPS[rng.choice(sorted(GROUPS))]
    w = rng.choice(all_characters(group))
    group_doc = {"order": group.order,
                 "table": [list(row) for row in group.table],
                 "labels": list(group.labels),
                 "characters": {"w": list(w.values)}}
    module = free_module(group, 2)
    module_doc = {"ngens": module.underlying.ngens, "relations": [],
                  "action": {str(g): module.action[g].data
                             for g in range(group.order)}}
    matrix = [[GroupRingElement(group, [rng.randint(-2, 2)
                                        for _ in range(group.order)])
               for _ in range(2)] for _ in range(2)]
    form = hermitian_closure(group, w, matrix)
    form_doc = {"rank": 2,
                "matrix": [[list(e.coeffs) for e in row]
                           for row in form.matrix]}
    return [group_doc, module_doc, form_doc]


def is_group(table):
    n = len(table)
    return (all(table[0][a] == a == table[a][0] for a in range(n))
            and all(sorted(row) == list(range(n)) for row in table)
            and all(sorted(col) == list(range(n)) for col in zip(*table))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in range(n) for b in range(n) for c in range(n)))


def is_multiplicative_character(table, values):
    n = len(table)
    return all(values[table[a][b]] == values[a] * values[b]
               for a in range(n) for b in range(n))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def is_multiplicative_action(table, action):
    n = len(table)
    return all(matmul(action[str(a)], action[str(b)])
               == action[str(table[a][b])]
               for a in range(n) for b in range(n))


def rows_of(doc):
    """Every list of integer rows in a document, as (container, key)."""
    found = []
    if "table" in doc:
        found.append((doc, "table"))
    for key in doc.get("action", {}):
        found.append((doc["action"], key))
    for row in doc.get("matrix", []):
        for j in range(len(row)):
            found.append((row, j))
    return found


def other_type(rng, value):
    return copy(rng.choice([j for j in JUNK if type(j) is not type(value)]))


def wrong_type(rng, docs):
    """A field, a row or an entry replaced by a value of another type."""
    doc = rng.choice(docs)
    parent, key = rng.choice([(doc, key) for key in doc] + rows_of(doc))
    if isinstance(parent[key], list) and parent[key] and rng.random() < 0.5:
        parent, key = parent[key], rng.randrange(len(parent[key]))
        if isinstance(parent[key], list) and parent[key]:
            parent, key = parent[key], rng.randrange(len(parent[key]))
    parent[key] = other_type(rng, parent[key])


def ragged(rng, docs):
    """One row of a table, an action matrix or a form entry made one
    longer or one shorter."""
    parent, key = rng.choice(rows_of(rng.choice(docs)))
    rows = parent[key]
    row = rows[rng.randrange(len(rows))] if isinstance(rows[0], list) \
        else rows
    if row and rng.random() < 0.5:
        row.pop()
    else:
        row.append(rng.randint(-1, 1))


def huge(rng, docs):
    """A declared order, generator count or rank far above the data."""
    group_doc, module_doc, form_doc = docs
    doc, field = rng.choice([(group_doc, "order"), (module_doc, "ngens"),
                             (form_doc, "rank")])
    doc[field] = doc[field] + 10 ** rng.randint(4, 30)


def deep(rng, docs):
    """Lists nested past the interpreter's recursion limit."""
    texts = [json.dumps(d) for d in docs]
    depth = 10 ** 5
    texts[rng.randrange(3)] = "[" * depth + "]" * depth
    return texts


def not_a_group(rng, docs):
    table = docs[0]["table"]
    n = len(table)
    a = rng.randrange(1, n)
    b, c = rng.sample(range(n), 2)
    table[a][b], table[a][c] = table[a][c], table[a][b]
    assert not is_group(table)


def non_multiplicative_character(rng, docs):
    group_doc = docs[0]
    table = group_doc["table"]
    while True:
        values = [1] + [rng.choice((1, -1)) for _ in range(len(table) - 1)]
        if not is_multiplicative_character(table, values):
            break
    group_doc["characters"]["w"] = values


def non_multiplicative_action(rng, docs):
    group_doc, module_doc, _ = docs
    table, action = group_doc["table"], module_doc["action"]
    n = module_doc["ngens"]
    while True:
        g = str(rng.randrange(1, len(table)))
        perm = rng.sample(range(n), n)
        action[g] = [[rng.choice((1, -1)) if perm[j] == i else 0
                      for j in range(n)] for i in range(n)]
        if not is_multiplicative_action(table, action):
            break


def non_hermitian(rng, docs):
    """One coefficient of one off-diagonal entry moved: the entry no longer
    matches the involution of its mirror image."""
    i = rng.randrange(2)
    entry = docs[2]["matrix"][i][1 - i]
    entry[rng.randrange(len(entry))] += rng.choice((-1, 1))


KINDS = {"wrong_type": wrong_type, "ragged": ragged, "huge": huge,
         "deep": deep, "not_a_group": not_a_group,
         "non_multiplicative_character": non_multiplicative_character,
         "non_multiplicative_action": non_multiplicative_action,
         "non_hermitian": non_hermitian}


def census_argv(tmp_path, texts):
    paths = []
    for kind, text in zip(("group", "module", "form"), texts):
        path = tmp_path / f"{kind}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return ["census", "--group", paths[0], "--character", "w",
            "--module", paths[1], "--form", paths[2]]


def test_valid_inputs_pass(tmp_path, capsys):
    rng = random.Random(140)
    for _ in range(CASES_PER_KIND):
        docs = valid_docs(rng)
        assert cli.main(census_argv(tmp_path, map(json.dumps, docs))) == 0
        out, err = capsys.readouterr()
        assert out and err == ""


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_malformed_input_exits_two(kind, tmp_path, capsys):
    rng = random.Random(f"loader-fuzz-{kind}")
    for case in range(CASES_PER_KIND):
        docs = valid_docs(rng)
        texts = KINDS[kind](rng, docs) or [json.dumps(d) for d in docs]
        code = cli.main(census_argv(tmp_path, texts))
        out, err = capsys.readouterr()
        assert code == 2, (kind, case, texts, err)
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err
