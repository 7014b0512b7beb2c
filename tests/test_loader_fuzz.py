"""Seeded-random malformed inputs through ``gammalab census``, ``orbit``,
``homology --resolution-file`` and ``gamma``.

Each census case starts from a valid group, free module and hermitian form
file and breaks one of them: wrong types, ragged rows, huge sizes, deep
nesting, tables that are not groups, characters and actions that are not
multiplicative, and forms that are not hermitian.  The group breakages also
run through ``gammalab orbit``.  A boolean, a float or a string in the last
entry of a large module action or group table must be named in the message.  Resolution cases start from the periodic
resolution of a cyclic group, or the chain resolution of ``Z/3``, and break
it: ragged or missing boundaries, coefficient vectors of the wrong length,
negative or huge ranks, deep nesting, and complexes that do not compose to
zero.  Presentation cases start from a small random presentation and give
it wrong types, booleans or floats, ragged rows, a negative generator
count, deep nesting, bytes that are not UTF-8, or numbers too long to
read.  Every such run must exit 2 with an ``error:`` line on stderr and no
traceback; a well-formed presentation above the work budget, or one whose
answer holds an integer too long to print, must exit 1 with an ``error:``
line.  Whether a broken table, character, action or complex really
fails its law is decided here, from the definitions, before the case is
used.
"""

import json
import random

import pytest

from gammalab import cli
from gammalab.builtins import (cyclic_group, direct_product,
                               klein_four_group, symmetric_group_3)
from gammalab.classify import hermitian_closure
from gammalab.groups import GroupRingElement, all_characters
from gammalab.modules import free_module
from gammalab.resolutions import chain_resolution, periodic_resolution

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


def write_file(tmp_path, name, text):
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_input_error(argv, capsys, context):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2, (context, err)
    assert out == ""
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


# -- groups through ``gammalab orbit`` ---------------------------------------

GROUP_KINDS = ("wrong_type", "ragged", "huge", "deep", "not_a_group",
               "non_multiplicative_character")


def orbit_argv(tmp_path, group_text):
    return ["orbit", "--group", write_file(tmp_path, "group", group_text),
            "--character", "w", "--degree", "1"]


def test_valid_groups_pass_orbit(tmp_path, capsys):
    rng = random.Random(141)
    for _ in range(CASES_PER_KIND):
        group_doc = valid_docs(rng)[0]
        assert cli.main(orbit_argv(tmp_path, json.dumps(group_doc))) == 0
        out, err = capsys.readouterr()
        assert out and err == ""


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_malformed_group_through_orbit_exits_two(kind, tmp_path, capsys):
    """The census breakages that touch the group file alone."""
    rng = random.Random(f"orbit-fuzz-{kind}")
    for case in range(CASES_PER_KIND):
        group_doc = valid_docs(rng)[0]
        text = None
        if kind == "huge":
            group_doc["order"] += 10 ** rng.randint(4, 30)
        elif kind == "deep":
            text = "[" * 10 ** 5 + "]" * 10 ** 5
        else:
            KINDS[kind](rng, [group_doc])
        text = text or json.dumps(group_doc)
        assert_input_error(orbit_argv(tmp_path, text), capsys,
                           (kind, case, text[:200]))


# -- junk in the last entry of a large file ----------------------------------

LAST_ENTRY_JUNK = {"true": True, "float": 1.5, "string": "1"}


@pytest.mark.parametrize("target", ["module", "group"])
@pytest.mark.parametrize("junk", sorted(LAST_ENTRY_JUNK))
def test_junk_in_the_last_entry_is_named(target, junk, tmp_path, capsys):
    """A boolean, a float or a string as the very last integer of the free
    module of rank 3 over S3 x Z2 (12 matrices of 36 x 36) or of that
    group's table: the loaders check whole rows at once, and must still
    name the entry."""
    group = direct_product(symmetric_group_3(), cyclic_group(2))
    n = group.order
    group_doc = {"order": n, "table": [list(row) for row in group.table]}
    module = free_module(group, 3)
    module_doc = {"ngens": module.underlying.ngens, "relations": [],
                  "action": {str(g): module.action[g].data
                             for g in range(n)}}
    value = LAST_ENTRY_JUNK[junk]
    if target == "module":
        module_doc["action"][str(n - 1)][-1][-1] = value
        field = f"action['{n - 1}'][{module.underlying.ngens - 1}]"
    else:
        group_doc["table"][-1][-1] = value
        field = f"table[{n - 1}]"
    paths = {kind: write_file(tmp_path, kind, json.dumps(doc))
             for kind, doc in (("group", group_doc), ("module", module_doc))}
    code = cli.main(["census", "--group", paths["group"], "--module",
                     paths["module"]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: {paths[target]}: field '{field}' must be an "
                   f"integer, got {value!r}\n")


# -- resolutions through ``gammalab homology --resolution-file`` -------------

RESOLUTION_GROUPS = {"z2": cyclic_group(2), "z3": cyclic_group(3),
                     "z4": cyclic_group(4)}


def valid_resolution(rng):
    """(group name, resolution doc) for the periodic resolution of a cyclic
    group of length 5, or the chain resolution of Z/3 (ranks 2^k)."""
    name = rng.choice(sorted(RESOLUTION_GROUPS) + ["z3-chain"])
    if name == "z3-chain":
        name, resolution = "z3", chain_resolution(cyclic_group(3), 5)
    else:
        resolution = periodic_resolution(RESOLUTION_GROUPS[name], 5)
    doc = {"ranks": list(resolution.ranks),
           "boundaries": [[[list(entry) for entry in row] for row in matrix]
                          for matrix in resolution.differentials]}
    return name, doc


def composes_to_zero(group, doc):
    """Whether consecutive boundaries multiply to zero in the group ring
    (the groups here are abelian, so the order of factors is immaterial)."""
    ring = lambda c: GroupRingElement(group, c)
    bounds = doc["boundaries"]
    for k in range(1, len(bounds)):
        upper, lower = bounds[k - 1], bounds[k]
        for row in upper:
            for j in range(len(lower[0]) if lower else 0):
                total = ring([0] * group.order)
                for entry, lower_row in zip(row, lower):
                    total = total + ring(entry) * ring(lower_row[j])
                if any(total.coeffs):
                    return False
    return True


def some_boundary(rng, doc):
    """A nonempty boundary matrix and one of its rows."""
    matrix = rng.choice([m for m in doc["boundaries"] if m and m[0]])
    return matrix, matrix[rng.randrange(len(matrix))]


def ragged_boundary(rng, name, doc):
    """A boundary row one entry longer or shorter, or a row dropped."""
    matrix, row = some_boundary(rng, doc)
    choice = rng.randrange(3)
    if choice == 0:
        row.pop()
    elif choice == 1:
        row.append(list(row[0]))
    else:
        matrix.remove(row)


def missing_boundary(rng, name, doc):
    """A boundary matrix dropped, or the whole field or the ranks gone."""
    choice = rng.randrange(3)
    if choice == 0:
        doc["boundaries"].pop(rng.randrange(len(doc["boundaries"])))
    else:
        del doc[("boundaries", "ranks")[choice - 1]]


def wrong_coefficient_length(rng, name, doc):
    _, row = some_boundary(rng, doc)
    entry = row[rng.randrange(len(row))]
    if rng.random() < 0.5:
        entry.pop()
    else:
        entry.append(rng.randint(-1, 1))


def bad_rank(rng, name, doc):
    """A rank made negative or far above the data."""
    k = rng.randrange(len(doc["ranks"]))
    if rng.random() < 0.5:
        doc["ranks"][k] = -rng.randint(1, 10 ** rng.randint(1, 30))
    else:
        doc["ranks"][k] += 10 ** rng.randint(1, 30)


def deep_resolution(rng, name, doc):
    nested = "[" * 10 ** 5 + "]" * 10 ** 5
    if rng.random() < 0.5:
        return nested
    return '{"ranks": %s, "boundaries": %s}' % (json.dumps(doc["ranks"]),
                                                nested)


def not_a_complex(rng, name, doc):
    """One coefficient moved so that two boundaries no longer compose to
    zero."""
    group = RESOLUTION_GROUPS[name]
    while True:
        _, row = some_boundary(rng, doc)
        entry = row[rng.randrange(len(row))]
        g = rng.randrange(group.order)
        step = rng.choice((-1, 1))
        entry[g] += step
        if not composes_to_zero(group, doc):
            return
        entry[g] -= step


RESOLUTION_KINDS = {"ragged_boundary": ragged_boundary,
                    "missing_boundary": missing_boundary,
                    "wrong_coefficient_length": wrong_coefficient_length,
                    "bad_rank": bad_rank, "deep": deep_resolution,
                    "not_a_complex": not_a_complex}


def homology_argv(tmp_path, name, text, degree):
    return ["homology", "--group", name, "--degree", str(degree),
            "--resolution-file", write_file(tmp_path, "resolution", text)]


def test_valid_resolutions_pass(tmp_path, capsys):
    rng = random.Random(142)
    for _ in range(CASES_PER_KIND):
        name, doc = valid_resolution(rng)
        assert composes_to_zero(RESOLUTION_GROUPS[name], doc)
        argv = homology_argv(tmp_path, name, json.dumps(doc),
                             rng.randrange(5))
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("H_") and err == ""


@pytest.mark.parametrize("kind", sorted(RESOLUTION_KINDS))
def test_malformed_resolution_exits_two(kind, tmp_path, capsys):
    rng = random.Random(f"resolution-fuzz-{kind}")
    for case in range(CASES_PER_KIND):
        name, doc = valid_resolution(rng)
        text = RESOLUTION_KINDS[kind](rng, name, doc) or json.dumps(doc)
        argv = homology_argv(tmp_path, name, text, rng.randrange(5))
        assert_input_error(argv, capsys, (kind, case, text[:200]))


# -- presentations through ``gammalab gamma`` ---------------------------------


def valid_presentation(rng):
    ngens = rng.randint(1, 5)
    return {"ngens": ngens,
            "relations": [[rng.randint(-6, 6) for _ in range(ngens)]
                          for _ in range(rng.randint(0, 4))]}


def some_relation(rng, doc):
    if not doc["relations"]:
        doc["relations"].append([rng.randint(-6, 6)
                                 for _ in range(doc["ngens"])])
    return rng.choice(doc["relations"])


def presentation_wrong_type(rng, doc):
    """The generator count, the relation list, a row or an entry replaced
    by a value of another type."""
    row = some_relation(rng, doc)
    parent, key = rng.choice([(doc, "ngens"), (doc, "relations"),
                              (doc["relations"],
                               rng.randrange(len(doc["relations"]))),
                              (row, rng.randrange(len(row)))])
    parent[key] = other_type(rng, parent[key])


def presentation_bool_or_float(rng, doc):
    """The generator count or an entry given as a boolean or a float."""
    value = rng.choice([True, False, 2.0, 0.5, -1.0, 1e300])
    if rng.random() < 0.3:
        doc["ngens"] = value
    else:
        row = some_relation(rng, doc)
        row[rng.randrange(len(row))] = value


def presentation_ragged(rng, doc):
    row = some_relation(rng, doc)
    if rng.random() < 0.5:
        row.pop()
    else:
        row.append(rng.randint(-1, 1))


def presentation_negative_ngens(rng, doc):
    doc["ngens"] = -rng.randint(1, 10 ** rng.randint(1, 30))


def presentation_deep(rng, doc):
    nested = "[" * 10 ** 5 + "]" * 10 ** 5
    if rng.random() < 0.5:
        return nested
    return '{"ngens": %d, "relations": %s}' % (doc["ngens"], nested)


def presentation_not_utf8(rng, doc):
    text = json.dumps(doc).encode("utf-8")
    cut = rng.randrange(len(text) + 1)
    return text[:cut] + rng.choice([b"\xff", b"\xc3\x28", b"\x80",
                                    b"\xed\xa0\x80"]) + text[cut:]


def presentation_long_number(rng, doc):
    """An entry with more digits than the interpreter converts."""
    row = some_relation(rng, doc)
    digits = rng.randint(4301, 6000)
    row[rng.randrange(len(row))] = "@"
    return json.dumps(doc).replace('"@"', "7" * digits)


PRESENTATION_KINDS = {"wrong_type": presentation_wrong_type,
                      "bool_or_float": presentation_bool_or_float,
                      "ragged": presentation_ragged,
                      "negative_ngens": presentation_negative_ngens,
                      "deep": presentation_deep,
                      "not_utf8": presentation_not_utf8,
                      "long_number": presentation_long_number}


def gamma_argv(tmp_path, text, structured):
    path = tmp_path / "presentation.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return ["gamma", str(path)] + (["--format", "structured"]
                                   if structured else [])


def test_valid_presentations_pass_gamma(tmp_path, capsys):
    rng = random.Random(143)
    for _ in range(CASES_PER_KIND):
        argv = gamma_argv(tmp_path, json.dumps(valid_presentation(rng)),
                          rng.random() < 0.5)
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out and err == ""


@pytest.mark.parametrize("kind", sorted(PRESENTATION_KINDS))
def test_malformed_presentation_exits_two(kind, tmp_path, capsys):
    rng = random.Random(f"presentation-fuzz-{kind}")
    for case in range(CASES_PER_KIND):
        doc = valid_presentation(rng)
        text = PRESENTATION_KINDS[kind](rng, doc) or json.dumps(doc)
        argv = gamma_argv(tmp_path, text, rng.random() < 0.5)
        assert_input_error(argv, capsys, (kind, case, text[:200]))


@pytest.mark.parametrize("structured", [False, True])
def test_answer_too_long_to_print_exits_one(structured, tmp_path, capsys):
    """Inputs within the interpreter's 4,300-digit limit whose answer is
    not: Z/d with d = 8 * 10**4299 has the value Z/(2d), of 4,301 digits,
    and Z + Z/d the value Z + Z/d + Z/(2d)."""
    d = "8" + "0" * 4299
    for text in ('{"ngens": 1, "relations": [[%s]]}' % d,
                 '{"ngens": 2, "relations": [[0, %s]]}' % d):
        code = cli.main(gamma_argv(tmp_path, text, structured))
        out, err = capsys.readouterr()
        assert code == 1, err
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4300 digits" in err and "Traceback" not in err


def test_presentation_above_budget_exits_one(tmp_path, capsys):
    """Well-formed presentations too large for the default budget: many
    generators with no relations, or many relation rows."""
    rng = random.Random(144)
    for case in range(CASES_PER_KIND):
        if case % 2:
            doc = {"ngens": rng.randint(10 ** 3, 10 ** 30), "relations": []}
        else:
            ngens = rng.randint(10, 12)
            doc = {"ngens": ngens,
                   "relations": [[rng.randint(-3, 3) for _ in range(ngens)]
                                 for _ in range(rng.randint(500, 800))]}
        code = cli.main(gamma_argv(tmp_path, json.dumps(doc),
                                   rng.random() < 0.5))
        out, err = capsys.readouterr()
        assert code == 1, (case, err)
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err
