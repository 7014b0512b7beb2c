"""The structured writer against ``json.dumps(doc, sort_keys=True,
indent=2)``, byte for byte.

``cli._structured`` writes the structured document of every command in one
pass.  It must give the same text as the standard library's encoder on
seeded random documents (nested dicts, lists and tuples, empty containers,
bools and ``None``, negative and 300-digit integers, strings with quotes,
backslashes, control characters and non-ASCII text, values it hands back
to the encoder) and on the structured output of every command, and an
integer too long to write must still end the command with exit code 1.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gammalab import cli
from gammalab.gamma import QuadraticValue

DOCUMENTS = 400
TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß", "→", "Γ",
        "😀", " ", "a", "Z/2", " ", "'", "/", "{", "]"]


def reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def random_text(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 6)))


def random_int(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return -rng.randint(1, 10 ** 6)
    sign = rng.choice((-1, 1))
    return sign * rng.randint(10 ** 299, 10 ** 300 - 1)


def random_value(rng, depth):
    kinds = ["int", "text", "bool", "none", "float"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "ints", "empty"]
    kind = rng.choice(kinds)
    if kind == "int":
        return random_int(rng)
    if kind == "text":
        return random_text(rng)
    if kind == "bool":
        return rng.choice((True, False))
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice((0.5, -2.0, 1e300, float("inf")))
    if kind == "ints":
        return [random_int(rng) for _ in range(rng.randint(1, 5))]
    if kind == "empty":
        return rng.choice(([], (), {}))
    items = [random_value(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {random_text(rng): value for value in items}


def test_writer_matches_the_encoder_on_random_documents():
    rng = random.Random(2505)
    for index in range(DOCUMENTS):
        doc = {random_text(rng): random_value(rng, 0)
               for _ in range(rng.randint(0, 6))}
        assert cli._structured(doc) == reference(doc), index


def test_writer_matches_the_encoder_on_edge_values():
    big = int("9" * 300)
    docs = [
        {}, {"a": []}, {"a": ()}, {"a": {}}, {"a": [[]]},
        {"a": [True, False, None, 0, -1]}, {"a": [1, True]},
        {"a": (1, 2, (3, [4, {}]))}, {"b": -big, "a": [big, -big]},
        {"\"quoted\"": "back\\slash", "\x01": "é中"},
        {"a": {"c": {"d": [[[1, 2], [3]], []]}}},
        # Values the writer hands to the encoder, re-indented.
        {"a": [0.5, float("nan")], "b": {"c": {1: "x", 2: [3]}}},
        {"a": [{1: {"x": [1, 2]}}]},
    ]
    for doc in docs:
        assert cli._structured(doc) == reference(doc), doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_every_command_writes_what_the_encoder_writes(tmp_path, monkeypatch):
    presentation = write_json(tmp_path, "p.json",
                              {"ngens": 3, "relations": [[2, 4, 0]]})
    free = write_json(tmp_path, "free.json", {"ngens": 0, "relations": []})
    commands = [
        ["gamma", presentation], ["gamma", free],
        ["coinvariants", "--group", "z2", "--character", "w",
         "--module", "z2_z_plus_ztwist"],
        ["tor1", "--group", "z2", "--module", "z2_regular"],
        ["homology", "--group", "klein4", "--degree", "2"],
        ["homology", "--group", "z4", "--degree", "3", "--orbits"],
        ["orbit", "--group", "z4", "--character", "w", "--degree", "1"],
        ["census", "--group", "z2", "--module", "z2_z_plus_ztwist"],
        ["census", "--group", "z2", "--character", "w", "--module",
         "z2_regular", "--form", "rp4cp2"],
        ["census", "--group", "z2", "--module", "z2_regular", "--form",
         "z2_hyperbolic"],
        ["verify-paper"],
    ]
    written = []
    original = cli._structured

    def recording(value, level=0):
        text = original(value, level)
        if level == 0:
            written.append((value, text))
        return text

    monkeypatch.setattr(cli, "_structured", recording)
    for argv in commands:
        written.clear()
        code, out, err = run_cli(argv + ["--format", "structured"])
        assert (code, err) == (0, ""), argv
        [(doc, text)] = written
        assert out == text + "\n" == reference(doc) + "\n", argv
        assert doc["command"] == argv[0]


def test_answer_too_long_to_write_exits_one(tmp_path, monkeypatch):
    """An integer past the interpreter's limit reached only by the writer:
    the value's description is held fixed, so the invariant ``Z/(2d)``,
    one digit past the limit, is first turned into text in the
    document."""
    limit = sys.get_int_max_str_digits()
    d = "8" + "0" * (limit - 1)
    path = tmp_path / "p.json"
    path.write_text('{"ngens": 1, "relations": [[%s]]}' % d, encoding="utf-8")
    with pytest.raises(ValueError) as by_encoder:
        reference({"torsion": [2 * int(d)]})
    with pytest.raises(ValueError) as by_writer:
        cli._structured({"torsion": [2 * int(d)]})
    assert str(by_writer.value) == str(by_encoder.value)
    monkeypatch.setattr(QuadraticValue, "describe", lambda self: "held")
    code, out, err = run_cli(["gamma", str(path), "--format", "structured"])
    assert (code, out) == (1, "")
    assert err == (f"error: the answer holds an integer of more than "
                   f"{limit} digits, the longest the interpreter writes as "
                   "text\n")
