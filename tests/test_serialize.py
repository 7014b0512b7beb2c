"""Loading groups, presentations, modules, forms, and resolutions from files.

Shape problems in a document must surface as ParseError messages naming the
origin and the offending field; semantic problems (group axioms, action
multiplicativity, character signs, resolution exactness) flow through the
ordinary constructors and keep their own error types, except for resolutions,
where the loader wraps them so a bad file is always a parse failure.

Frozen facts exercised here: the bundled group names match the standard
library, the bundled regular module is recognized as free of rank one while
the two-line split module is not, and a round-tripped length-five resolution
of the order-two group still computes H_3 = Z/2.
"""

import json
from pathlib import Path

import pytest

from gammalab.builtins import cyclic_group, standard_library
from gammalab.classify import check_hermitian
from gammalab.errors import (
    GroupValidationError,
    IncompatibleInputError,
    ParseError,
)
from gammalab.groups import OrientationChar
from gammalab.homology import group_homology
from gammalab.resolutions import periodic_resolution
from gammalab import serialize
from gammalab.serialize import (
    LOADED_TEXTS,
    MIN_RESOLUTION_LENGTH,
    bundled_names,
    bundled_path,
    load_document,
    load_form,
    load_group,
    load_module,
    parse_form,
    parse_group,
    parse_module,
    parse_presentation,
    parse_resolution,
    resolve_input,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def z2_group_doc():
    return {
        "order": 2,
        "table": [[0, 1], [1, 0]],
        "characters": {"w": [1, -1]},
    }


def z2_resolution_doc(length=5):
    z2 = cyclic_group(2)
    res = periodic_resolution(z2, length)
    boundaries = []
    for k in range(1, length + 1):
        mat = res.differential(k)
        boundaries.append([[list(entry) for entry in row] for row in mat])
    return {"ranks": list(res.ranks), "boundaries": boundaries}


# -- bundled inputs -----------------------------------------------------------


def test_bundled_group_names_match_standard_library():
    assert bundled_names("group") == sorted(standard_library().keys())
    assert bundled_names("module") == ["z2_regular", "z2_z_plus_ztwist"]
    assert bundled_names("form") == ["rp4cp2", "trivial_unit", "z2_hyperbolic"]


def test_bundled_groups_load_and_validate():
    expected_orders = {"trivial": 1, "z2": 2, "z3": 3, "z4": 4, "z6": 6,
                       "klein4": 4, "s3": 6, "d4": 8, "q8": 8}
    expected_char_counts = {"trivial": 1, "z2": 2, "z3": 1, "z4": 2, "z6": 2,
                            "klein4": 4, "s3": 2, "d4": 4, "q8": 4}
    for name in bundled_names("group"):
        group, chars = load_group(bundled_path("group", name))
        assert group.order == expected_orders[name], name
        assert "trivial" in chars
        assert chars["trivial"].is_trivial()
        assert len(chars) == expected_char_counts[name], name
        for w in chars.values():
            assert w.group is group


def test_bundled_modules_load_against_order_two_group():
    z2, _ = load_group(bundled_path("group", "z2"))
    regular = load_module(bundled_path("module", "z2_regular"), z2)
    assert regular.zpi_free_rank == 1
    assert regular.underlying.ngens == 2
    split = load_module(bundled_path("module", "z2_z_plus_ztwist"), z2)
    assert split.zpi_free_rank is None
    assert split.underlying.ngens == 2


def test_bundled_forms_load_where_hermitian():
    triv, tchars = load_group(bundled_path("group", "trivial"))
    unit = load_form(bundled_path("form", "trivial_unit"), triv,
                     tchars["trivial"])
    assert unit.rank == 1 and check_hermitian(unit)

    z2, chars = load_group(bundled_path("group", "z2"))
    hyp = load_form(bundled_path("form", "z2_hyperbolic"), z2,
                    chars["trivial"])
    assert check_hermitian(hyp)
    # The same coefficients are not hermitian for the sign character, where
    # bar(t) = -t.
    hyp_twisted = load_form(bundled_path("form", "z2_hyperbolic"), z2,
                            chars["w"])
    assert not check_hermitian(hyp_twisted)

    rp = load_form(bundled_path("form", "rp4cp2"), z2, chars["w"])
    assert rp.rank == 1 and check_hermitian(rp)


# -- document-level diagnostics ----------------------------------------------


def test_load_document_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read file"):
        load_document(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid structured text"):
        load_document(str(bad))
    toplevel = write_json(tmp_path, "list.json", [1, 2, 3])
    with pytest.raises(ParseError, match="top level must be a mapping"):
        load_document(toplevel)


def test_loader_errors_name_the_file(tmp_path):
    path = write_json(tmp_path, "group.json", {"table": [[0]]})
    with pytest.raises(ParseError) as info:
        load_group(path)
    message = str(info.value)
    assert path in message
    assert "missing required field 'order'" in message


# -- group documents ----------------------------------------------------------


def test_group_document_shape_errors():
    cases = [
        ({}, "missing required field 'order'"),
        ({"order": 0, "table": []}, "order must be at least 1"),
        ({"order": True, "table": [[0]]}, "must be an integer"),
        ({"order": 2, "table": [[0, 1, 0], [1, 0, 1]]},
         "row 0 has length 3; expected 2"),
        ({"order": 2, "table": [[0, 1]]}, "table has 1 rows; expected 2"),
        ({"order": 1, "table": [[0]], "labels": ["e", "x"]},
         "2 labels for order 1"),
        ({"order": 1, "table": [[0]], "labels": [0]},
         "must be a list of strings"),
        ({"order": 1, "table": [[0]], "characters": [1]},
         "must map names to sign vectors"),
        ({"order": 2, "table": [[0, 1], [1, 0]],
          "characters": {"w": [1]}}, "must be a list of 2 signs"),
    ]
    for doc, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_group(doc, origin="probe")


def test_group_semantic_errors_keep_their_types():
    # A table that is not a group fails group validation, not parsing.
    with pytest.raises(GroupValidationError):
        parse_group({"order": 2, "table": [[0, 1], [1, 1]]}, origin="probe")
    # Character entries outside {+1, -1} fail the character constructor.
    with pytest.raises(IncompatibleInputError, match="not \\+1 or -1"):
        parse_group({"order": 2, "table": [[0, 1], [1, 0]],
                     "characters": {"w": [1, 2]}}, origin="probe")


def test_group_round_trip(tmp_path):
    path = write_json(tmp_path, "z2.json", z2_group_doc())
    group, chars = load_group(path)
    builtin = cyclic_group(2)
    assert [group.mul(a, b) for a in range(2) for b in range(2)] == \
        [builtin.mul(a, b) for a in range(2) for b in range(2)]
    assert chars["w"].values == (1, -1)


# -- presentations ------------------------------------------------------------


def test_presentation_parsing_and_errors():
    pres = parse_presentation({"ngens": 2, "relations": [[2, 0]]})
    assert pres.invariant_factors() == (1, (2,))
    # Omitted relations default to the free presentation.
    free = parse_presentation({"ngens": 3})
    assert free.invariant_factors() == (3, ())
    with pytest.raises(ParseError, match="ngens must be nonnegative"):
        parse_presentation({"ngens": -1})
    with pytest.raises(ParseError, match="row 0 has length 1; expected 2"):
        parse_presentation({"ngens": 2, "relations": [[2]]})


# -- modules ------------------------------------------------------------------


def test_module_action_key_errors():
    z2 = cyclic_group(2)
    base = {"ngens": 1, "relations": []}
    with pytest.raises(ParseError, match="missing required field 'action'"):
        parse_module(dict(base), z2, origin="probe")
    with pytest.raises(ParseError, match=r"missing indices \['1'\]"):
        parse_module({**base, "action": {"0": [[1]]}}, z2, origin="probe")
    with pytest.raises(ParseError, match=r"unknown indices \['2'\]"):
        parse_module({**base, "action": {"0": [[1]], "1": [[1]], "2": [[1]]}},
                     z2, origin="probe")
    with pytest.raises(ParseError, match="has 2 rows; expected 1"):
        parse_module({**base, "action": {"0": [[1], [1]], "1": [[1]]}},
                     z2, origin="probe")


def test_module_semantic_errors_keep_their_types():
    z2 = cyclic_group(2)
    doc = {"ngens": 1, "relations": [],
           "action": {"0": [[1]], "1": [[2]]}}
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        parse_module(doc, z2, origin="probe")


def test_module_round_trip():
    z2 = cyclic_group(2)
    doc = {"ngens": 2, "relations": [],
           "action": {"0": [[1, 0], [0, 1]], "1": [[0, 1], [1, 0]]}}
    module = parse_module(doc, z2, origin="probe")
    assert module.zpi_free_rank == 1


# -- forms --------------------------------------------------------------------


def test_form_shape_errors():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    with pytest.raises(ParseError, match="rank must be nonnegative"):
        parse_form({"rank": -1, "matrix": []}, z2, w, origin="probe")
    with pytest.raises(ParseError, match="must be a list of 2 rows"):
        parse_form({"rank": 2, "matrix": [[[1, 0], [0, 0]]]}, z2, w,
                   origin="probe")
    with pytest.raises(ParseError, match=r"row 0 must have 2 entries"):
        parse_form({"rank": 2, "matrix": [[[1, 0]], [[0, 0], [1, 0]]]},
                   z2, w, origin="probe")
    with pytest.raises(ParseError,
                       match=r"entry \(0, 0\) must be a coefficient vector"):
        parse_form({"rank": 1, "matrix": [[[1, 0, 0]]]}, z2, w,
                   origin="probe")


def test_form_entry_errors_are_exact():
    """A short coefficient vector and a coefficient that is not an integer
    are refused with these messages, whole."""
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    with pytest.raises(ParseError) as info:
        parse_form({"rank": 1, "matrix": [[[1]]]}, z2, w, origin="probe")
    assert str(info.value) == ("probe: matrix entry (0, 0) must be a "
                               "coefficient vector of length 2")
    matrix = [[[1, 0], [0, 0]], [[0, 0], [1, "x"]]]
    with pytest.raises(ParseError) as info:
        parse_form({"rank": 2, "matrix": matrix}, z2, w, origin="probe")
    assert str(info.value) == ("probe: field 'matrix[1][1]' must be an "
                               "integer, got 'x'")


def test_form_round_trip():
    z2 = cyclic_group(2)
    w = OrientationChar.trivial(z2)
    form = parse_form({"rank": 1, "matrix": [[[0, 1]]]}, z2, w,
                      origin="probe")
    assert form.entry(0, 0).coeffs == (0, 1)


# -- resolutions --------------------------------------------------------------


def test_resolution_round_trip_computes_homology():
    z2 = cyclic_group(2)
    doc = z2_resolution_doc()
    res = parse_resolution(doc, z2, origin="probe")
    assert res.length == MIN_RESOLUTION_LENGTH
    w = OrientationChar.trivial(z2)
    h3 = group_homology(z2, w, 3, resolution=res)
    assert h3.invariant_factors() == (0, (2,))


def test_resolution_length_gate():
    z2 = cyclic_group(2)
    doc = z2_resolution_doc(length=3)
    with pytest.raises(ParseError, match="must reach degree 5"):
        parse_resolution(doc, z2, origin="probe")


def test_resolution_shape_errors():
    z2 = cyclic_group(2)
    good = z2_resolution_doc()
    with pytest.raises(ParseError, match="nonempty list"):
        parse_resolution({"ranks": [], "boundaries": []}, z2, origin="probe")
    with pytest.raises(ParseError, match="ranks must be nonnegative"):
        parse_resolution({"ranks": [1, -1], "boundaries": [[[[0, 0]]]]},
                         z2, origin="probe")
    short = {"ranks": good["ranks"], "boundaries": good["boundaries"][:-1]}
    with pytest.raises(ParseError, match="expected 5"):
        parse_resolution(short, z2, origin="probe")
    wide = {"ranks": good["ranks"],
            "boundaries": [[[[1, 0, 0]]] if k == 0 else b
                           for k, b in enumerate(good["boundaries"])]}
    with pytest.raises(ParseError, match="coefficient vector of length 2"):
        parse_resolution(wide, z2, origin="probe")


def test_resolution_corrupt_entries_fail_validation():
    z2 = cyclic_group(2)
    # Breaking one boundary coefficient destroys d.d = 0 or exactness; the
    # loader reports it as a parse failure wrapping the validation message.
    doc = z2_resolution_doc()
    doc["boundaries"][2][0][0] = [1, 0]
    with pytest.raises(ParseError, match="invalid resolution"):
        parse_resolution(doc, z2, origin="probe")


# -- input resolution ---------------------------------------------------------


def test_resolve_input_prefers_existing_files(tmp_path, monkeypatch):
    # A file literally named like a bundled input shadows the bundled copy.
    (tmp_path / "z2").write_text(json.dumps(z2_group_doc()),
                                 encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert resolve_input("group", "z2") == "z2"


def test_resolve_input_falls_back_to_bundled_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = resolve_input("group", "z2")
    assert path.endswith("group_z2.json")
    group, _ = load_group(path)
    assert group.order == 2
    for kind in ("group", "module", "form"):
        for name in bundled_names(kind):
            path = resolve_input(kind, name)
            assert path == bundled_path(kind, name)
            assert Path(path).name == f"{kind}_{name}.json"
            assert Path(path).is_file()


def test_resolve_input_unknown_name_lists_choices():
    with pytest.raises(ParseError) as info:
        resolve_input("form", "nonesuch")
    message = str(info.value)
    assert "bundled form" in message
    assert "rp4cp2" in message and "z2_hyperbolic" in message


@pytest.mark.parametrize("value", [
    "nonesuch", "", ".", "..", "../z2", "../data/group_z2", "z2/../z2",
    "data/group_z2", "/z2",
])
def test_resolve_input_refuses_unknown_and_path_like_names(
        tmp_path, monkeypatch, value):
    # A path-like value is never joined onto the data directory, and every
    # refusal lists the bundled names.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ParseError) as info:
        resolve_input("group", value)
    assert str(info.value) == (
        f"'{value}' is neither a readable file nor a bundled group name; "
        f"bundled groups: {', '.join(bundled_names('group'))}")


# -- reuse of loaded texts ----------------------------------------------------


def module_doc(ngens=2, swap=True):
    """Z^ngens over Z/2, the generator swapping the first two basis vectors
    when ``swap`` holds and acting trivially otherwise."""
    identity = [[int(i == j) for j in range(ngens)] for i in range(ngens)]
    action = [row[:] for row in identity]
    if swap:
        action[0], action[1] = action[1], action[0]
    return {"ngens": ngens, "relations": [],
            "action": {"0": identity, "1": action}}


def refusal(load):
    with pytest.raises(ParseError) as info:
        load()
    return str(info.value)


def test_same_text_gives_the_same_objects(tmp_path):
    group_path = write_json(tmp_path, "g.json", z2_group_doc())
    copy_path = write_json(tmp_path, "g_copy.json", z2_group_doc())
    group, chars = load_group(group_path)
    again, again_chars = load_group(group_path)
    assert again is group and again_chars["w"] is chars["w"]
    assert load_group(copy_path)[0] is group
    module_path = write_json(tmp_path, "m.json", module_doc())
    module = load_module(module_path, group)
    assert load_module(module_path, group) is module
    assert module.group is group


def test_each_load_gets_its_own_characters(tmp_path):
    path = write_json(tmp_path, "g.json", z2_group_doc())
    _, chars = load_group(path)
    del chars["w"]
    chars["extra"] = chars["trivial"]
    _, fresh = load_group(path)
    assert sorted(fresh) == ["trivial", "w"]


def test_rewritten_file_is_parsed_again(tmp_path):
    path = write_json(tmp_path, "g.json", z2_group_doc())
    z2, _ = load_group(path)
    write_json(tmp_path, "g.json", {"order": 1, "table": [[0]]})
    trivial, chars = load_group(path)
    assert trivial is not z2 and trivial.order == 1
    assert sorted(chars) == ["trivial"]
    module_path = write_json(tmp_path, "m.json", module_doc(swap=True))
    swapped = load_module(module_path, z2)
    write_json(tmp_path, "m.json", module_doc(swap=False))
    fixed = load_module(module_path, z2)
    assert fixed is not swapped and fixed.act(1, [1, 0]) == [1, 0]


def test_rewritten_to_malformed_text_is_refused_as_cold(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(z2_group_doc()), encoding="utf-8")
    load_group(str(path))
    path.write_text('{"order": 2, "table": [[0, 1]', encoding="utf-8")
    warm = refusal(lambda: load_group(str(path)))
    serialize._parsed.cache_clear()
    assert refusal(lambda: load_group(str(path))) == warm
    assert "not valid structured text" in warm


def test_malformed_file_is_refused_every_time(tmp_path):
    group, _ = load_group(write_json(tmp_path, "g.json", z2_group_doc()))
    bad_group = write_json(tmp_path, "bad_g.json", {"table": [[0]]})
    first = refusal(lambda: load_group(bad_group))
    assert refusal(lambda: load_group(bad_group)) == first
    assert first.startswith(bad_group)
    doc = module_doc()
    doc["action"].pop("1")
    bad_module = write_json(tmp_path, "bad_m.json", doc)
    first = refusal(lambda: load_module(bad_module, group))
    assert refusal(lambda: load_module(bad_module, group)) == first
    # The same text at another path is refused under that path.
    other = write_json(tmp_path, "bad_m2.json", doc)
    assert refusal(lambda: load_module(other, group)) == first.replace(
        bad_module, other)
    # A semantic failure is not kept either.
    twisted = module_doc()
    twisted["action"]["1"] = [[0, 1], [1, 1]]
    path = write_json(tmp_path, "twisted.json", twisted)
    for _ in range(2):
        with pytest.raises(IncompatibleInputError,
                           match="not multiplicative|does not preserve"):
            load_module(path, group)


def test_same_module_text_over_two_groups(tmp_path):
    first, _ = load_group(write_json(tmp_path, "g.json", z2_group_doc()))
    second, _ = parse_group(z2_group_doc())
    path = write_json(tmp_path, "m.json", module_doc())
    a, b = load_module(path, first), load_module(path, second)
    assert a is not b
    assert a.group is first and b.group is second


def test_kept_texts_are_bounded(tmp_path):
    for k in range(LOADED_TEXTS + 6):
        group, _ = load_group(write_json(
            tmp_path, f"g{k}.json", {"order": 1, "table": [[0]],
                                     "labels": [f"e{k}"]}))
        load_module(write_json(tmp_path, f"m{k}.json", {
            "ngens": 1, "relations": [[k + 2]], "action": {"0": [[1]]}}),
            group)
    assert serialize._parsed.cache_info().currsize <= LOADED_TEXTS
