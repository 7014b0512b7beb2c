"""Loading groups, presentations, modules, forms, and resolutions from
structured text files, plus access to the bundled example inputs.

Every loader validates the document shape first and raises
:class:`~gammalab.errors.ParseError` naming the file and the offending
field; semantic validation (group axioms, action well-definedness,
resolution exactness) then runs through the same constructors the rest of
the library uses.
"""

from __future__ import annotations

import functools
import json
import os
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import AbelianPresentation
from .classify import HermitianForm
from .errors import GammaLabError, ParseError
from .groups import FiniteGroup, OrientationChar, build_group
from .intmat import IntMatrix
from .modules import ZPiModule, free_module, signed_permutation_table
from .resolutions import Resolution

__all__ = [
    "load_document",
    "parse_group",
    "parse_presentation",
    "parse_module",
    "parse_form",
    "parse_resolution",
    "load_group",
    "load_presentation",
    "load_module",
    "load_form",
    "load_resolution",
    "bundled_names",
    "bundled_path",
    "resolve_input",
    "MIN_RESOLUTION_LENGTH",
    "LOADED_TEXTS",
]

MIN_RESOLUTION_LENGTH = 5


class _FileText(str):
    """A file's text, equal to and hashed as the text alone; ``path`` names
    the file in the messages of a failed parse."""
    path: str


def _read_text(path: str) -> _FileText:
    """The whole text of a file, with diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = _FileText(handle.read())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text (byte {exc.start}): "
                         f"{exc.reason}") from exc
    text.path = path
    return text


def _decode_document(text: str, path: str) -> dict:
    """The mapping a file's ``text`` holds; diagnostics name ``path``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: not valid structured text (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: lists or mappings nested too deeply to "
                         "read") from exc
    except ValueError as exc:
        # The interpreter refuses to convert integers of too many digits.
        raise ParseError(f"{path}: cannot read a number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping, "
                         f"not {type(doc).__name__}")
    return doc


def load_document(path: str) -> dict:
    """Read a structured text file into a mapping, with diagnostics."""
    return _decode_document(_read_text(path), path)


def _require(doc: dict, field: str, origin: str):
    if field not in doc:
        raise ParseError(f"{origin}: missing required field '{field}'")
    return doc[field]


def _as_int(value, origin: str, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{origin}: field '{field}' must be an integer, "
                         f"got {value!r}")
    return value


def _int_row(row: list, origin: str, field: str) -> list:
    """``row`` once every entry is exactly an ``int``; :func:`_as_int`
    names the first entry that is not an integer."""
    if list(map(type, row)).count(int) != len(row):
        for entry in row:
            _as_int(entry, origin, field)
    return row


def _int_rows(value, origin: str, field: str,
              width: Optional[int] = None) -> List[List[int]]:
    if not isinstance(value, list):
        raise ParseError(f"{origin}: field '{field}' must be a list of rows")
    for index, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError(
                f"{origin}: field '{field}' row {index} is not a list")
        if width is not None and len(row) != width:
            raise ParseError(
                f"{origin}: field '{field}' row {index} has length "
                f"{len(row)}; expected {width}")
        _int_row(row, origin, f"{field}[{index}]")
    return value


def _ring_matrix(value, shape: Tuple[int, int], order: int, origin: str,
                 name: str, outer: str,
                 entry_field: Callable[[int, int], str]) -> List[List[tuple]]:
    """A matrix over the group ring: ``shape[0]`` rows of ``shape[1]``
    entries, each a coefficient vector of ``order`` integers.  ``outer`` is
    the error for a value that is not a list of that many rows, ``name``
    opens the row and entry errors, and ``entry_field(i, j)`` names the
    field of entry ``(i, j)`` when it holds a value that is not an
    integer."""
    nrows, ncols = shape
    if not isinstance(value, list) or len(value) != nrows:
        raise ParseError(f"{origin}: {outer}")
    matrix = []
    for i, raw_row in enumerate(value):
        if not isinstance(raw_row, list) or len(raw_row) != ncols:
            raise ParseError(
                f"{origin}: {name} row {i} must have {ncols} entries")
        row = []
        for j, raw_entry in enumerate(raw_row):
            if not isinstance(raw_entry, list) or len(raw_entry) != order:
                raise ParseError(
                    f"{origin}: {name} entry ({i}, {j}) must be a "
                    f"coefficient vector of length {order}")
            row.append(tuple(_int_row(raw_entry, origin, entry_field(i, j))))
        matrix.append(row)
    return matrix


def parse_group(doc: dict, origin: str = "<group>") \
        -> Tuple[FiniteGroup, Dict[str, OrientationChar]]:
    """Build a validated group and its named orientation characters.

    The character named ``trivial`` is always available, whether or not the
    document lists it.
    """
    order = _as_int(_require(doc, "order", origin), origin, "order")
    if order < 1:
        raise ParseError(f"{origin}: order must be at least 1, got {order}")
    table = _int_rows(_require(doc, "table", origin), origin, "table",
                      width=order)
    if len(table) != order:
        raise ParseError(f"{origin}: table has {len(table)} rows; "
                         f"expected {order}")
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list)
                or not all(isinstance(l, str) for l in labels)):
            raise ParseError(f"{origin}: field 'labels' must be a list of "
                             "strings")
        if len(labels) != order:
            raise ParseError(f"{origin}: {len(labels)} labels for order "
                             f"{order}")
    group = build_group(table, labels)
    characters: Dict[str, OrientationChar] = {
        "trivial": OrientationChar.trivial(group)}
    raw_chars = doc.get("characters", {})
    if not isinstance(raw_chars, dict):
        raise ParseError(f"{origin}: field 'characters' must map names to "
                         "sign vectors")
    for name, values in raw_chars.items():
        if not isinstance(values, list) or len(values) != order:
            raise ParseError(
                f"{origin}: character '{name}' must be a list of {order} "
                "signs")
        characters[name] = OrientationChar(
            group, _int_row(values, origin, f"characters['{name}']"))
    return group, characters


def parse_presentation(doc: dict,
                       origin: str = "<presentation>") -> AbelianPresentation:
    ngens = _as_int(_require(doc, "ngens", origin), origin, "ngens")
    if ngens < 0:
        raise ParseError(f"{origin}: ngens must be nonnegative, got {ngens}")
    relations = _int_rows(doc.get("relations", []), origin, "relations",
                          width=ngens)
    return AbelianPresentation.from_relation_rows(ngens, relations)


def parse_module(doc: dict, group: FiniteGroup,
                 origin: str = "<module>") -> ZPiModule:
    """A module file pairs a presentation with one action matrix per group
    element, keyed by the element index.  A signed-permutation action is
    kept as its table, read off the rows; its matrices are built on first
    read of ``action``.

    A file with no relations whose table is that of the standard free
    layout is :func:`~gammalab.modules.free_module`'s module, which is
    valid by construction: it is returned as such, with its free rank and
    with no check.  Every other module is checked here, once; a module
    records that it passed, so nothing checks it again."""
    underlying = parse_presentation(doc, origin)
    n = underlying.ngens
    raw_action = _require(doc, "action", origin)
    if not isinstance(raw_action, dict):
        raise ParseError(f"{origin}: field 'action' must map element "
                         "indices to matrices")
    expected = {str(g) for g in range(group.order)}
    got = set(raw_action)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"missing indices {missing}")
        if extra:
            detail.append(f"unknown indices {extra}")
        raise ParseError(f"{origin}: field 'action' must have one entry per "
                         f"group element 0..{group.order - 1}: "
                         + "; ".join(detail))
    action = []
    for g in range(group.order):
        rows = _int_rows(raw_action[str(g)], origin, f"action['{g}']",
                         width=n)
        if len(rows) != n:
            raise ParseError(
                f"{origin}: action['{g}'] has {len(rows)} rows; expected {n}")
        action.append(rows)
    table = signed_permutation_table(action)
    if table is None:
        return ZPiModule(group, underlying, [IntMatrix.from_rows(rows, cols=n)
                                             for rows in action])
    if not underlying.has_explicit_relations() and n % group.order == 0:
        free = free_module(group, n // group.order)
        if table == free.table:
            # Zero relation rows, if the file has any, stay: the estimate
            # of ``tor_one`` counts them.
            free.underlying = underlying
            return free
    return ZPiModule(group, underlying, table=table)


def parse_form(doc: dict, group: FiniteGroup, w: OrientationChar,
               origin: str = "<form>") -> HermitianForm:
    rank = _as_int(_require(doc, "rank", origin), origin, "rank")
    if rank < 0:
        raise ParseError(f"{origin}: rank must be nonnegative, got {rank}")
    rows = _ring_matrix(_require(doc, "matrix", origin), (rank, rank),
                        group.order, origin, "matrix",
                        f"field 'matrix' must be a list of {rank} rows",
                        lambda i, j: f"matrix[{i}][{j}]")
    return HermitianForm.from_coefficients(group, w, rows)


def parse_resolution(doc: dict, group: FiniteGroup,
                     origin: str = "<resolution>") -> Resolution:
    """A stored resolution lists free ranks and one boundary matrix per
    degree, entries being group-ring coefficient vectors.  Files must be
    long enough for every supported homology degree, and are fully
    validated (boundaries compose to zero, the complex resolves the
    integers exactly)."""
    raw_ranks = _require(doc, "ranks", origin)
    if not isinstance(raw_ranks, list) or not raw_ranks:
        raise ParseError(f"{origin}: field 'ranks' must be a nonempty list")
    ranks = [_as_int(r, origin, "ranks") for r in raw_ranks]
    if any(r < 0 for r in ranks):
        raise ParseError(f"{origin}: ranks must be nonnegative")
    raw_bounds = _require(doc, "boundaries", origin)
    if not isinstance(raw_bounds, list):
        raise ParseError(f"{origin}: field 'boundaries' must be a list")
    if len(raw_bounds) != len(ranks) - 1:
        raise ParseError(
            f"{origin}: {len(raw_bounds)} boundary matrices for "
            f"{len(ranks)} ranks; expected {len(ranks) - 1}")
    if len(raw_bounds) < MIN_RESOLUTION_LENGTH:
        raise ParseError(
            f"{origin}: resolution files must reach degree "
            f"{MIN_RESOLUTION_LENGTH} (got length {len(raw_bounds)}) so "
            "every supported homology degree is computable")
    differentials = []
    for k, raw_matrix in enumerate(raw_bounds, start=1):
        name = f"boundary {k}"
        differentials.append(_ring_matrix(
            raw_matrix, (ranks[k - 1], ranks[k]), group.order, origin, name,
            f"{name} must have {ranks[k - 1]} rows", lambda i, j: name))
    resolution = Resolution(group, ranks, differentials)
    try:
        resolution.validate()
    except GammaLabError as exc:
        raise ParseError(f"{origin}: invalid resolution: {exc}") from exc
    return resolution


# Texts of group and module files kept per process: more than a census
# run fixes (the benchmark's holds 9 groups and 21 modules), few enough that
# a process meeting many files keeps little, one text and its objects each.
LOADED_TEXTS = 64


@functools.lru_cache(maxsize=LOADED_TEXTS)
def _parsed(text: _FileText, parse: Callable, *context):
    """``parse`` of the document in ``text`` over ``context``, once per
    text and context; a failed parse is not kept."""
    return parse(_decode_document(text, text.path), *context,
                 origin=text.path)


def load_group(path: str) -> Tuple[FiniteGroup, Dict[str, OrientationChar]]:
    """The group in the file at ``path`` and its named characters.  The
    file is read on every call; a text already loaded gives back the same,
    already checked, objects (the characters in a new dict).  A failure is
    not kept, so a bad file fails the same way every time."""
    group, characters = _parsed(_read_text(path), parse_group)
    return group, dict(characters)


def load_presentation(path: str) -> AbelianPresentation:
    return parse_presentation(load_document(path), origin=path)


def load_module(path: str, group: FiniteGroup) -> ZPiModule:
    """The module over ``group`` in the file at ``path``, kept as in
    :func:`load_group`, per text and group object."""
    return _parsed(_read_text(path), parse_module, group)


def load_form(path: str, group: FiniteGroup,
              w: OrientationChar) -> HermitianForm:
    return parse_form(load_document(path), group, w, origin=path)


def load_resolution(path: str, group: FiniteGroup) -> Resolution:
    return parse_resolution(load_document(path), group, origin=path)


# A plain string: every lookup below goes through os.path, with no path
# objects built per query.
_DATA_DIR = str(resources.files("gammalab") / "data")


_PREFIXES = {"group": "group_", "module": "module_", "form": "form_"}


def bundled_names(kind: str) -> List[str]:
    """Names of bundled inputs of a kind: 'group', 'module', or 'form'."""
    prefix = _PREFIXES[kind]
    names = []
    for name in os.listdir(_DATA_DIR):
        if name.startswith(prefix) and name.endswith(".json"):
            names.append(name[len(prefix):-len(".json")])
    return sorted(names)


def bundled_path(kind: str, name: str) -> str:
    return os.path.join(_DATA_DIR, f"{_PREFIXES[kind]}{name}.json")


def resolve_input(kind: str, value: str) -> str:
    """Interpret a command-line input as a file path or a bundled name.

    An existing file wins; otherwise the value is looked up among the
    bundled inputs of the given kind, as the file :func:`bundled_path`
    names.  Only a plain name, one that is its own base name and is not
    ``.`` or ``..``, is joined onto the data directory; a value with a path
    separator never is.  Both lookups work on strings, with
    :func:`os.path.isfile`, and the data directory is listed only for the
    error message.
    """
    if os.path.isfile(value):
        return value
    if os.path.basename(value) == value and value not in (".", ".."):
        path = bundled_path(kind, value)
        if os.path.isfile(path):
            return path
    names = bundled_names(kind)
    raise ParseError(
        f"'{value}' is neither a readable file nor a bundled {kind} name; "
        f"bundled {kind}s: {', '.join(names)}")
