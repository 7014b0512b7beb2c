"""Command-line front end.

Subcommands: ``gamma`` (functor value of a presented abelian group),
``coinvariants`` and ``tor1`` (twisted coinvariants of a module and their
first derived functor), ``homology`` (twisted group homology up to degree
four), ``census`` (counting report for a module, optionally with a form),
``orbit`` (homology classes up to sign and automorphisms), and
``verify-paper`` (the built-in known-value suite).

Exit codes: 0 on success, 1 when a computation hits a limit or a
verification mismatch, 2 on usage or input errors.  The ``structured``
output format emits one sorted-key document per run and is byte-stable for
identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

from .abelian import AbelianPresentation
from .classify import (QuadraticTwoType, census, module_census)
from .errors import (GammaLabError, GroupValidationError,
                     IncompatibleInputError, ParseError, UnsupportedInputError)
from .gamma import basis_labels, quadratic_value
from .golden import run_golden_suite
from .homology import MAX_DEGREE, group_homology, homology_orbits
from .modules import tor_one, twisted_coinvariants
from .resolutions import DEFAULT_BUDGET
from .serialize import (load_document, load_group, load_module, load_form,
                        load_resolution, parse_presentation, resolve_input)

__all__ = ["main", "build_parser"]

SCHEMA = "gammalab-report/1"
BUDGET_ENV = "GAMMALAB_BUDGET"


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="gammalab",
        description="Exact computations with quadratic functor values, "
                    "twisted coinvariants, group homology, and hermitian "
                    "forms over group rings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "structured"),
                        default="table",
                        help="output style: human-readable table or a "
                             "stable structured document")
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=None,
                          help="work limit for resolution-based "
                               f"computations (default {DEFAULT_BUDGET}; "
                               f"the {BUDGET_ENV} environment variable "
                               "overrides the default)")
    budgeted.add_argument("--resolution", choices=("auto", "bar", "cyclic"),
                          default="auto", help="resolution provider")
    grouped = argparse.ArgumentParser(add_help=False)
    grouped.add_argument("--group", required=True,
                         help="group file path or bundled group name")
    grouped.add_argument("--character", default="trivial",
                         help="orientation character name from the group "
                              "file (default: trivial)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser(
        "gamma", parents=[common],
        help="functor value of a presented abelian group")
    p_gamma.add_argument("presentation",
                         help="abelian presentation file "
                              '({"ngens": n, "relations": [[...]]})')
    p_gamma.set_defaults(func=cmd_gamma)

    p_coinv = sub.add_parser(
        "coinvariants", parents=[common, grouped],
        help="twisted coinvariants of a module")
    p_coinv.add_argument("--module", required=True,
                         help="module file path or bundled module name")
    p_coinv.set_defaults(func=cmd_coinvariants)

    p_tor = sub.add_parser(
        "tor1", parents=[common, grouped],
        help="first derived functor of twisted coinvariants")
    p_tor.add_argument("--module", required=True,
                       help="module file path or bundled module name")
    p_tor.set_defaults(func=cmd_tor1)

    p_hom = sub.add_parser(
        "homology", parents=[common, grouped, budgeted],
        help="twisted group homology in one degree")
    p_hom.add_argument("--degree", type=int, required=True,
                       help=f"homology degree (0..{MAX_DEGREE})")
    p_hom.add_argument("--resolution-file", default=None,
                       help="stored resolution file to read in place of a "
                            "provider")
    p_hom.set_defaults(func=cmd_homology)

    p_census = sub.add_parser(
        "census", parents=[common, grouped],
        help="counting report for a module, optionally with a form")
    p_census.add_argument("--module", required=True,
                          help="module file path or bundled module name")
    p_census.add_argument("--form", default=None,
                          help="form file path or bundled form name "
                               "(needs a module free over the group ring)")
    p_census.set_defaults(func=cmd_census)

    p_orbit = sub.add_parser(
        "orbit", parents=[common, grouped, budgeted],
        help="homology torsion classes up to sign and automorphisms")
    p_orbit.add_argument("--degree", type=int, required=True,
                         help=f"homology degree (0..{MAX_DEGREE})")
    p_orbit.set_defaults(func=cmd_orbit)

    p_verify = sub.add_parser(
        "verify-paper", parents=[common],
        help="run the built-in known-value suite")
    p_verify.set_defaults(func=cmd_verify_paper)

    return parser, sub.choices


def _resolve_budget(args) -> int:
    budget = getattr(args, "budget", None)
    if budget is None:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise ParseError(
                f"environment variable {BUDGET_ENV}={raw!r} is not an "
                "integer")
    if budget <= 0:
        raise ParseError(f"budget must be positive, got {budget}")
    return budget


def _load_group_and_character(args):
    path = resolve_input("group", args.group)
    group, characters = load_group(path)
    if args.character not in characters:
        raise ParseError(
            f"{path}: no character named '{args.character}'; available: "
            + ", ".join(sorted(characters)))
    return group, characters[args.character]


def _presentation_doc(value) -> Dict:
    """Invariants of an abelian presentation or a functor value."""
    rank, torsion = value.invariant_factors()
    return {"rank": rank, "torsion": list(torsion),
            "description": value.describe()}


def _structured(value, level: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value at depth
    ``level``, written in one pass.

    Values of exact type ``int`` and ``str``, ``True``, ``False``,
    ``None``, lists, tuples and dicts with string keys are written here, an
    all-``int`` list in one join; anything else goes to :func:`json.dumps`,
    whose newlines then take the indent of ``level`` (strings escape
    theirs).  An ``int`` too long to write raises the same ``ValueError``
    as there.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    outer = "\n" + "  " * level
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = ",\n" + "  " * (level + 1)
        if set(map(type, value)) == {int}:
            body = inner.join(map(str, value))
        else:
            body = inner.join([_structured(x, level + 1) for x in value])
        return "[" + inner[1:] + body + outer + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        inner = ",\n" + "  " * (level + 1)
        body = inner.join([encode_basestring_ascii(k) + ": "
                           + _structured(value[k], level + 1)
                           for k in sorted(value)])
        return "{" + inner[1:] + body + outer + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", outer)


def _emit(args, table_lines: List[str], doc: Dict) -> None:
    if args.format == "structured":
        doc = dict(doc)
        doc["schema"] = SCHEMA
        doc["command"] = args.command
        print(_structured(doc))
    else:
        for line in table_lines:
            print(line)


def cmd_gamma(args) -> int:
    doc_in = load_document(args.presentation)
    pres = parse_presentation(doc_in, origin=args.presentation)
    value = quadratic_value(pres, budget=_resolve_budget(args))
    lines = [f"Gamma = {value.describe()}"]
    basis: Optional[List[str]] = None
    if not pres.has_explicit_relations():
        basis = basis_labels(pres.ngens)
        lines.append("free input; value basis: "
                     + (", ".join(basis) if basis else "(empty)"))
    _emit(args, lines, {
        "input": {"ngens": pres.ngens,
                  "relations": [list(r) for r in doc_in.get("relations", [])]},
        "gamma": _presentation_doc(value),
        "basis": basis,
    })
    return 0


def _load_module_for(args, group):
    return load_module(resolve_input("module", args.module), group)


def cmd_coinvariants(args) -> int:
    group, w = _load_group_and_character(args)
    module = _load_module_for(args, group)
    result = twisted_coinvariants(module, w, budget=_resolve_budget(args))
    torsion = AbelianPresentation.from_factors(0, result.presentation.torsion)
    lines = [
        f"coinvariants = {result.presentation.describe()}",
        f"torsion subgroup = {torsion.describe()}",
    ]
    _emit(args, lines, {
        "coinvariants": _presentation_doc(result.presentation),
        "torsion": _presentation_doc(torsion),
    })
    return 0


def cmd_tor1(args) -> int:
    group, w = _load_group_and_character(args)
    module = _load_module_for(args, group)
    result = tor_one(module, w, budget=_resolve_budget(args))
    _emit(args, [f"tor1 = {result.describe()}"],
          {"tor1": _presentation_doc(result)})
    return 0


def cmd_homology(args) -> int:
    if args.resolution_file is not None and args.resolution != "auto":
        raise ParseError(f"--resolution {args.resolution} picks a provider; "
                         "drop it to read --resolution-file")
    group, w = _load_group_and_character(args)
    budget = _resolve_budget(args)
    stored = None
    if args.resolution_file is not None:
        stored = load_resolution(args.resolution_file, group)
    pres = group_homology(group, w, args.degree, provider=args.resolution,
                          budget=budget, resolution=stored)
    _emit(args, [f"H_{args.degree} = {pres.describe()}"],
          {"degree": args.degree, "homology": _presentation_doc(pres)})
    return 0


def _census_table(report) -> List[str]:
    def yesno(flag):
        return "yes" if flag else "no"

    lines = [
        f"group order = {report.group_order}",
        "module free rank over the group ring = "
        + (str(report.free_rank) if report.free_rank is not None
           else "not recognized as free"),
        f"coinvariants = {report.coinvariants.describe()}",
        f"torsion = {report.torsion.describe()}",
        f"count = {report.count}",
        f"involutions with sign -1: r = {report.involution_rank}",
        "torsion matches (Z/2)^(r k) prediction: "
        + (yesno(report.torsion_matches_involution_formula)
           if report.torsion_matches_involution_formula is not None
           else "not applicable"),
        f"norm-quotient coinvariants = "
        f"{report.norm_quotient_coinvariants.describe()} "
        f"(cyclic of group order: "
        f"{yesno(report.norm_quotient_is_cyclic_of_group_order)})",
        "norm-quotient first derived functor trivial: "
        + yesno(report.norm_quotient_tor_trivial),
    ]
    if report.lambda_class is None:
        lines.append("form: not supplied")
    else:
        lines.append(f"form class in coinvariants = {report.lambda_class} "
                     f"(primitive modulo torsion: "
                     f"{yesno(report.lambda_primitive)})")
        if report.kappa_functional is None:
            lines.append("splitting functional: absent")
        else:
            lines.append(
                f"splitting functional: {report.kappa_functional}")
    return lines


def _census_doc(report) -> Dict:
    doc = {
        "group_order": report.group_order,
        "free_rank": report.free_rank,
        "coinvariants": _presentation_doc(report.coinvariants),
        "torsion": _presentation_doc(report.torsion),
        "count": report.count,
        "involution_rank": report.involution_rank,
        "torsion_matches_involution_formula":
            report.torsion_matches_involution_formula,
        "norm_quotient": {
            "coinvariants":
                _presentation_doc(report.norm_quotient_coinvariants),
            "cyclic_of_group_order":
                report.norm_quotient_is_cyclic_of_group_order,
            "tor1_trivial": report.norm_quotient_tor_trivial,
        },
        "lambda_class": report.lambda_class,
        "lambda_primitive": report.lambda_primitive,
        "kappa_functional": report.kappa_functional,
    }
    if report.form_matrix is not None:
        doc["form_matrix"] = [[list(entry.coeffs) for entry in row]
                              for row in report.form_matrix]
    return doc


def cmd_census(args) -> int:
    group, w = _load_group_and_character(args)
    module = _load_module_for(args, group)
    if args.form is not None:
        form = load_form(resolve_input("form", args.form), group, w)
        if module.zpi_free_rank is None:
            raise UnsupportedInputError(
                "a form needs a module free over the group ring; run "
                "without --form for a module-only report")
        q = QuadraticTwoType(group, w, module, form)
        report = census(q, budget=_resolve_budget(args))
    else:
        report = module_census(group, w, module, budget=_resolve_budget(args))
    # Only the format that is printed is built.
    if args.format == "structured":
        _emit(args, [], _census_doc(report))
    else:
        _emit(args, _census_table(report), {})
    return 0


def cmd_orbit(args) -> int:
    group, w = _load_group_and_character(args)
    report = homology_orbits(group, w, args.degree, provider=args.resolution,
                             budget=_resolve_budget(args))
    lines = [
        f"H_{args.degree} = {report.presentation.describe()}",
        f"free rank (identified only up to sign) = {report.free_rank}",
        f"character-preserving automorphisms = "
        f"{report.automorphism_count}",
        f"torsion classes up to sign and automorphisms = "
        f"{report.orbit_count}",
    ]
    for index, (rep, size) in enumerate(report.orbits, start=1):
        lines.append(f"  orbit {index}: representative {list(rep)}, "
                     f"size {size}")
    _emit(args, lines, {
        "degree": args.degree,
        "homology": _presentation_doc(report.presentation),
        "free_rank": report.free_rank,
        "automorphism_count": report.automorphism_count,
        "orbit_count": report.orbit_count,
        "orbits": [{"representative": list(rep), "size": size}
                   for rep, size in report.orbits],
    })
    return 0


def cmd_verify_paper(args) -> int:
    checks = run_golden_suite()
    lines = []
    for check in checks:
        if check.passed:
            lines.append(f"[PASS] {check.label}")
        else:
            lines.append(f"[FAIL] {check.label}: expected "
                         f"{check.expected!r}, computed {check.computed!r}")
    passed = sum(1 for c in checks if c.passed)
    lines.append(f"{passed}/{len(checks)} checks passed")
    _emit(args, lines, {
        "checks": [{"label": c.label, "expected": c.expected,
                    "computed": c.computed, "passed": c.passed}
                   for c in checks],
        "passed": passed,
        "total": len(checks),
    })
    return 0 if passed == len(checks) else 1


@functools.cache
def _shared_parsers():
    """:func:`_build_parsers` once per process; parsing leaves them
    unchanged."""
    return _build_parsers()


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with argv that starts with a
    subcommand read by that subcommand's parser alone.

    The top-level parser would hand such argv to the same parser, so help
    and error texts are unchanged: what that parser leaves over is refused
    by the top-level parser, as there.  Any other argv (empty, an option
    first, an unknown command) goes through the top-level parser."""
    parser, commands = _shared_parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; pass through.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, GroupValidationError, UnsupportedInputError,
            IncompatibleInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GammaLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # The interpreter refuses to write an integer longer than its limit
        # as text.  Inputs that long are refused on load, so here it is an
        # answer that grew past the limit while being printed.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the answer holds an integer of more than "
              f"{sys.get_int_max_str_digits()} digits, the longest the "
              "interpreter writes as text", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
