"""Spans and counters recorded around calls into gammalab's layers.

The program itself is not changed.  :meth:`Tracer.install` swaps each
public function or method listed in :data:`TARGETS` for a wrapper that
records a span, and :meth:`Tracer.close` puts the originals back.  A span
is ``[name, start, end, parent, query, child_time]``; ``parent`` indexes
the enclosing span (or -1) and ``child_time`` sums the durations of its
direct children, so a span's self time is ``end - start - child_time``.
The first dotted part of a span name is its layer, which is one of the
package's modules.

Work a wrapper does after the call returns (scanning a result for its
largest entry, hashing a key) is charged to no layer: it is added to the
parent's ``child_time``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from gammalab.resolutions import resolution_cost

LAYERS = ("cli", "serialize", "classify", "homology", "resolutions",
          "modules", "gamma", "abelian", "groups", "intmat")

# (span name, module, attribute path).  An attribute path with a dot names a
# method on a class in that module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "cli", "main"),
    ("serialize.resolve_input", "serialize", "resolve_input"),
    ("serialize.load_document", "serialize", "load_document"),
    ("serialize.load_group", "serialize", "load_group"),
    ("serialize.load_module", "serialize", "load_module"),
    ("serialize.load_form", "serialize", "load_form"),
    ("classify.census", "classify", "census"),
    ("classify.module_census", "classify", "module_census"),
    ("classify.check_hermitian", "classify", "check_hermitian"),
    ("classify.lambda_to_gamma", "classify", "lambda_to_gamma"),
    ("classify.involution_rank_formula", "classify", "involution_rank_formula"),
    ("homology.group_homology", "homology", "group_homology"),
    ("homology.homology_orbits", "homology", "homology_orbits"),
    ("homology.induced_homology_maps", "homology", "induced_homology_maps"),
    ("homology.homology_with_basis", "homology", "homology_with_basis"),
    ("resolutions.build", "resolutions", "chain_resolution"),
    ("resolutions.build", "resolutions", "periodic_resolution"),
    ("resolutions.twist", "resolutions", "Resolution.twisted_matrix"),
    ("modules.coinvariants", "modules", "twisted_coinvariants"),
    ("modules.tor_one", "modules", "tor_one"),
    ("modules.norm_quotient_module", "modules", "norm_quotient_module"),
    ("modules.free_module", "modules", "free_module"),
    ("modules.module_from_action", "modules", "module_from_action"),
    ("gamma.quadratic_value", "gamma", "quadratic_value"),
    ("gamma.quadratic_module", "gamma", "quadratic_module"),
    ("abelian.invariant_factors", "abelian", "AbelianPresentation.invariant_factors"),
    ("abelian.torsion_part", "abelian", "AbelianPresentation.torsion_part"),
    ("abelian.functional_hitting_one", "abelian",
     "AbelianPresentation.functional_hitting_one"),
    ("abelian.is_primitive_mod_torsion", "abelian",
     "AbelianPresentation.is_primitive_mod_torsion"),
    ("abelian.kernel", "abelian", "AbelianHom.kernel"),
    ("abelian.cokernel", "abelian", "AbelianHom.cokernel"),
    ("groups.build_group", "groups", "build_group"),
    ("groups.automorphisms", "groups", "automorphisms"),
    ("groups.automorphisms", "groups", "automorphisms_preserving"),
    ("intmat.snf", "intmat", "smith_normal_form"),
    ("intmat.solve", "intmat", "SNFSolver.solve"),
    ("intmat.kernel_basis", "intmat", "kernel_basis"),
    ("intmat.lattice_basis", "intmat", "lattice_basis"),
    ("intmat.integer_inverse", "intmat", "integer_inverse"),
)


def _max_bits(mat) -> int:
    if mat is None or not mat.rows or not mat.cols:
        return 0
    hi = max(map(max, mat.data))
    lo = min(map(min, mat.data))
    return max(hi, -lo).bit_length()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_snf(tracer, fn, args, kwargs, result) -> None:
    m = _arg(args, kwargs, 0, "m")
    tracer.counts["intmat.snf.cells"] += m.rows * m.cols
    bits = max(_max_bits(result.d), _max_bits(result.u), _max_bits(result.v))
    tracer.counts["intmat.snf.max_bits"] = max(
        tracer.counts["intmat.snf.max_bits"], bits)


def _after_build(tracer, fn, args, kwargs, result) -> None:
    ranks = result.ranks
    tracer.counts["resolutions.cost_units"] += resolution_cost(
        result.group.order, ranks)
    key = (fn.__name__, tuple(map(tuple, result.group.table)), len(ranks) - 1)
    tracer.note_key("resolutions", key)


def _after_coinvariants(tracer, fn, args, kwargs, result) -> None:
    module = _arg(args, kwargs, 0, "module")
    w = _arg(args, kwargs, 1, "w")
    key = hash((tuple(map(tuple, module.group.table)), w.values,
                module.underlying.ngens,
                tuple(map(tuple, module.underlying.relations.data)),
                tuple(tuple(map(tuple, m.data)) for m in module.action)))
    tracer.note_key("modules.coinvariants", key)


def _after_load_document(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["serialize.bytes_read"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


AFTER: Dict[str, Callable] = {
    "intmat.snf": _after_snf,
    "resolutions.build": _after_build,
    "modules.coinvariants": _after_coinvariants,
    "serialize.load_document": _after_load_document,
}


class Tracer:
    """In-memory spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.seen: Dict[str, set] = defaultdict(set)
        self.repeats: Dict[str, int] = defaultdict(int)
        self.lookups: Dict[str, int] = defaultdict(int)
        self.query: Optional[int] = None
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def note_key(self, family: str, key) -> None:
        """Count one call of a keyed family, and a repeat if the key was
        already seen in this run."""
        self.lookups[family] += 1
        if key in self.seen[family]:
            self.repeats[family] += 1
        else:
            self.seen[family].add(key)

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span named ``name``."""
        tracer = self
        layer = name.split(".")[0]
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, tracer.query, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or spans[parent][0].split(".")[0] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[2] - record[1]
            if after is not None:
                start = perf_counter()
                after(tracer, fn, args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += perf_counter() - start
            return result

        return wrapper

    def run_query(self, query_id: int, fn: Callable):
        """Call ``fn`` inside a root span named ``query``; spans opened
        during the call carry ``query_id``."""
        self.query = query_id
        try:
            return self.span("query", fn)()
        finally:
            self.query = None

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        """Wrap every target; calling it again after :meth:`close` resumes
        recording into the same spans and counters."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(f"gammalab.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._swap(owner, meth, original, self.span(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.span(name, original)
            # Rebind every module-level reference, including names other
            # modules imported with ``from .x import y``.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gammalab" or mod_name.startswith("gammalab."):
                    if mod.__dict__.get(attr) is original:
                        self._swap(mod, attr, original, wrapped)

    def _swap(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _, child_time in self.spans:
            for key in (name, name.split(".")[0]):
                calls[key] += 1
                self_s[key] += end - start - child_time

        def share(family: str) -> float:
            looked_up = self.lookups[family]
            return self.repeats[family] / looked_up if looked_up else 0.0

        m: Dict[str, Tuple[float, str]] = {
            "intmat.snf.calls": (calls["intmat.snf"], "count"),
            "intmat.snf.self_s": (self_s["intmat.snf"], "s"),
            "intmat.snf.cells": (self.counts["intmat.snf.cells"], "count"),
            "intmat.snf.max_bits": (self.counts["intmat.snf.max_bits"], "bits"),
            "intmat.solve.calls": (calls["intmat.solve"], "count"),
            "intmat.solve.self_s": (self_s["intmat.solve"], "s"),
            "resolutions.build.calls": (calls["resolutions.build"], "count"),
            "resolutions.build.self_s": (self_s["resolutions.build"], "s"),
            "resolutions.cost_units": (self.counts["resolutions.cost_units"],
                                       "count"),
            "resolutions.twist.self_s": (self_s["resolutions.twist"], "s"),
            "resolutions.repeat_share": (share("resolutions"), "ratio"),
            "homology.calls": (calls["homology"], "count"),
            "homology.self_s": (self_s["homology"], "s"),
            "groups.automorphisms.self_s": (self_s["groups.automorphisms"], "s"),
        }
        for layer in ("gamma", "modules", "abelian", "classify", "serialize",
                      "cli"):
            m[f"{layer}.calls"] = (calls[layer], "count")
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        m["modules.coinvariants.repeat_share"] = (
            share("modules.coinvariants"), "ratio")
        m["serialize.bytes_read"] = (self.counts["serialize.bytes_read"], "bytes")
        for layer in LAYERS:
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        return m

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON object per line, times in seconds from ``origin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query, _ in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": round(start - origin, 7),
                    "end": round(end - origin, 7), "parent": parent,
                    "query": query}) + "\n")
