"""The three workloads and the closed loop that drives them.

Every workload is a list of queries per pass.  The benchmark's single
client issues one query, waits for the answer, checks it against an oracle
and only then issues the next (a closed loop with one client, no threads
and no subprocesses).  A pass holds the same multiset of query kinds for
every seed; the seed picks the inputs and the order, so runs with
different seeds measure the same amount of work.

Why these three (each stresses different layers):

* ``homology``: ``group_homology`` for every bundled group of order above
  one and each of its characters in degrees 0-4, plus a few
  ``homology_orbits``.  Resolution building and
  ``SNFSolver.solve`` do most of the work; ``gamma`` and ``modules`` stay
  idle.  The same resolution prefix is rebuilt for every degree.
* ``census``: ``gammalab census --format structured`` run in-process on
  generated module and form files.  Exercises ``cli``, ``serialize``,
  ``classify``, ``gamma``, ``modules``, ``abelian`` and the pivoting Smith
  normal form on relation matrices of up to 156 rows; ``resolutions``
  stays idle.  Many queries share a (group, character, rank).
* ``presentations``: ``quadratic_value(p).invariant_factors()`` on scrambled
  presentations of ``Z^r + sum Z/d_i``.  Dense matrices with coefficient
  growth; every input is distinct, so a cache predicts no change here.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, List, NamedTuple, Optional

import oracles
from gammalab import cli, gamma, homology
from gammalab.abelian import AbelianPresentation
from gammalab.classify import (HermitianForm, change_of_basis,
                               hermitian_closure,
                               random_unimodular_ring_matrix)
from gammalab.groups import GroupRingElement
from gammalab.modules import free_module
from gammalab.resolutions import chain_resolution_ranks, resolution_cost
from gammalab.serialize import load_group, resolve_input

GROUP_NAMES = ("trivial", "z2", "z3", "z4", "z6", "klein4", "s3", "d4", "q8")

# Highest degree queried with the bar (chain) provider.  Cyclic groups also
# run the periodic provider in degrees 1-4 (degree 0 reads the first
# differential only).  Order-6 groups stop at degree 3 (z6 at 2): degree 4
# would cost 30x more than degree 3.  The order-1 group is left out, as its
# homology vanishes above degree 0.  With 119 queries a pass, the 90th
# percentile falls among the six slowest order-8 H_2 queries rather than
# at the step below them.
BAR_TOP_DEGREE = {"z2": 4, "z3": 4, "z4": 4, "z6": 2, "klein4": 4, "s3": 3,
                  "d4": 2, "q8": 2}
HOMOLOGY_GROUPS = tuple(BAR_TOP_DEGREE)
ORBIT_QUERIES = tuple(sorted(oracles.FROZEN_ORBITS))


def chain_cost(order: int, length: int) -> int:
    """Work of the chain resolution of the given length, in the package's
    budget units; used as the explicit budget of every query on a group, so
    that each call is allowed exactly its group's largest query."""
    return resolution_cost(order, chain_resolution_ranks(order, length))


# Census inputs: free modules of rank 1-3 with rank * order <= 12, and two
# forms per (group, character, rank).  The bound keeps a pass of 92 queries
# near ten seconds: rank 2 over an order-8 group costs about a second a
# query through the command line, rank 3 several.
CENSUS_MAX_CELLS = 12
FORMS_PER_CASE = 2

# Presentation shapes per pass: (generators, free rank, torsion summands).
PRESENTATION_SHAPES = tuple(
    (n, r, k) for n in (6, 7, 8, 9, 10) for r in (0, 1, 2)
    for k in (2, 4, 6) if r + k <= n)
PRESENTATION_REPEATS = 3
TORSION_ORDERS = (2, 3, 4, 5, 6, 8, 9, 12)


@dataclass
class Query:
    """One request: ``call`` runs it, ``check`` returns None when the
    answer is right and a description of the mismatch otherwise."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    passes: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, other: "LoopResult") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.raised += other.raised
        self.passes += other.passes
        self.failures += other.failures


def run_pass(queries: List[Query], tracer=None, first_id: int = 0) -> LoopResult:
    """Issue every query once, in order.  A query fails when it raises or
    when its answer disagrees with the oracle; either way the loop goes on."""
    out = LoopResult(passes=1)
    for offset, q in enumerate(queries):
        out.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                answer = q.call()
            else:
                answer = tracer.run_query(first_id + offset, q.call)
        except Exception as exc:
            out.latencies.append(perf_counter() - start)
            out.failed += 1
            out.raised += 1
            out.failures.append(f"{q.label}: {type(exc).__name__}: {exc}")
            continue
        out.latencies.append(perf_counter() - start)
        problem = q.check(answer)
        if problem is not None:
            out.failed += 1
            out.failures.append(f"{q.label}: {problem}")
    return out


def run_closed_loop(make_pass: Callable[[int], List[Query]], seconds: float,
                    min_queries: int = 100) -> LoopResult:
    """Whole passes until the next one would, at the mean pass time so far,
    end more than ``seconds`` after the loop started; at least
    ``min_queries`` queries."""
    total = LoopResult()
    start = perf_counter()
    index = 0
    while True:
        total.add(run_pass(make_pass(index), first_id=total.attempted))
        index += 1
        elapsed = perf_counter() - start
        if total.attempted >= min_queries and elapsed * (index + 1) / index > seconds:
            return total


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _equals(expected) -> Callable[[Any], Optional[str]]:
    def check(answer):
        if answer != expected:
            return f"expected {expected}, computed {answer}"
        return None
    return check


class HomologyWorkload:
    name = "homology"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.groups = {}

    def generate(self) -> None:
        """Nothing to write: this workload runs on the bundled groups."""

    def setup(self) -> None:
        for name in HOMOLOGY_GROUPS:
            self.groups[name] = load_group(resolve_input("group", name))
        group, chars = self.groups["z2"]
        homology.group_homology(group, chars["w"], 1, provider="bar",
                                budget=1_000)

    def _homology(self, name, char, degree, provider, budget) -> Query:
        group, chars = self.groups[name]
        w = chars[char]
        twisted = not w.is_trivial()
        expected = oracles.expected_homology(name, char, degree, twisted)

        def call():
            return homology.group_homology(group, w, degree, provider=provider,
                                           budget=budget).invariant_factors()

        return Query(f"H_{degree}({name}; {char}) {provider}", call,
                     _equals(expected))

    def _orbits(self, name, char, degree, budget) -> Query:
        group, chars = self.groups[name]
        w = chars[char]
        expected = (oracles.expected_homology(name, char, degree,
                                              not w.is_trivial()),
                    oracles.FROZEN_ORBITS[(name, char, degree)])

        def call():
            report = homology.homology_orbits(group, w, degree, budget=budget)
            return (report.presentation.invariant_factors(),
                    (report.orbit_count, report.automorphism_count))

        return Query(f"orbits H_{degree}({name}; {char})", call,
                     _equals(expected))

    def make_pass(self, index: int) -> List[Query]:
        queries = []
        for name in HOMOLOGY_GROUPS:
            group, chars = self.groups[name]
            top = BAR_TOP_DEGREE[name]
            budget = chain_cost(group.order, top + 1)
            for char in sorted(chars):
                for degree in range(top + 1):
                    queries.append(self._homology(name, char, degree, "bar",
                                                  budget))
                if name in oracles.CYCLIC_ORDERS:
                    for degree in range(1, 5):
                        queries.append(self._homology(name, char, degree,
                                                      "cyclic", budget))
        for name, char, degree in ORBIT_QUERIES:
            order = self.groups[name][0].order
            queries.append(self._orbits(name, char, degree,
                                        chain_cost(order, degree + 1)))
        _rng(self.name, self.seed, index).shuffle(queries)
        return queries


class CensusCase(NamedTuple):
    group: str
    char: str
    rank: int
    order: int
    involution_rank: int
    module_path: str
    form_path: str


def _random_form(group, w, rank: int, variant: int, rng: random.Random):
    """A hermitian form: for even ``variant`` the hermitian closure of a
    random matrix, for odd ``variant`` a diagonal form of signed units in a
    random basis."""
    if variant % 2 == 0:
        matrix = [[GroupRingElement(group, [rng.choice((-2, -1, 0, 0, 0, 1, 2))
                                            for _ in range(group.order)])
                   for _ in range(rank)] for _ in range(rank)]
        return hermitian_closure(group, w, matrix)
    zero = GroupRingElement.zero(group)
    base = HermitianForm(group, w, [
        [GroupRingElement.from_element(group, 0, rng.choice((-1, 1)))
         if i == j else zero for j in range(rank)] for i in range(rank)])
    return change_of_basis(base, random_unimodular_ring_matrix(group, rank, rng))


class CensusWorkload:
    name = "census"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = os.path.join(out_dir, f"census-{seed}")
        self.cases = []

    def generate(self) -> None:
        """Write one free module file per (group, rank) and two hermitian
        form files per (group, character, rank): one by
        ``hermitian_closure`` of a random matrix, one by ``change_of_basis``
        of a diagonal unit form with a random invertible matrix."""
        os.makedirs(self.out_dir, exist_ok=True)
        rng = _rng(self.name, self.seed, -1)
        self.cases = []
        for name in GROUP_NAMES:
            group, chars = load_group(resolve_input("group", name))
            table = [list(row) for row in group.table]
            for rank in range(1, 4):
                if rank * group.order > CENSUS_MAX_CELLS:
                    continue
                module = free_module(group, rank)
                module_path = os.path.join(self.out_dir,
                                           f"module_{name}_{rank}.json")
                _write_json(module_path, {
                    "ngens": module.underlying.ngens, "relations": [],
                    "action": {str(g): module.action[g].data
                               for g in range(group.order)}})
                for char in sorted(chars):
                    w = chars[char]
                    r = oracles.involution_rank(table, w.values)
                    for variant in range(FORMS_PER_CASE):
                        form = _random_form(group, w, rank, variant, rng)
                        form_path = os.path.join(
                            self.out_dir,
                            f"form_{name}_{char}_{rank}_{variant}.json")
                        _write_json(form_path, {
                            "rank": rank,
                            "matrix": [[list(e.coeffs) for e in row]
                                       for row in form.matrix]})
                        self.cases.append(CensusCase(
                            name, char, rank, group.order, r, module_path,
                            form_path))

    def setup(self) -> None:
        code = _run_cli(["census", "--group", "z2", "--character", "w",
                         "--module", "z2_regular", "--form", "rp4cp2",
                         "--format", "structured"])[0]
        if code != 0:
            raise RuntimeError("census warm-up failed")

    def query_for(self, case: CensusCase) -> Query:
        argv = ["census", "--group", case.group, "--character", case.char,
                "--module", case.module_path, "--form", case.form_path,
                "--format", "structured"]

        def check(answer):
            code, out, err = answer
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            try:
                doc = json.loads(out)
            except json.JSONDecodeError as exc:
                return f"output is not a document: {exc}"
            return oracles.check_census(doc, case.order, case.rank,
                                        case.involution_rank)

        label = f"census {os.path.basename(case.form_path)}"
        return Query(label, lambda: _run_cli(argv), check)

    def make_pass(self, index: int) -> List[Query]:
        queries = [self.query_for(case) for case in self.cases]
        _rng(self.name, self.seed, index).shuffle(queries)
        return queries


class PresentationsWorkload:
    name = "presentations"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def generate(self) -> None:
        """Inputs are made per pass, so that no two queries share one."""

    def setup(self) -> None:
        gamma.quadratic_value(AbelianPresentation.cyclic(2)).invariant_factors()

    def make_pass(self, index: int) -> List[Query]:
        rng = _rng(self.name, self.seed, index)
        queries = []
        for shape in PRESENTATION_SHAPES * PRESENTATION_REPEATS:
            n, r, k = shape
            orders = [rng.choice(TORSION_ORDERS) for _ in range(k)]
            rows = scrambled_relations(rng, n, r, orders)
            pres = AbelianPresentation.from_relation_rows(n, rows)
            queries.append(_gamma_query(pres, r, orders))
        rng.shuffle(queries)
        return queries


def _gamma_query(pres, r, orders) -> Query:
    def call():
        return gamma.quadratic_value(pres).invariant_factors()

    return Query(f"Gamma(Z^{r} + Z/{orders})", call,
                 lambda answer: oracles.check_gamma(r, orders, answer))


def _unimodular(rng: random.Random, n: int, steps: int) -> List[List[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-a for a in m[i]]
    rng.shuffle(m)
    return m


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def scrambled_relations(rng: random.Random, n: int, r: int,
                        orders: List[int]) -> List[List[int]]:
    """Relation rows presenting ``Z^r + sum Z/d`` on ``n`` generators:
    ``diag(orders, 0^r, 1...)`` multiplied by random unimodular matrices on
    both sides, with zero rows dropped."""
    diag = list(orders) + [0] * r + [1] * (n - r - len(orders))
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    p = _unimodular(rng, n, 2 * n)
    q = _unimodular(rng, n, 2 * n)
    return [row for row in _matmul(_matmul(p, d), q) if any(row)]


def _run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


WORKLOADS = {w.name: w for w in (HomologyWorkload, CensusWorkload,
                                 PresentationsWorkload)}
