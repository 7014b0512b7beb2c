"""Census output: pinned for the bundled inputs, checked on random forms.

The census prints the form's element of the functor value and, when the
class is primitive, a splitting functional as a row over the functor
value's basis.  Which functional comes out is a choice, so beyond the
bundled inputs the tests check what any valid answer satisfies, against the
relation-row presentation of the coinvariants (the module given by its
dense matrices alone): the functional takes the value 1 on the class and
kills every twist relation row; without one, the class is not primitive.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from gammalab import cli
from gammalab.builtins import standard_library
from gammalab.classify import (HermitianForm, QuadraticTwoType, census,
                               change_of_basis, hermitian_closure,
                               random_unimodular_ring_matrix)
from gammalab.gamma import quadratic_module
from gammalab.groups import GroupRingElement, all_characters, bar_involution
from gammalab.modules import ZPiModule, free_module, twisted_coinvariants

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "census_bundled.json")
FORMS_PER_CASE = 6


def run_census(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["census"] + argv)
    return code, out.getvalue()


def test_bundled_census_output_is_pinned():
    """Each case is run twice in the process; the second run, which finds
    its group and module already loaded, prints the same bytes."""
    with open(PINNED, encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    assert len(cases) == 16
    for case in cases:
        code, text = run_census(case["argv"])
        assert code == case["exit"], case["argv"]
        code, structured = run_census(case["argv"] + ["--format", "structured"])
        assert code == case["exit"], case["argv"]
        if code == 0:
            assert text.splitlines() == case["table"], case["argv"]
            assert json.loads(structured) == case["structured"], case["argv"]
    for case in cases:
        for argv in (case["argv"], case["argv"] + ["--format", "structured"]):
            first = run_census(argv)
            assert run_census(argv) == first, argv


def random_form(rng, group, w, rank, variant):
    """By ``variant`` modulo 3: the hermitian closure of a random matrix; a
    diagonal form of signed units in a random basis; or a random hermitian
    matrix built entry by entry, with ``bar(a)`` mirroring each entry ``a``
    above the diagonal and ``c + b + bar(b)`` on it, which often has a
    primitive class."""
    if variant % 3 == 2:
        def element(bound):
            return GroupRingElement(group, [rng.randint(-bound, bound)
                                            for _ in range(group.order)])
        matrix = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            b = element(1)
            matrix[i][i] = (GroupRingElement.from_element(
                group, 0, rng.choice((-1, 1))) + b + bar_involution(group, w, b))
            for j in range(i + 1, rank):
                matrix[i][j] = element(1)
                matrix[j][i] = bar_involution(group, w, matrix[i][j])
        return HermitianForm(group, w, matrix)
    if variant % 3 == 0:
        matrix = [[GroupRingElement(group, [rng.choice((-2, -1, 0, 0, 1, 2))
                                            for _ in range(group.order)])
                   for _ in range(rank)] for _ in range(rank)]
        return hermitian_closure(group, w, matrix)
    zero = GroupRingElement.zero(group)
    base = HermitianForm(group, w, [
        [GroupRingElement.from_element(group, 0, rng.choice((-1, 1)))
         if i == j else zero for j in range(rank)] for i in range(rank)])
    return change_of_basis(base, random_unimodular_ring_matrix(group, rank, rng))


def test_census_functional_against_relation_rows():
    rng = random.Random(3303)
    seen = {True: 0, False: 0}
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            for rank in (1, 2):
                module = free_module(group, rank)
                value = quadratic_module(module)
                rows = twisted_coinvariants(
                    ZPiModule(group, value.underlying, value.action,
                              check=False), w, budget=None).presentation
                relations = rows.relations.data
                # The class of a form is invariant, so its coordinates are
                # multiples of orbit sizes: primitive classes need orbits of
                # size one, which only the groups of order at most two have.
                for variant in range(FORMS_PER_CASE * (8 // group.order)):
                    form = random_form(rng, group, w, rank, variant)
                    report = census(QuadraticTwoType(group, w, module, form))
                    cls = report.lambda_class
                    f = report.kappa_functional
                    label = (name, w.values, rank, variant)
                    primitive = rows.is_primitive_mod_torsion(cls)
                    assert report.lambda_primitive == primitive, label
                    assert (f is not None) == primitive, label
                    seen[primitive] += 1
                    if f is None:
                        continue
                    assert len(f) == len(cls) == rows.ngens, label
                    assert sum(a * b for a, b in zip(f, cls)) == 1, label
                    for row in relations:
                        assert sum(a * b for a, b in zip(f, row)) == 0, label
    assert seen[True] >= 20 and seen[False] >= 100, seen
