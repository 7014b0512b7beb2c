"""``gammalab census`` output on generated forms, pinned byte for byte.

The inputs are every bundled group and character with free modules of
rank 1 to 3 written to files in the standard layout, for rank times group
order at most 12, and two seeded hermitian forms per case: the hermitian
closure of a random matrix, and a diagonal form of signed units after a
random change of basis.  Each runs in both output formats.  Stdout, stderr
and the exit code are pinned, so the form's class (``lambda_class``) and
its splitting functional (``kappa_functional``) are pinned at every rank.
To freeze the fixture again, run ``python tests/test_census_generated.py``
with the package and ``tests`` on the path.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from gammalab import cli
from gammalab.classify import (HermitianForm, change_of_basis,
                               hermitian_closure,
                               random_unimodular_ring_matrix)
from gammalab.groups import GroupRingElement
from gammalab.modules import free_module
from gammalab.serialize import bundled_names, bundled_path, load_group

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "census_generated.json")
FORMATS = ("table", "structured")
MAX_CELLS = 12
SEED = 2906


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def closure_form(rng, group, w, rank):
    matrix = [[GroupRingElement(group, [rng.choice((-2, -1, 0, 0, 1, 2))
                                        for _ in range(group.order)])
               for _ in range(rank)] for _ in range(rank)]
    return hermitian_closure(group, w, matrix)


def unit_form(rng, group, w, rank):
    zero = GroupRingElement.zero(group)
    base = HermitianForm(group, w, [
        [GroupRingElement.from_element(group, 0, rng.choice((-1, 1)))
         if i == j else zero for j in range(rank)] for i in range(rank)])
    return change_of_basis(base, random_unimodular_ring_matrix(group, rank,
                                                               rng))


FORMS = (("closure", closure_form), ("unit", unit_form))


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def cases(directory):
    """``(key, argv)`` for every pinned case; module and form files are
    written into ``directory``, and the key names them by label."""
    rng = random.Random(SEED)
    for name in sorted(bundled_names("group")):
        group, characters = load_group(bundled_path("group", name))
        for rank in range(1, 4):
            if rank * group.order > MAX_CELLS:
                continue
            module = free_module(group, rank)
            module_path = os.path.join(directory, f"{name}_{rank}.json")
            write_json(module_path, {
                "ngens": module.underlying.ngens, "relations": [],
                "action": {str(g): module.action[g].data
                           for g in range(group.order)}})
            for character in sorted(characters):
                w = characters[character]
                for label, make in FORMS:
                    form = make(rng, group, w, rank)
                    form_path = os.path.join(
                        directory, f"{name}_{character}_{rank}_{label}.json")
                    write_json(form_path, {
                        "rank": rank,
                        "matrix": [[list(e.coeffs) for e in row]
                                   for row in form.matrix]})
                    for style in FORMATS:
                        key = [name, character, rank, label, style]
                        argv = ["census", "--group", name, "--character",
                                character, "--module", module_path,
                                "--form", form_path, "--format", style]
                        yield key, argv


def freeze():
    frozen = []
    with tempfile.TemporaryDirectory() as directory:
        for key, argv in cases(directory):
            code, out, err = run_cli(argv)
            assert directory not in out + err, argv
            frozen.append({"key": key, "exit": code, "stdout": out,
                           "stderr": err})
    # One case a line, so that a change to the fixture diffs by case.
    with open(PINNED, "w", encoding="utf-8") as handle:
        handle.write('{"frozen_from": "gammalab census, forms read through '
                     'GroupRingElement objects",\n "cases": [\n')
        handle.write(",\n".join(json.dumps(case, sort_keys=True)
                                for case in frozen))
        handle.write("\n]}\n")


def test_generated_census_output_is_pinned(tmp_path):
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["cases"]
    generated = list(cases(str(tmp_path)))
    assert [case["key"] for case in pinned] == [key for key, _ in generated]
    ranks = set()
    functionals = 0
    for case, (key, argv) in zip(pinned, generated):
        assert run_cli(argv) == (
            case["exit"], case["stdout"], case["stderr"]), key
        ranks.add(key[2])
        functionals += "kappa_functional\": [" in case["stdout"]
    # Every rank is pinned, and some classes carry a splitting functional.
    assert ranks == {1, 2, 3}
    assert functionals > 0


if __name__ == "__main__":
    freeze()
