"""A warm process prints what a cold one does.

``load_group`` and ``load_module`` keep what they parsed, and
``gamma_coinvariants`` keeps its orbits on the module, so a second query on
the same group and module reuses objects the first one built.  Every
command that reads them must still print the same bytes: here each argv is
run once on empty caches (cold) and then twice in one process, in a seeded
shuffled order, without clearing anything (warm).  The inputs are the
bundled ones and free modules with rank times group order at most 12, each
with two form files per character, written as the census benchmark writes
them.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from gammalab import cli, serialize
from gammalab.classify import (HermitianForm, change_of_basis,
                               hermitian_closure, random_unimodular_ring_matrix)
from gammalab.groups import GroupRingElement
from gammalab.modules import free_module
from gammalab.serialize import bundled_names, bundled_path, load_group

MAX_CELLS = 12
SEED = 2604


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def clear_loader_caches():
    serialize._parsed.cache_clear()


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def random_form(rng, group, w, rank, variant):
    """The hermitian closure of a random matrix (even ``variant``) or a
    diagonal unit form in a random basis (odd ``variant``)."""
    if variant % 2 == 0:
        return hermitian_closure(group, w, [
            [GroupRingElement(group, [rng.choice((-2, -1, 0, 0, 0, 1, 2))
                                      for _ in range(group.order)])
             for _ in range(rank)] for _ in range(rank)])
    zero = GroupRingElement.zero(group)
    base = HermitianForm(group, w, [
        [GroupRingElement.from_element(group, 0, rng.choice((-1, 1)))
         if i == j else zero for j in range(rank)] for i in range(rank)])
    return change_of_basis(base, random_unimodular_ring_matrix(group, rank, rng))


def bundled_argvs():
    argvs = []
    z2, chars = load_group(bundled_path("group", "z2"))
    for char in sorted(chars):
        for module in bundled_names("module"):
            head = ["--group", "z2", "--character", char, "--module", module]
            argvs += [["coinvariants"] + head, ["tor1"] + head,
                      ["census"] + head]
            argvs += [["census"] + head + ["--form", form]
                      for form in bundled_names("form")]
    for name in bundled_names("group"):
        _, chars = load_group(bundled_path("group", name))
        for char in sorted(chars):
            for degree in (1, 2):
                argvs.append(["homology", "--group", name, "--character",
                              char, "--degree", str(degree), "--orbits"])
    return argvs


def free_module_argvs(tmp_path):
    rng = random.Random(SEED)
    argvs = []
    for name in bundled_names("group"):
        group, chars = load_group(bundled_path("group", name))
        for rank in range(1, 4):
            if rank * group.order > MAX_CELLS:
                continue
            module = free_module(group, rank)
            module_path = write_json(tmp_path / f"module_{name}_{rank}.json", {
                "ngens": module.underlying.ngens, "relations": [],
                "action": {str(g): module.action[g].data
                           for g in range(group.order)}})
            for char in sorted(chars):
                head = ["--group", name, "--character", char,
                        "--module", module_path]
                argvs += [["coinvariants"] + head, ["tor1"] + head,
                          ["census"] + head]
                for variant in range(2):
                    form = random_form(rng, group, chars[char], rank, variant)
                    form_path = write_json(
                        tmp_path / f"form_{name}_{char}_{rank}_{variant}.json",
                        {"rank": rank, "matrix": [[list(e.coeffs) for e in row]
                                                  for row in form.matrix]})
                    argvs.append(["census"] + head + ["--form", form_path])
    return argvs


def check_cold_equals_warm(argvs):
    argvs = argvs + [argv + ["--format", "structured"] for argv in argvs]
    cold = {}
    for argv in argvs:
        clear_loader_caches()
        cold[tuple(argv)] = run_cli(argv)
    clear_loader_caches()
    rng = random.Random(SEED)
    for _ in range(2):
        order = argvs[:]
        rng.shuffle(order)
        for argv in order:
            assert run_cli(argv) == cold[tuple(argv)], argv
    return cold


def test_bundled_inputs_cold_and_warm():
    cold = check_cold_equals_warm(bundled_argvs())
    codes = [code for code, _, _ in cold.values()]
    assert codes.count(0) >= 100 and codes.count(2) >= 10


def test_free_module_files_cold_and_warm(tmp_path):
    cold = check_cold_equals_warm(free_module_argvs(tmp_path))
    assert len(cold) == 2 * 5 * 46
    assert all(code == 0 for code, _, _ in cold.values())
