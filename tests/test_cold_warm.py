"""A warm process prints what a cold one does.

``load_group`` and ``load_module`` keep what they parsed,
``gamma_coinvariants`` keeps its orbits on the module, and a group keeps
one walk of the bar tuples per degree and kept ends, so a second query on
the same group and module reuses objects the first one built.  Every
command that reads them must still print the same bytes: here each argv is
run once on empty caches (cold) and then twice in one process, in a seeded
shuffled order, without clearing anything (warm).  The inputs are the
bundled ones, with homology and orbits in every degree under the bar and
the automatic provider, and free modules with rank times group order at
most 12, each with two form files per character, written as the census
benchmark writes them.  The kept walks are also checked directly: a
refused query keeps none, each group object keeps its own, and one walk
serves every character, the orbits and Tor₁.
"""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gammalab import cli, resolutions, serialize
from gammalab.classify import (HermitianForm, change_of_basis,
                               hermitian_closure, random_unimodular_ring_matrix)
from gammalab.errors import BudgetExceededError
from gammalab.groups import FiniteGroup, GroupRingElement, OrientationChar
from gammalab.homology import MAX_DEGREE, group_homology, homology_orbits
from gammalab.modules import free_module, tor_one, trivial_module
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
            head = ["--group", name, "--character", char]
            for degree in (1, 2):
                argvs.append(["homology"] + head + ["--degree", str(degree),
                                                    "--orbits"])
            for degree in range(MAX_DEGREE + 1):
                argvs.append(["orbit"] + head + ["--degree", str(degree)])
                argvs += [["homology"] + head + ["--degree", str(degree),
                                                 "--resolution", provider]
                          for provider in ("bar", "auto")]
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
    # Homology and orbits the default budget refuses, compared as well.
    assert codes.count(1) >= 100


def test_free_module_files_cold_and_warm(tmp_path):
    cold = check_cold_equals_warm(free_module_argvs(tmp_path))
    assert len(cold) == 2 * 5 * 46
    assert all(code == 0 for code, _, _ in cold.values())


def fresh_group(name):
    """A new group object with the bundled table, and its characters."""
    group, chars = load_group(bundled_path("group", name))
    fresh = FiniteGroup(group.table, group.labels)
    return fresh, [OrientationChar(fresh, w.values)
                   for _, w in sorted(chars.items())]


def test_a_refused_query_keeps_no_walk():
    group, chars = fresh_group("s3")
    w = chars[-1]
    with pytest.raises(BudgetExceededError):
        group_homology(group, w, 3, provider="bar", budget=1_000)
    with pytest.raises(BudgetExceededError):
        homology_orbits(group, w, 3, provider="bar", budget=1_000)
    with pytest.raises(BudgetExceededError):
        tor_one(free_module(group, 1), w, budget=10)
    assert group.bar_skeletons == {}
    group_homology(group, w, 1, provider="bar", budget=1_000)
    assert list(group.bar_skeletons) == [(2, tuple(group.bar_generators()))]


def test_groups_with_the_same_table_keep_their_own_walks():
    first, first_chars = fresh_group("q8")
    second, second_chars = fresh_group("q8")
    expected = group_homology(first, first_chars[1], 2, provider="bar")
    assert second.bar_skeletons == {}
    assert group_homology(second, second_chars[1], 2,
                          provider="bar") == expected
    assert list(first.bar_skeletons) == list(second.bar_skeletons)
    for key, skeleton in first.bar_skeletons.items():
        assert skeleton == second.bar_skeletons[key]
        assert skeleton is not second.bar_skeletons[key]


def test_one_walk_per_group_degree_and_ends(monkeypatch):
    """Homology and orbits in every character and degrees 0 to 2, and Tor₁
    of two modules, walk each (group, degree, ends) once, and a second
    round walks nothing."""
    walks = Counter()
    walk = resolutions._walk_tuples

    def counted(group, k, last):
        walks[id(group), k, None if last is None else tuple(last)] += 1
        return walk(group, k, last)

    monkeypatch.setattr(resolutions, "_walk_tuples", counted)
    groups = [fresh_group(name) for name in ("z2", "klein4", "s3", "d4")]
    for _ in range(2):
        for group, chars in groups:
            for w in chars:
                for k in range(3):
                    group_homology(group, w, k, provider="bar", budget=None)
                    homology_orbits(group, w, k, provider="bar", budget=None)
                for module in (free_module(group, 1), trivial_module(group)):
                    tor_one(module, w)
    assert walks and set(walks.values()) == {1}
    for group, _ in groups:
        ends = tuple(group.bar_generators())
        assert sorted(key[1:] for key in walks if key[0] == id(group)) == [
            (1, ends), (2, ends), (3, ends)]
