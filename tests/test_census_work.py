"""The census path does only the work its answer reads.

Each test pins one shortcut against the longer route it replaces:

* the form's element of the functor value, read straight off the form's
  entries, against ``value_of_symmetric_matrix`` of the underlying symmetric
  matrix, and ``lambda_primitive`` against ``is_primitive_mod_torsion``;
* ``resolve_input`` on plain strings against a pathlib reference kept here;
* the functor value of a module, checked through the module (its own
  check, never the value's), with the refusals that follow from that; a
  module file in the standard free layout is not checked at all, and any
  other module file once per query;
* the census, coinvariants and obstruction torsion without
  ``torsion_part``, and a structured census without its table lines;
* the zero module, which loads as the free module of rank zero.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from gammalab import cli, serialize
from gammalab.abelian import AbelianPresentation
from gammalab.builtins import standard_library
from gammalab.classify import (HermitianForm, QuadraticTwoType, _symmetric_value,
                               census, change_of_basis, check_hermitian,
                               gamma_coinvariants, hermitian_closure,
                               lambda_to_gamma, obstruction_torsion,
                               random_unimodular_ring_matrix,
                               underlying_symmetric_matrix)
from gammalab.errors import IncompatibleInputError, ParseError
from gammalab.gamma import gamma_rank, quadratic_module, value_of_symmetric_matrix
from gammalab.groups import GroupRingElement, all_characters
from gammalab.intmat import IntMatrix
from gammalab.modules import ZPiModule, free_module, sign_module
from gammalab.serialize import (bundled_names, bundled_path, load_form,
                                load_group, resolve_input)

SAMPLES_PER_KIND = 2


def bundled_groups():
    for name in bundled_names("group"):
        group, characters = load_group(bundled_path("group", name))
        yield name, group, characters


def random_form(group, w, rank, variant, rng):
    """The two kinds of random form the census benchmark writes: for even
    ``variant`` the hermitian closure of a random matrix, for odd
    ``variant`` a diagonal form of signed units in a random basis."""
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


def forms_to_check():
    """Every bundled form on every bundled (group, character) it is
    hermitian for, and seeded forms of both kinds of ranks 1-3 on every
    bundled (group, character)."""
    rng = random.Random(1907)
    for name, group, characters in bundled_groups():
        for char, w in sorted(characters.items()):
            for form_name in bundled_names("form"):
                try:
                    form = load_form(bundled_path("form", form_name), group, w)
                except ParseError:
                    continue
                if check_hermitian(form):
                    yield f"{name}/{char}/{form_name}", group, w, form
            for rank in range(1, 4):
                for variant in range(2 * SAMPLES_PER_KIND):
                    yield (f"{name}/{char}/rank {rank}/variant {variant}",
                           group, w, random_form(group, w, rank, variant, rng))


def test_lambda_class_read_from_entries_matches_the_symmetric_matrix():
    primitive_seen = set()
    count = 0
    for label, group, w, form in forms_to_check():
        expected = value_of_symmetric_matrix(underlying_symmetric_matrix(form))
        assert _symmetric_value(form) == expected, label
        assert lambda_to_gamma(form) == expected, label
        report = census(QuadraticTwoType.from_form(group, w, form))
        assert report.lambda_class == expected, label
        coinv = gamma_coinvariants(free_module(group, form.rank), w)
        cls = coinv.projection.apply(expected)
        assert report.lambda_primitive == \
            coinv.presentation.is_primitive_mod_torsion(cls), label
        assert (report.kappa_functional is None) == \
            (not report.lambda_primitive), label
        primitive_seen.add(report.lambda_primitive)
        count += 1
    assert count > 250
    assert primitive_seen == {True, False}


def test_lambda_to_gamma_keeps_its_hermitian_check():
    z2, characters = load_group(bundled_path("group", "z2"))
    form = load_form(bundled_path("form", "rp4cp2"), z2, characters["w"])
    assert check_hermitian(form)
    skew = HermitianForm(z2, characters["w"],
                         [[GroupRingElement(z2, [0, 1])]])
    assert not check_hermitian(skew)
    with pytest.raises(IncompatibleInputError, match="not hermitian"):
        lambda_to_gamma(skew)


# -- input lookup -------------------------------------------------------------


def pathlib_resolve(kind, value, data_root: Path):
    """The lookup written with pathlib objects, the reference for the
    string lookup."""
    prefix = f"{kind}_"
    if Path(value).is_file():
        return value
    if Path(value).name == value and value not in (".", ".."):
        entry = data_root / f"{prefix}{value}.json"
        if entry.is_file():
            return str(entry)
    names = sorted(entry.name[len(prefix):-len(".json")]
                   for entry in data_root.iterdir()
                   if entry.name.startswith(prefix)
                   and entry.name.endswith(".json"))
    raise ParseError(
        f"'{value}' is neither a readable file nor a bundled {kind} name; "
        f"bundled {kind}s: {', '.join(names)}")


def outcome(lookup, kind, value):
    try:
        return "path", lookup(kind, value)
    except ParseError as exc:
        return "error", str(exc)


LOOKUP_VALUES = [
    "input.json", "z2", "z2_regular", "rp4cp2", "a/b", "../z2",
    "sub/z2", "./z2", "z2/", ".", "..", "", "somedir", "z3", "z2\0",
    "nonesuch",
]


def lookup_values(tmp_path):
    return LOOKUP_VALUES + [str(tmp_path / "input.json"), str(tmp_path)]


@pytest.fixture
def lookup_cwd(tmp_path, monkeypatch):
    """A working directory with a file, a directory, and a directory named
    like a bundled group."""
    (tmp_path / "input.json").write_text("{}", encoding="utf-8")
    (tmp_path / "somedir").mkdir()
    (tmp_path / "z3").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_resolve_input_matches_the_pathlib_lookup(lookup_cwd):
    data_root = Path(str(resources.files("gammalab") / "data"))
    for kind in ("group", "module", "form"):
        for value in lookup_values(lookup_cwd):
            assert outcome(resolve_input, kind, value) == outcome(
                lambda k, v: pathlib_resolve(k, v, data_root), kind, value), \
                (kind, value)
    assert outcome(resolve_input, "group", "z3") == (
        "path", bundled_path("group", "z3"))


def test_resolve_input_joins_only_plain_names(lookup_cwd, monkeypatch):
    """In a data directory that holds a subdirectory with the group prefix,
    a value with a separator that would name a file there is still refused."""
    data = lookup_cwd / "data"
    (data / "group_sub").mkdir(parents=True)
    (data / "group_sub" / "z2.json").write_text("{}", encoding="utf-8")
    (data / "group_z2.json").write_text("{}", encoding="utf-8")
    (data / "group_.json").write_text("{}", encoding="utf-8")
    monkeypatch.setattr(serialize, "_DATA_DIR", str(data))
    for kind in ("group", "module", "form"):
        for value in lookup_values(lookup_cwd):
            assert outcome(resolve_input, kind, value) == outcome(
                lambda k, v: pathlib_resolve(k, v, data), kind, value), \
                (kind, value)
    assert outcome(resolve_input, "group", "sub/z2")[0] == "error"
    assert outcome(resolve_input, "group", "z2") == (
        "path", str(data / "group_z2.json"))


# -- the functor value is checked through its input ---------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_free_module(tmp_path, group, rank):
    module = free_module(group, rank)
    path = tmp_path / f"module_{rank}.json"
    path.write_text(json.dumps({
        "ngens": module.underlying.ngens, "relations": [],
        "action": {str(g): module.action[g].data
                   for g in range(group.order)}}), encoding="utf-8")
    return str(path)


def write_permuted_module(tmp_path, group, rank, seed):
    """The free module of the given rank written in a seeded permuted,
    sign-flipped basis: still a signed permutation, but not the standard
    free layout."""
    module = free_module(group, rank)
    n = module.underlying.ngens
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    change = IntMatrix.zeros(n, n)
    for i, j in enumerate(perm):
        change.data[j][i] = rng.choice((-1, 1))
    # A signed permutation matrix is inverted by its transpose.
    back = change.transpose()
    path = tmp_path / f"permuted_{rank}_{seed}.json"
    path.write_text(json.dumps({
        "ngens": n, "relations": [],
        "action": {str(g): change.mul(module.action[g]).mul(back).data
                   for g in range(group.order)}}), encoding="utf-8")
    return str(path)


def test_structured_census_checks_the_module_and_not_its_value(
        tmp_path, monkeypatch):
    """A module file in the standard free layout is ``free_module``'s
    module, valid by construction, so it is never checked; any other module
    file is checked once per query, on load; Γ(M) is never checked."""
    checked = []
    original = ZPiModule._validate

    def counting(self):
        if not self._valid:
            checked.append(self.underlying.ngens)
        return original(self)

    monkeypatch.setattr(ZPiModule, "_validate", counting)
    d4, _ = load_group(bundled_path("group", "d4"))
    z3 = standard_library()["z3"]
    free_layout = [
        (["--group", "z2", "--character", "w", "--module", "z2_regular",
          "--form", "rp4cp2"], 2),
        (["--group", "d4", "--character", "w2", "--module",
          write_free_module(tmp_path, d4, 2)], 16),
    ]
    permuted = [
        (["--group", "d4", "--character", "w1", "--module",
          write_permuted_module(tmp_path, d4, 1, seed)], 8)
        for seed in (3, 4)
    ] + [(["--group", "z3", "--module",
           write_permuted_module(tmp_path, z3, 2, 5)], 6)]
    for cases, expected in ((free_layout, 0), (permuted, 1)):
        for argv, n in cases:
            checked.clear()
            code, out, err = run_cli(["census"] + argv
                                     + ["--format", "structured"])
            assert (code, err) == (0, ""), argv
            assert json.loads(out)["count"] >= 1
            assert checked == [n] * expected, argv
            assert gamma_rank(n) not in checked


def z3_global_sign_table():
    """Both non-identity elements of Z/3 acting by -1 on Z^2: no action,
    since -1 times -1 is not -1, yet every sign squares away in the
    functor value, whose table is the identity everywhere."""
    minus = ([0, 1], [-1, -1])
    return [([0, 1], [1, 1]), minus, minus]


def test_module_that_fails_its_own_check_is_refused():
    z3 = standard_library()["z3"]
    table = z3_global_sign_table()
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        ZPiModule(z3, AbelianPresentation.free(2), table=table)
    # The table the functor value would get passes its own check.
    ZPiModule(z3, AbelianPresentation.free(3),
              table=[([0, 1, 2], [1, 1, 1])] * 3)
    broken = ZPiModule(z3, AbelianPresentation.free(2), check=False,
                       table=table)
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        quadratic_module(broken)
    dense = ZPiModule(z3, AbelianPresentation.free(2), broken.action,
                      check=False)
    assert dense.table is None
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        quadratic_module(dense)


def test_dense_module_that_is_not_multiplicative_is_refused():
    z3 = standard_library()["z3"]
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    module = ZPiModule(z3, AbelianPresentation.free(2),
                       [IntMatrix.identity(2), shear, shear], check=False)
    with pytest.raises(IncompatibleInputError, match="not multiplicative"):
        quadratic_module(module)
    wrong_identity = ZPiModule(z3, AbelianPresentation.free(2),
                               [shear, shear, shear], check=False)
    with pytest.raises(IncompatibleInputError, match="identity"):
        quadratic_module(wrong_identity)


def test_functor_value_of_a_module_passes_its_own_check():
    """The value is built unchecked; by functoriality it is a module
    whenever its input is, on both the table and the matrix route."""
    for name, group in sorted(standard_library().items()):
        for w in all_characters(group):
            modules = [sign_module(group, w, 2)]
            if group.order <= 6:
                modules.append(free_module(group, 1))
            for module in modules:
                dense = ZPiModule(group, module.underlying, module.action)
                assert dense.table is None
                by_table, by_matrices = (quadratic_module(module),
                                         quadratic_module(dense))
                by_table._validate()
                by_matrices._validate()
                assert by_matrices.action == by_table.action, name


# -- no torsion inclusion and no unprinted format -----------------------------


def test_structured_census_builds_no_table_lines(monkeypatch):
    argv = ["census", "--group", "z2", "--character", "w", "--module",
            "z2_regular", "--form", "rp4cp2", "--format", "structured"]
    expected = run_cli(argv)
    assert expected[0] == 0

    def refuse(report):
        raise AssertionError("table lines built for structured output")

    monkeypatch.setattr(cli, "_census_table", refuse)
    assert run_cli(argv) == expected


def write_shear_module(tmp_path):
    """Z/2 acting by [[1, 0], [1, -1]] on Z^2: no signed-permutation table,
    so the coinvariants take the relation-row route."""
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({
        "ngens": 2, "relations": [],
        "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [1, -1]]}}),
        encoding="utf-8")
    return str(path)


def test_census_and_coinvariants_read_torsion_from_the_invariants(
        tmp_path, monkeypatch):
    shear = write_shear_module(tmp_path)
    argvs = []
    for fmt in ("table", "structured"):
        for module in ("z2_regular", "z2_z_plus_ztwist", shear):
            for char in ("trivial", "w"):
                common = ["--group", "z2", "--character", char,
                          "--module", module, "--format", fmt]
                argvs += [["census"] + common, ["coinvariants"] + common]
        argvs.append(["census", "--group", "z2", "--character", "w",
                      "--module", "z2_regular", "--form", "rp4cp2",
                      "--format", fmt])
    expected = [run_cli(argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in expected)
    groups = standard_library()
    torsion = {}
    for name in ("z2", "klein4", "s3"):
        for w in all_characters(groups[name]):
            torsion[name, w.values] = obstruction_torsion(
                groups[name], w, free_module(groups[name], 1)).describe()

    def refuse(self):
        raise AssertionError("torsion inclusion built")

    monkeypatch.setattr(AbelianPresentation, "torsion_part", refuse)
    assert [run_cli(argv) for argv in argvs] == expected
    for name in ("z2", "klein4", "s3"):
        for w in all_characters(groups[name]):
            assert obstruction_torsion(
                groups[name], w, free_module(groups[name], 1)).describe() \
                == torsion[name, w.values]


# -- the zero module ----------------------------------------------------------


def write_zero_module(tmp_path, group):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "ngens": 0, "relations": [],
        "action": {str(g): [] for g in range(group.order)}}),
        encoding="utf-8")
    return str(path)


def test_zero_module_is_the_free_module_of_rank_zero(tmp_path):
    z2, characters = load_group(bundled_path("group", "z2"))
    module = serialize.load_module(write_zero_module(tmp_path, z2), z2)
    assert module.zpi_free_rank == 0 and module.underlying.ngens == 0
    assert module.table == free_module(z2, 0).table
    coinv = gamma_coinvariants(module, characters["w"])
    assert coinv.presentation.invariant_factors() == (0, ())
    assert coinv.project([]) == [] and coinv.pull_back([]) == []


ZERO_CENSUS_TABLE = [
    "group order = 2",
    "module free rank over the group ring = 0",
    "coinvariants = 0",
    "torsion = 0",
    "count = 1",
    "involutions with sign -1: r = 1",
    "torsion matches (Z/2)^(r k) prediction: yes",
    "norm-quotient coinvariants = Z/2 (cyclic of group order: yes)",
    "norm-quotient first derived functor trivial: yes",
]

ZERO_INVARIANTS = {"description": "0", "rank": 0, "torsion": []}


def test_census_and_coinvariants_of_the_zero_module(tmp_path):
    z2, _ = load_group(bundled_path("group", "z2"))
    form = tmp_path / "form_rank0.json"
    form.write_text(json.dumps({"rank": 0, "matrix": []}), encoding="utf-8")
    common = ["--group", "z2", "--character", "w", "--module",
              write_zero_module(tmp_path, z2)]
    census_doc = {
        "coinvariants": ZERO_INVARIANTS, "command": "census", "count": 1,
        "free_rank": 0, "group_order": 2, "involution_rank": 1,
        "kappa_functional": None, "lambda_class": None,
        "lambda_primitive": None,
        "norm_quotient": {
            "coinvariants": {"description": "Z/2", "rank": 0,
                             "torsion": [2]},
            "cyclic_of_group_order": True, "tor1_trivial": True},
        "schema": "gammalab-report/1", "torsion": ZERO_INVARIANTS,
        "torsion_matches_involution_formula": True}
    with_form = dict(census_doc, form_matrix=[], lambda_class=[],
                     lambda_primitive=False)
    cases = [
        (["census"], ZERO_CENSUS_TABLE + ["form: not supplied"], census_doc),
        (["census", "--form", str(form)],
         ZERO_CENSUS_TABLE + [
             "form class in coinvariants = [] (primitive modulo torsion: no)",
             "splitting functional: absent"], with_form),
        (["coinvariants"], ["coinvariants = 0", "torsion subgroup = 0"],
         {"coinvariants": ZERO_INVARIANTS, "command": "coinvariants",
          "schema": "gammalab-report/1", "torsion": ZERO_INVARIANTS}),
    ]
    for head, lines, doc in cases:
        code, out, err = run_cli(head + common)
        assert (code, err) == (0, ""), head
        assert out.splitlines() == lines, head
        code, out, err = run_cli(head + common + ["--format", "structured"])
        assert (code, err) == (0, ""), head
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", head
