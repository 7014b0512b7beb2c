"""Differential test: automorphism actions on homology from the cokernel of
``d_{k+1}`` against the kernel-basis oracle.

``induced_homology_maps`` presents ``H_k`` by the torsion of the cokernel
of ``d_{k+1}``: unit pivots are eliminated sparsely, one Smith normal form
finishes the remainder, and each automorphism's chain map is pushed through
the eliminations.  The oracle here presents ``H_k`` as the kernel of
``d_k`` modulo the image of ``d_{k+1}`` on a basis of the kernel lattice
(``homology_with_basis``), builds each automorphism's dense chain map from
the tuples of the chain resolution, and solves it in the kernel basis with
``SNFSolver``.  It always runs on the chain (bar) resolution, so on cyclic
groups the periodic resolution is checked against it too.

The two presentations pick different bases, so only basis-free quantities
are compared: torsion invariants, the number of automorphisms, the orbit
count and sorted orbit sizes under sign and automorphisms, and for each
automorphism (both routes list them in the same order) the number of
torsion classes it fixes.  The cases are every bundled (group, character,
degree) on which the oracle takes about a second at most.

``homology_orbits`` pushes only the automorphisms that, with the inner
ones, generate all of them.  Its reports are compared field by field with
the walk that pushes every automorphism, on every bundled group and
character in degrees 0 to 3 (0 to 2 for ``d4`` and ``q8``), under the
automatic and the bar provider.
"""

import pytest

from gammalab.abelian import AbelianHom
from gammalab.builtins import (cyclic_group, dihedral_group_4,
                               direct_product, standard_library)
from gammalab.errors import IncompatibleInputError
from gammalab.groups import (all_characters, automorphisms,
                             automorphisms_preserving,
                             generators_modulo_inner)
from gammalab import homology
from gammalab.homology import (homology_orbits, homology_with_basis,
                               induced_homology_maps)
from gammalab.intmat import IntMatrix, SNFSolver, from_sparse_columns
from gammalab.resolutions import chain_tuples, twisted_chain_columns
from gammalab.serialize import bundled_names, bundled_path, load_group

# Highest degree the oracle reaches in about a second, per group.
ORACLE_TOP_DEGREE = {"trivial": 4, "z2": 4, "z3": 4, "z4": 3, "z6": 2,
                     "klein4": 4, "s3": 2, "d4": 1, "q8": 1}


def cases():
    library = standard_library()
    for name, top in sorted(ORACLE_TOP_DEGREE.items()):
        group = library[name]
        for index, w in enumerate(all_characters(group)):
            for k in range(top + 1):
                yield pytest.param(group, w, k, id=f"{name}-w{index}-H{k}")


def twisted_differential(group, w, k):
    """Dense twisted bar differential ``d_k``; ``d_0`` is the zero map."""
    if k == 0:
        return IntMatrix(0, 1)
    return from_sparse_columns((group.order - 1) ** (k - 1),
                               twisted_chain_columns(group, w, k))


def relabeling(group, k, alpha):
    """Dense degree-``k`` chain map of an automorphism: tuple ``t`` goes to
    ``alpha(t)``, entry by entry."""
    tuples = chain_tuples(group, k)
    index = {t: i for i, t in enumerate(tuples)}
    mat = IntMatrix.zeros(len(tuples), len(tuples))
    for j, t in enumerate(tuples):
        mat.data[index[tuple(alpha[g] for g in t)]][j] = 1
    return mat


def oracle_maps(group, w, k):
    pres, basis = homology_with_basis(twisted_differential(group, w, k),
                                      twisted_differential(group, w, k + 1))
    auts = automorphisms_preserving(group, w)
    if basis.cols == 0:
        return pres, [AbelianHom.identity(pres) for _ in auts]
    solver = SNFSolver(basis)
    return pres, [AbelianHom(pres, pres, solver.solve_matrix(
        relabeling(group, k, alpha).mul(basis))) for alpha in auts]


def torsion_action(pres, homs):
    """Each torsion class as a canonical key, and per hom the key of each
    class's image."""
    zeros = [0] * pres.rank
    keys = list(pres.enumerate_torsion())
    vectors = [pres.from_canonical(zeros, key) for key in keys]
    images = [[pres.to_canonical(hom.apply(x))[1] for x in vectors]
              for hom in homs]
    return keys, images


def orbit_sizes(pres, homs):
    keys, images = torsion_action(pres, homs)
    parent = {key: key for key in keys}

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    def negate(key):
        return pres.to_canonical([-c for c in pres.from_canonical(
            [0] * pres.rank, key)])[1]

    for key in keys:
        parent[find(negate(key))] = find(key)
    for image in images:
        for key, moved in zip(keys, image):
            parent[find(moved)] = find(key)
    sizes = {}
    for key in keys:
        root = find(key)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values())


def fixed_points(pres, homs):
    keys, images = torsion_action(pres, homs)
    return [sum(1 for key, moved in zip(keys, image) if key == moved)
            for image in images]


@pytest.mark.parametrize("group, w, k", cases())
def test_cokernel_route_matches_kernel_basis_oracle(group, w, k):
    expected, oracle_homs = oracle_maps(group, w, k)
    providers = ["bar", "cyclic"] if group.is_cyclic() else ["bar"]
    for provider in providers:
        pres, homs = induced_homology_maps(group, w, k, provider=provider,
                                           budget=None)
        assert pres.invariant_factors() == expected.invariant_factors()
        assert len(homs) == len(oracle_homs)
        assert fixed_points(pres, homs) == fixed_points(expected, oracle_homs)
        report = homology_orbits(group, w, k, provider=provider, budget=None)
        assert report.free_rank == expected.rank
        assert report.automorphism_count == len(oracle_homs)
        sizes = orbit_sizes(expected, oracle_homs)
        assert report.orbit_count == len(sizes)
        assert sorted(size for _, size in report.orbits) == sizes


def test_a_relabeling_that_is_not_a_chain_map_is_refused(monkeypatch):
    """Swapping the generator of Z/4 with its square is a bijection but not
    an automorphism.  Any integer matrix is an endomorphism of Z/4, so only
    the chain-map check can refuse it."""
    z4 = standard_library()["z4"]
    w = all_characters(z4)[0]
    one = next(g for g in range(4) if z4.element_order(g) == 4)
    two = z4.table[one][one]
    swap = list(range(4))
    swap[one], swap[two] = two, one
    monkeypatch.setattr(homology, "automorphisms_preserving",
                        lambda group, w, budget: [list(range(4)), swap])
    with pytest.raises(IncompatibleInputError, match="chain map"):
        induced_homology_maps(z4, w, 1, provider="bar")


def test_an_automorphism_that_moves_the_character_is_refused(monkeypatch):
    """An automorphism of the Klein four-group that does not preserve a
    nontrivial character is a chain map of the untwisted complex only."""
    klein4 = standard_library()["klein4"]
    identity = tuple(range(4))
    for w in all_characters(klein4)[1:]:
        moving = next(alpha for alpha in automorphisms(klein4)
                      if any(w(alpha[g]) != w(g) for g in range(4)))
        monkeypatch.setattr(homology, "automorphisms_preserving",
                            lambda group, w, budget: [identity, moving])
        for k in range(1, 4):
            with pytest.raises(IncompatibleInputError, match="chain map"):
                induced_homology_maps(klein4, w, k, provider="bar")


# -- orbits from generators modulo inner automorphisms ----------------------


def orbits_over_every_automorphism(group, w, k, provider):
    """The orbit report with every character-preserving automorphism
    pushed, inner ones and the identity included: the walk
    ``homology_orbits`` made before it pushed generators only."""
    pres, homs = induced_homology_maps(group, w, k, provider=provider,
                                       budget=None)
    vec_of = {key: pres.from_canonical([0] * pres.rank, key)
              for key in pres.enumerate_torsion()}
    orbits, seen = [], set()
    for key in sorted(vec_of):
        if key in seen:
            continue
        stack, orbit = [key], set()
        while stack:
            current = stack.pop()
            if current in orbit:
                continue
            orbit.add(current)
            x = vec_of[current]
            images = [[-c for c in x]]
            for hom in homs:
                y = hom.apply(x)
                images += [y, [-c for c in y]]
            stack += [pres.to_canonical(y)[1] for y in images]
        seen |= orbit
        orbits.append((min(orbit), len(orbit)))
    orbits.sort(key=lambda item: item[0])
    return pres, pres.rank, len(homs), len(orbits), orbits


def bundled_orbit_cases():
    for name in sorted(bundled_names("group")):
        group, characters = load_group(bundled_path("group", name))
        top = 2 if name in ("d4", "q8") else 3
        for char in sorted(characters):
            for k in range(top + 1):
                yield pytest.param(group, characters[char], k,
                                   id=f"{name}-{char}-H{k}")


@pytest.mark.parametrize("group, w, k", bundled_orbit_cases())
def test_generator_orbits_match_orbits_over_every_automorphism(group, w, k):
    for provider in ("auto", "bar"):
        pres, free_rank, count, orbit_count, orbits = \
            orbits_over_every_automorphism(group, w, k, provider)
        report = homology_orbits(group, w, k, provider=provider, budget=None)
        assert report.presentation.ngens == pres.ngens
        assert report.presentation.relations.data == pres.relations.data
        assert report.free_rank == free_rank
        assert report.automorphism_count == count
        assert report.orbit_count == orbit_count
        assert report.orbits == orbits


def test_a_group_of_order_sixteen_is_charged_not_refused():
    """Z/2 x d4 has 64 automorphisms.  Its generators, one of order 4 and
    two of order 2, have 4, 11 and 11 candidates: 484 tuples times 16
    elements is within the default budget, and the orbits match the walk
    over every automorphism."""
    group = direct_product(cyclic_group(2), dihedral_group_4())
    w = all_characters(group)[0]
    report = homology_orbits(group, w, 1)
    assert report.presentation.invariant_factors() == (0, (2, 2, 2))
    assert (report.automorphism_count, report.orbit_count) == (64, 4)
    _, free_rank, count, orbit_count, orbits = \
        orbits_over_every_automorphism(group, w, 1, "auto")
    assert (report.free_rank, report.automorphism_count, report.orbit_count,
            report.orbits) == (free_rank, count, orbit_count, orbits)


def test_orbits_push_generators_modulo_inner_automorphisms():
    """Aut_w is generated by the inner automorphisms and the kept ones,
    which never include the identity, and the counts are those of
    Aut/Inn: S_3 for klein4 and q8, Z/2 for d4, trivial for s3."""
    pushed = {("klein4", "trivial"): 2, ("q8", "trivial"): 2,
              ("d4", "trivial"): 1, ("s3", "trivial"): 0, ("z2", "w"): 0}
    for (name, char), count in pushed.items():
        group, characters = load_group(bundled_path("group", name))
        auts = automorphisms_preserving(group, characters[char])
        kept = generators_modulo_inner(group, auts)
        assert len(kept) == count and tuple(range(group.order)) not in kept
        inner = [tuple(group.table[group.table[g][x]][group.inverse[g]]
                       for x in range(group.order))
                 for g in range(group.order)]
        closed, frontier = set(inner), list(inner)
        while frontier:
            alpha = frontier.pop()
            for gen in inner + kept:
                beta = tuple(gen[x] for x in alpha)
                if beta not in closed:
                    closed.add(beta)
                    frontier.append(beta)
        assert closed == set(auts)
