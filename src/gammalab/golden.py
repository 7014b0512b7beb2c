"""The built-in verification suite of known values.

Every check recomputes a published-in-stone value of this library's domain
— functor values of small groups, coinvariant torsion, homology of small
2-types, census counts — from the bundled inputs, and compares exactly.
The suite is what the ``verify-paper`` command runs; it needs no user
files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .abelian import AbelianPresentation, format_invariants
from .classify import (QuadraticTwoType, census, check_hermitian,
                       h4_twotype_split, involution_rank_formula,
                       kappa_splitting, module_census, obstruction_torsion)
from .gamma import gamma_rank, quadratic_value
from .groups import FiniteGroup, OrientationChar, all_characters
from .modules import (free_module, norm_quotient_module, tor_one,
                      twisted_coinvariants)
from .homology import group_homology
from .serialize import (bundled_names, bundled_path, load_form, load_group,
                        load_module)

__all__ = ["GoldenCheck", "run_golden_suite"]


@dataclass
class GoldenCheck:
    label: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


def _load_bundled_groups() -> Dict[str, Tuple[FiniteGroup, Dict[str, OrientationChar]]]:
    return {name: load_group(bundled_path("group", name))
            for name in bundled_names("group")}


def run_golden_suite() -> List[GoldenCheck]:
    """Recompute every frozen known value; a check passes when the computed
    description equals the expected one character for character."""
    checks: List[GoldenCheck] = []
    groups = _load_bundled_groups()
    z2, z2_chars = groups["z2"]
    w_tw = z2_chars["w"]
    w_triv = z2_chars["trivial"]
    trivial_group, trivial_chars = groups["trivial"]

    # Functor values of small abelian groups.
    checks.append(GoldenCheck(
        label="functor value of Z/2",
        expected="Z/4",
        computed=quadratic_value(
            AbelianPresentation.from_relation_rows(1, [[2]])).describe()))
    for n in range(1, 6):
        checks.append(GoldenCheck(
            label=f"functor value of Z^{n} is free of rank {gamma_rank(n)}",
            expected=format_invariants(gamma_rank(n), ()),
            computed=quadratic_value(AbelianPresentation.free(n)).describe()))

    # Coinvariant torsion of the regular module over Z/2, twisted.
    checks.append(GoldenCheck(
        label="obstruction torsion of the twisted regular module over Z/2",
        expected="Z/2",
        computed=obstruction_torsion(z2, w_tw, free_module(z2, 1)).describe()))

    # The split module Z + Z^- over Z/2: coinvariants and count.
    split_module = load_module(bundled_path("module", "z2_z_plus_ztwist"), z2)
    split_report = module_census(z2, w_tw, split_module)
    checks.append(GoldenCheck(
        label="twisted coinvariants of the functor value of Z + Z^- over Z/2",
        expected="Z + Z/2 + Z/2",
        computed=split_report.coinvariants.describe()))
    checks.append(GoldenCheck(
        label="census count for Z + Z^- over Z/2, twisted",
        expected="4",
        computed=str(split_report.count)))

    # The involution-count formula across every bundled group and character.
    formula_failures = []
    for name in sorted(groups):
        group, _ = groups[name]
        for w in all_characters(group):
            torsion = obstruction_torsion(group, w, free_module(group, 1))
            r = involution_rank_formula(group, w)
            if torsion.invariant_factors() != (0, (2,) * r):
                formula_failures.append(
                    f"{name} w={list(w.values)}: "
                    f"{torsion.describe()} vs r={r}")
    checks.append(GoldenCheck(
        label=("obstruction torsion of the regular module is elementary "
               "abelian of rank = #(involutions with sign -1), for every "
               "bundled group and character"),
        expected="all agree",
        computed="all agree" if not formula_failures
        else "; ".join(formula_failures)))

    # Norm-quotient exactness facts for every bundled group and character.
    norm_failures = []
    for name in sorted(groups):
        group, _ = groups[name]
        for w in all_characters(group):
            nq = norm_quotient_module(group, w)
            coinv = twisted_coinvariants(nq, w).presentation
            cyclic = (group.order,) if group.order > 1 else ()
            if coinv.invariant_factors() != (0, cyclic):
                norm_failures.append(
                    f"{name} w={list(w.values)}: coinvariants "
                    f"{coinv.describe()}")
            tor = tor_one(nq, w, budget=None)
            if tor.invariant_factors() != (0, ()):
                norm_failures.append(
                    f"{name} w={list(w.values)}: derived functor "
                    f"{tor.describe()}")
    checks.append(GoldenCheck(
        label=("norm-quotient coinvariants are cyclic of the group order "
               "with vanishing first derived functor, for every bundled "
               "group and character"),
        expected="all agree",
        computed="all agree" if not norm_failures
        else "; ".join(norm_failures)))

    # Degree-4 homology of Z/2 with twisted integers, both providers.
    h4_cyclic = group_homology(z2, w_tw, 4, provider="cyclic")
    h4_bar = group_homology(z2, w_tw, 4, provider="bar")
    checks.append(GoldenCheck(
        label="degree-4 twisted homology of Z/2 (periodic provider)",
        expected="Z/2",
        computed=h4_cyclic.describe()))
    checks.append(GoldenCheck(
        label="degree-4 twisted homology of Z/2 (chain provider)",
        expected="Z/2",
        computed=h4_bar.describe()))

    # Degree-4 split homology of the twisted regular 2-type over Z/2.
    split = h4_twotype_split(z2, w_tw, free_module(z2, 1))
    checks.append(GoldenCheck(
        label="degree-4 homology of the twisted regular 2-type over Z/2",
        expected="Z + Z/2 + Z/2",
        computed=split.total.describe()))

    # Census counts from the bundled forms.
    rp4_form = load_form(bundled_path("form", "rp4cp2"), z2, w_tw)
    rp4_report = census(QuadraticTwoType.from_form(z2, w_tw, rp4_form))
    checks.append(GoldenCheck(
        label="census count for the twisted rank-one 2-type over Z/2 "
              "(unit diagonal form)",
        expected="2",
        computed=str(rp4_report.count)))
    unit_form = load_form(bundled_path("form", "trivial_unit"),
                          trivial_group, trivial_chars["trivial"])
    unit_report = census(QuadraticTwoType.from_form(
        trivial_group, trivial_chars["trivial"], unit_form))
    checks.append(GoldenCheck(
        label="census count for the trivial-group unit form",
        expected="1",
        computed=str(unit_report.count)))

    # Splitting functionals exist for the bundled forms whose character is
    # trivial (unimodular seeds where a functional is promised).
    kappa_results = []
    for name, group_name, char_name in [
            ("trivial_unit", "trivial", "trivial"),
            ("z2_hyperbolic", "z2", "trivial")]:
        group, chars = groups[group_name]
        form = load_form(bundled_path("form", name), group, chars[char_name])
        if not check_hermitian(form):
            kappa_results.append(f"{name}: not hermitian")
            continue
        functional = kappa_splitting(
            group, chars[char_name], free_module(group, form.rank), form)
        kappa_results.append(
            f"{name}: {'present' if functional is not None else 'absent'}")
    checks.append(GoldenCheck(
        label="splitting functional for the bundled trivial-character "
              "unimodular forms",
        expected="trivial_unit: present; z2_hyperbolic: present",
        computed="; ".join(kappa_results)))

    return checks
