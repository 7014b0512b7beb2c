"""Exact computational algebra for quadratic functor values over group
rings: Smith normal form, presented abelian groups, finite groups with
orientation characters, modules and their twisted coinvariants, group
homology up to degree four, hermitian forms, and the counting reports
built from them.
"""

from .abelian import AbelianHom, AbelianPresentation, format_invariants, tensor_product
from .builtins import (cyclic_group, dihedral_group_4, direct_product,
                       klein_four_group, quaternion_group, standard_library,
                       symmetric_group_3, trivial_group)
from .classify import (CensusReport, HermitianForm, KappaDiagnostics,
                       QuadraticTwoType, TwoTypeHomologySplit, census,
                       change_of_basis, check_hermitian, h4_twotype_split,
                       hermitian_closure, involution_rank_formula,
                       kappa_diagnostics, kappa_splitting, lambda_to_gamma,
                       module_census, obstruction_torsion, stabilize,
                       underlying_symmetric_matrix)
from .errors import (BudgetExceededError, GammaLabError,
                     GroupValidationError, IncompatibleInputError,
                     ParseError, SingularFormError, UnsupportedInputError)
from .gamma import (QuadraticValue, basis_labels, expand_square, gamma_rank,
                    induced_hom, induced_matrix, pair_index, polarization,
                    quadratic_module, quadratic_value, split_indices,
                    symmetric_matrix_of_value, value_of_symmetric_matrix)
from .groups import (FiniteGroup, GroupRingElement, OrientationChar,
                     SubgroupData, all_characters, automorphisms,
                     automorphisms_preserving, bar_involution, build_group,
                     central_involutions, norm_element, subgroup_and_cosets)
from .homology import (MAX_DEGREE, OrbitReport, group_homology,
                       homology_orbits, induced_homology_maps)
from .intmat import IntMatrix, SNFResult, SNFSolver, smith_normal_form
from .modules import (CoinvariantsResult, ZPiModule, direct_sum_module,
                      free_module, induced_coinvariants_map,
                      module_from_action, norm_quotient_module,
                      regular_module, restrict_module, sign_module,
                      tor_one, transfer_down, trivial_module,
                      twisted_coinvariants)
from .resolutions import (DEFAULT_BUDGET, Resolution, chain_resolution,
                          periodic_resolution)

__version__ = "0.1.0"
