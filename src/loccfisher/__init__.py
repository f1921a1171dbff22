"""Quantum Fisher information and adaptive local-measurement protocol synthesis."""

from .tensor import (HilbertLayout, KetBraSum, complex_to_pairs, herm_eig, kron,
                     pairs_to_complex, partial_expectation, partial_trace,
                     sqrt_psd)
from .metrology import (MixedGenericFamily, Povm, PureNumericFamily,
                        RankTwoFixedBasisFamily, SaturationMatrices,
                        SaturationReport, SldResult, StateFamily,
                        UnitaryGeneratorFamily, check_saturation, fisher_info,
                        perp_component, qfi, saturation_matrices, sld)
from .zerodiag import (ZeroDiagConvergenceError, find_null_vector,
                       simultaneous_zero_diag, solve_2x2, zero_diag_basis)
from .locc import (DiscriminationReport, MeasurementTree, SynthesisError,
                   bloch_rows, discriminate, flatten, leaf_vectors, synthesize_at,
                   synthesize_tree, synthesize_trees, tree_from_json, tree_to_json,
                   verify_tree)
from .lm import (BipartiteCoeffs, IsometryPair, LmFeasibilityReport,
                 SearchReport, check_lm_conditions, coefficient_matrices,
                 construct_lm_2xd, heuristic_lm_search, lm_povm_from_pair)
from .simulate import (DegenerateLikelihoodError, SimConfig, SimReport,
                       leaf_distribution, mle, run_trials, two_step)
from .scenarios import (PauliStringTerm, Scenario, bell_states,
                        builtin_names, builtin_scenario, parse_scenario)

__version__ = "0.1.0"
