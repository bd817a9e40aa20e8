"""Least-squares isotonic regression on lattices and general DAGs.

The package splits into six layers: partial orders (`orders`), cone
projection solvers (`solvers`), monotone test signals and perturbation
families (`signals`), cone-complexity instruments and risk-bound evaluators
(`complexity`), random-design fitting (`design`), and seeded sweep/report
plumbing with a CLI (`experiments`, `cli`).
"""

# the one place the version is written; `pyproject.toml` reads it from here
__version__ = "0.1.0"

from .complexity import (BoundParams, MonteCarloEstimate, bound_eval, default_gamma,
                         gaussian_width_mc, harmonic_sum, log_plus, mc_aggregate,
                         noise_stream, statdim_mc, width_lower_bound_mc)
from .design import (AntichainStats, DesignSampler, FittedFunction, antichain_stats,
                     chain_probability_formulas, chain_tail_check, draw_design,
                     empirical_risk, extend_estimator, l2p_risk_mc, merge_observations,
                     sample_design)
from .experiments import (ExperimentConfig, RiskReport, RiskRow, Table1Row,
                          emit_report, fit_rate_exponent, lattice_side, read_report,
                          run_fixed_sweep, run_random_sweep, table1)
from .orders import (AntichainReport, Dag, LatticeSpec, SizeCapError, build_design_dag,
                     build_lattice, is_isotonic, lattice_index, lattice_vertices,
                     level_antichain, level_antichain_report, level_cardinalities,
                     longest_chain, maximum_antichain, planar_width)
from .signals import (AssouadSpec, HyperrectPartition, PackingSet, SignalSpec,
                      assouad_fixed, assouad_random, box_sides, box_size,
                      diagonal_cells, diagonal_count_formulas, generate_signal,
                      grid_maps, grid_values, k_sheet_bound,
                      min_sheet_partition_bruteforce, packing_set_2d,
                      random_staircase_spec, riemann_envelopes, sheet_decomposition,
                      step_function)
from .solvers import (CertificateError, ConvergenceError, DualCertificate,
                      IsotonicProblem, ProjectionResult, is_chain, lse_fit,
                      project_partition, verify_projection_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
