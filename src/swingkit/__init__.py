"""Swing-option pricing and policy analysis on scenario lattices.

The problem: maximize E[integral of u(s)X(s) ds] over adapted exercise rates
u in [0, L] with total volume at most 1. The package solves it by backward
induction on (time, node, volume level) grids, extracts bang-bang policies,
and cross-checks the solution through optimal-stopping representations of
the marginal value and martingale dual bounds.
"""

from .models import (Envelope, InvariantError, LatticeNode, PathEnsemble, PreconditionError,
                     ScenarioLattice, TimeGrid, build_binary_example, build_binomial,
                     count_paths, enumerate_paths, read_lattice, sample_paths,
                     write_lattice)
from .solver import (BoundaryReport, InvariantScan, ResidualScan, ValueField,
                     VolumeGrid, boundary_check, solve)
from .policy import (ExerciseBoundary, ExerciseRegions, MollifiedControl, PolicyField,
                     RolloutBundle, ThresholdScan, check_inclusion, check_saturation,
                     exercise_regions, exit_times, extract_policy, mollified_iterate, rollout)
from .stopping import (MarginalReport, MarginalRow, StoppingRule, evaluate_stop_rule,
                       marginal_value_report, optimal_predictable_stop)
from .duality import (DualReport, GapRow, MartingaleField, OptimalMartingaleResult,
                      build_optimal_martingale, constant_martingale,
                      doob_martingale_of_terminal, dual_value, dual_values,
                      duality_gap_study, random_martingale, random_terminal)
from .oracle import EnumerationResult, brute_force_value, closed_form

__version__ = "0.1.0"

__all__ = [
    "Envelope", "InvariantError", "LatticeNode", "PathEnsemble", "PreconditionError",
    "ScenarioLattice", "TimeGrid", "build_binary_example", "build_binomial", "count_paths",
    "enumerate_paths", "read_lattice", "sample_paths", "write_lattice",
    "BoundaryReport", "InvariantScan", "ResidualScan", "ValueField",
    "VolumeGrid", "boundary_check", "solve",
    "ExerciseBoundary", "ExerciseRegions", "MollifiedControl", "PolicyField",
    "RolloutBundle", "ThresholdScan", "check_inclusion", "check_saturation", "exercise_regions",
    "exit_times", "extract_policy", "mollified_iterate", "rollout",
    "MarginalReport", "MarginalRow", "StoppingRule",
    "evaluate_stop_rule", "marginal_value_report", "optimal_predictable_stop",
    "DualReport", "GapRow", "MartingaleField", "OptimalMartingaleResult",
    "build_optimal_martingale", "constant_martingale",
    "doob_martingale_of_terminal", "dual_value", "dual_values", "duality_gap_study",
    "random_martingale", "random_terminal",
    "EnumerationResult", "brute_force_value", "closed_form",
    "__version__",
]
