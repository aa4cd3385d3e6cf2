"""Data-driven LPV controller synthesis from frequency response data.

Workflow: estimate frozen FRFs from closed-loop records, build stable
coprime-factor data, synthesize an OBF-parameterized gain-scheduled controller
by bisection over cone-feasibility subproblems, certify stability and
performance a posteriori, realize the controller as an LFR and simulate it
against the plant.
"""
from .analysis import (Certificate, MultiplierParameters, absorb_multiplier,
                       check_performance, check_stability,
                       compute_achieved_gamma, grid_winding, oracle_stability)
from .exceptions import (ConfigError, CutRoundsExhaustedError, DataFormatError,
                         EstimationError, LpvsynError, SimulationDivergedError,
                         SolverFailureError, StabilizationError,
                         SynthesisInfeasibleError)
from .factorization import (CHANNELS, BezoutWitness, ClosedLoopFactorData,
                            CoprimeFrfPair, assemble_closed_loop,
                            characteristic_data, coprime_from_closed_loop,
                            frozen_coprime_from_model, origin_factorization)
from .frfdata import (FrequencyGrid, FrfDataset, FrfResponse, SchedulingGrid,
                      TimeRecord, closed_loop_to_plant, etfe_estimate,
                      load_dataset, save_dataset)
from .lfr import (LfrController, build_lfr, filtered_square_reference,
                  constant_scheduling, frozen_controller_frf,
                  simulate_closed_loop, square_scheduling, step_metrics)
from .obf import (BasisBankRealization, ObfBasis, SchedulingBasis,
                  cluster_poles, eval_basis, eval_basis_at, laguerre_basis,
                  realize_bank, scheduling_eval)
from .plant import (LpvSurrogateModel, Trace, default_experiment_controller,
                    default_surrogate, frozen_frf, frozen_tf,
                    generate_experiment, load_surrogate, load_trace,
                    save_trace, simulate_lpv)
from .rational import RationalTf, internally_stable, statespace_tf
from .selection import BasisPair, basis_selection_iterate
from .synthesis import (ConstraintMap, ControllerParameters, ParameterLayout,
                        SynthesisOptions, SynthesisProblem, SynthesisResult,
                        WeightSet, add_integral_action, assemble_constraints,
                        bisect_gamma, closed_loop_data, evaluate_factors,
                        factor_rationals, feasibility_solve,
                        frozen_controller_tf)

__version__ = "0.1.0"
