"""Numerical laboratory for multiscale weakly interacting diffusions:
homogenized coefficients, particle simulation, and rate-functional evaluation."""

__version__ = "0.1.0"

from .config import ExperimentPlan, Rung, load_plan, parse_plan
from .effective import (AveragedCoefficients, EffectiveModel, SeparablePotential,
                        averaged_coefficients, gamma_separable, homogenize,
                        matrix_sqrt_psd)
from .errors import (CenteringError, EllipticityError, NumericalError,
                     SimulationError, SolverError, ValidationError)
from .experiments import run_experiment, write_effective_table, write_gamma_table
from .measures import EmpiricalMeasure, MeasurePath, wasserstein2
from .rate import (RateReport, TestDictionary, control_cost_bound,
                   dictionary_for_path, evaluate_jdg, hermite_dictionary)
from .scenarios import Scenario, get_scenario, scenario_names
from .simulate import (FeedbackControl, SimConfig, TrajectoryRecord,
                       constant_control, load_trajectory, load_trajectory_csv,
                       simulate_averaged, simulate_multiscale)
from .torus import CellSolution, FastCoefficients, TorusGrid, solve_cell

__all__ = [
    "AveragedCoefficients", "CellSolution", "CenteringError", "EffectiveModel",
    "EllipticityError", "EmpiricalMeasure", "ExperimentPlan", "FastCoefficients",
    "FeedbackControl", "MeasurePath", "NumericalError", "RateReport", "Rung",
    "Scenario", "SeparablePotential", "SimConfig", "SimulationError",
    "SolverError", "TestDictionary", "TorusGrid", "TrajectoryRecord",
    "ValidationError", "averaged_coefficients",
    "constant_control", "control_cost_bound", "dictionary_for_path",
    "evaluate_jdg", "gamma_separable", "get_scenario", "hermite_dictionary",
    "homogenize", "load_plan", "load_trajectory", "load_trajectory_csv",
    "matrix_sqrt_psd", "parse_plan",
    "run_experiment", "scenario_names", "simulate_averaged",
    "simulate_multiscale", "solve_cell", "wasserstein2",
    "write_effective_table", "write_gamma_table",
]
