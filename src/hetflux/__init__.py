"""Finite-volume solver for 1D conservation laws with space-heterogeneous
convex flux: interface Riemann solvers, exact solutions, well-balanced
steady states, and an entropy/stability/convergence diagnostics suite."""

__version__ = "0.1.0"

from .errors import ConfigError, HetfluxError, InvariantBreach, NumericalError
from .flux_model import (
    CriticalCurve,
    FluxModel,
    ValidationReport,
    Violation,
    legendre_sup,
    legendre_transform,
    lipschitz_bound,
    validate_assumptions,
)
from .families import heterogeneous_quadratic, lwr, quadratic, two_state
from .interface import (
    FluxSide,
    GermClass,
    InterfaceContext,
    classify_germ,
    dissipativity_gap,
    entropy_flux,
    germ_pair,
    interface_flux,
    remainder,
)
from .riemann import (
    RiemannSolution,
    Wave,
    sample,
    solve_classical,
    solve_interface,
    wave_census,
)
from .steady import (
    Envelope,
    SteadyState,
    build_steady,
    envelope,
)
from .solver import (
    CflPolicy,
    GridState,
    Mesh,
    PiecewiseConstantDatum,
    RunResult,
    Scheme,
    SmoothDatum,
    datum_bump,
    datum_constant,
    datum_from_table,
    datum_step,
    project_initial,
    run,
    steady_residual,
)
from .diagnostics import (
    ConsistencyReport,
    ConvergenceReport,
    EntropyCheck,
    EntropyReport,
    TimeVariation,
    consistency_rate,
    convergence_study,
    norm_between_grids,
    riemann_error,
)
from .config import ExperimentConfig, make_config, parse_config

__all__ = [
    "__version__",
    "HetfluxError", "ConfigError", "NumericalError", "InvariantBreach",
    "FluxModel", "CriticalCurve", "Violation", "ValidationReport",
    "legendre_transform", "legendre_sup", "lipschitz_bound", "validate_assumptions",
    "quadratic", "two_state", "heterogeneous_quadratic", "lwr",
    "FluxSide", "InterfaceContext", "GermClass", "entropy_flux",
    "interface_flux", "remainder", "classify_germ",
    "germ_pair", "dissipativity_gap",
    "Wave", "RiemannSolution", "solve_classical", "solve_interface",
    "sample", "wave_census",
    "SteadyState", "Envelope", "build_steady", "envelope", "steady_residual",
    "Mesh", "GridState", "CflPolicy", "Scheme", "PiecewiseConstantDatum",
    "SmoothDatum", "datum_constant", "datum_step", "datum_bump",
    "datum_from_table", "project_initial",
    "run", "RunResult",
    "EntropyCheck", "TimeVariation", "EntropyReport", "ConsistencyReport",
    "ConvergenceReport", "consistency_rate", "convergence_study",
    "riemann_error", "norm_between_grids",
    "ExperimentConfig", "parse_config", "make_config",
]
