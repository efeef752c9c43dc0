"""Simulation and estimation toolkit for two-stage spread processes on Z^d.

The package simulates the two-stage contact process, its SIR variant and
the auxiliary linear pair process on finite truncations of Z^d, and
estimates the quantities that control the critical infection rate: exact
small-system transients, first-moment ODE thresholds, survival curves
with bisection for the critical rate, and the structured-walk
second-moment lower bound.
"""

__version__ = "0.1.0"

from .engine import (
    FULL,
    HEALTHY,
    RECOVERED,
    SEMI,
    LinearConfig,
    SparseConfig,
    TrajectorySummary,
    all_full_config,
    all_ones_linear,
    project_linear,
    simulate,
    simulate_linear,
    simulate_many,
    site_rates,
)
from .errors import (
    BracketError,
    DomainError,
    ParameterError,
    ResourceError,
    TwoStageError,
)
from .lattice import Box, LatticeGeometry, Site, Torus, l1_norm, origin
from .meanfield import (
    eigenvalues,
    is_subcritical,
    lambda_from_theta,
    lower_bound_lambda,
    moment_matrix,
    scaled_limit,
    solve_moments,
)
from .params import ProcessParams

__all__ = [
    "__version__",
    "Box",
    "BracketError",
    "DomainError",
    "FULL",
    "HEALTHY",
    "LatticeGeometry",
    "LinearConfig",
    "ParameterError",
    "ProcessParams",
    "RECOVERED",
    "ResourceError",
    "SEMI",
    "Site",
    "SparseConfig",
    "Torus",
    "TrajectorySummary",
    "TwoStageError",
    "all_full_config",
    "all_ones_linear",
    "eigenvalues",
    "is_subcritical",
    "l1_norm",
    "lambda_from_theta",
    "lower_bound_lambda",
    "moment_matrix",
    "origin",
    "project_linear",
    "scaled_limit",
    "simulate",
    "simulate_linear",
    "simulate_many",
    "site_rates",
    "solve_moments",
]
