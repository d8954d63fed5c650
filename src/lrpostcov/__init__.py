"""Low-rank posterior covariance approximation for space-time inverse problems.

The package approximates the posterior covariance of linear-Gaussian
Bayesian inverse problems governed by time-dependent PDEs.  The dominant
eigenpairs of the prior-preconditioned data-misfit Hessian are computed
with a truncated low-rank Arnoldi iteration whose vectors are stored as
skinny factor pairs, bringing computation and storage from O(n_x·n_t) down
to O(n_x + n_t).
"""

from .arnoldi import ArnoldiResult, StopRule, lr_arnoldi, ritz_pairs
from .discretize import (
    Grid,
    SpatialOperator,
    TimeGrid,
    analytic_poisson_eig,
    assemble_convdiff,
    assemble_heat,
    build_grid,
    build_time_grid,
    discrete_fd_eig,
    eigvec_dense,
)
from .errors import InvalidConfigError, NumericalError
from .forward import SpaceTimeOperator, st_solve_adjoint_sweep, st_solve_sweep
from .hessian import (
    CovarianceSpec,
    HessianContext,
    SensorLayout,
    full_observation,
    make_sensor_layout,
    make_sensor_layout_3x3,
)
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    lr_add,
    lr_dot,
    lr_from_dense,
    lr_norm,
    lr_scale,
    lr_to_dense,
    lr_truncate,
)
from .posterior import PosteriorSummary, build_summary, lambda_tilde, posterior_apply

__version__ = "0.1.0"

__all__ = [
    "ArnoldiResult", "StopRule", "lr_arnoldi", "ritz_pairs",
    "Grid", "SpatialOperator", "TimeGrid", "analytic_poisson_eig",
    "assemble_convdiff", "assemble_heat", "build_grid", "build_time_grid",
    "discrete_fd_eig", "eigvec_dense",
    "InvalidConfigError", "NumericalError",
    "SpaceTimeOperator", "st_solve_adjoint_sweep", "st_solve_sweep",
    "CovarianceSpec", "HessianContext", "SensorLayout", "full_observation",
    "make_sensor_layout", "make_sensor_layout_3x3",
    "LowRankMat", "TruncationPolicy", "lr_add", "lr_dot", "lr_from_dense",
    "lr_norm", "lr_scale", "lr_to_dense", "lr_truncate",
    "PosteriorSummary", "build_summary", "lambda_tilde", "posterior_apply",
]
