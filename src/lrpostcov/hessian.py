"""Observation operator, covariance scalings, and the misfit Hessian action.

The prior-preconditioned data-misfit Hessian is applied matrix-free as

    scale -> inject -> forward sweep -> observe/weight -> adjoint sweep
          -> extract -> scale,

with Γ_noise⁻¹ realized as the quadrature-consistent scalar weight
beta_noise·tau·M_scale on the sensor mask and Γ_prior = gamma_prior·I.
Three parameter modes are supported: the initial condition (spatial
vectors), a distributed space-time source (low-rank fields), and a steady
Poisson validation mode where the Hessian reduces to
(beta_prior/beta_noise)·L⁻².
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .discretize import Grid, SpatialOperator, TimeGrid
from .errors import InvalidConfigError
from .forward import SpaceTimeOperator, st_solve_adjoint_sweep, st_solve_sweep
from .lowrank import LowRankMat, TruncationPolicy, lr_scale
from .lowrank import lr_truncate  # noqa: F401  bench/tracing.py wraps hessian.lr_truncate by name

MODE_IC = "ic"
MODE_SOURCE = "source"
MODE_STEADY = "steady"


def _finite_positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


@dataclass(frozen=True)
class CovarianceSpec:
    """Noise/prior covariance scalars; all finite and strictly positive.

    The prior covariance is gamma_prior·I.  The two presets implement the
    single identity gamma_prior·beta_prior·h^d = 1 from either direction:
    ``from_gamma`` derives beta_prior from a given gamma_prior, and
    ``from_beta`` derives gamma_prior from a given beta_prior.
    """

    beta_noise: float
    beta_prior: float
    gamma_prior: float

    def __post_init__(self):
        if not _finite_positive(self.beta_noise, self.beta_prior, self.gamma_prior):
            raise InvalidConfigError(
                "covariance scalars must be finite and strictly positive, got "
                f"beta_noise={self.beta_noise}, beta_prior={self.beta_prior}, "
                f"gamma_prior={self.gamma_prior}"
            )

    @classmethod
    def from_gamma(cls, gamma_prior: float, beta_ratio: float, grid: Grid) -> "CovarianceSpec":
        if not _finite_positive(gamma_prior, beta_ratio):
            raise InvalidConfigError("gamma_prior and beta_ratio must be finite and positive, "
                                     f"got {gamma_prior} and {beta_ratio}")
        beta_prior = 1.0 / (gamma_prior * grid.m_scale)
        return cls(beta_noise=beta_ratio * beta_prior, beta_prior=beta_prior,
                   gamma_prior=gamma_prior)

    @classmethod
    def from_beta(cls, beta_prior: float, beta_ratio: float, grid: Grid) -> "CovarianceSpec":
        if not _finite_positive(beta_prior, beta_ratio):
            raise InvalidConfigError("beta_prior and beta_ratio must be finite and positive, "
                                     f"got {beta_prior} and {beta_ratio}")
        return cls(beta_noise=beta_ratio * beta_prior, beta_prior=beta_prior,
                   gamma_prior=1.0 / (beta_prior * grid.m_scale))


@dataclass(frozen=True)
class SensorLayout:
    """Axis-aligned square sensor patches and their dof mask."""

    patches: tuple[tuple[float, float, float], ...]  # (center_x1, center_x2, side)
    mask: np.ndarray  # bool, length n_x

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.mask))


def _axis_dof_range(center: float, side: float, grid: Grid) -> np.ndarray:
    """0-based dof indices whose coordinate lies in [center-side/2, center+side/2).

    The half-open convention makes a patch of side q·h cover exactly q dofs
    when its edges land on the lattice.
    """
    h = grid.h
    lo = math.ceil((center - side / 2) / h - 1 - 1e-12)
    hi = math.ceil((center + side / 2) / h - 1 - 1e-12)
    lo, hi = max(lo, 0), min(hi, grid.n_side)
    return np.arange(lo, hi)


def make_sensor_layout(patches, grid: Grid) -> SensorLayout:
    """Layout from (center_x1, center_x2, side) triples; each must cover >= 1 dof."""
    mask = np.zeros(grid.n_x, dtype=bool)
    for cx, cy, side in patches:
        if not (0 < cx < 1 and 0 < cy < 1 and side > 0):
            raise InvalidConfigError(f"patch ({cx}, {cy}, side={side}) is not inside the domain")
        ii = _axis_dof_range(cx, side, grid)
        jj = _axis_dof_range(cy, side, grid)
        if ii.size == 0 or jj.size == 0:
            raise InvalidConfigError(
                f"grid with n_side={grid.n_side} is too coarse to resolve a patch of side {side}"
            )
        mask[(jj[:, None] * grid.n_side + ii[None, :]).ravel()] = True
    return SensorLayout(patches=tuple(tuple(map(float, p)) for p in patches), mask=mask)


def make_sensor_layout_3x3(grid: Grid) -> SensorLayout:
    """Nine patches of area 1/256 centered at (i/4, j/4), i,j in {1,2,3}."""
    if grid.n_side < 15:
        raise InvalidConfigError(
            f"3x3 sensor layout needs n_side >= 15 to resolve side-1/16 patches, "
            f"got {grid.n_side}"
        )
    patches = [(i / 4, j / 4, 1 / 16) for j in (1, 2, 3) for i in (1, 2, 3)]
    return make_sensor_layout(patches, grid)


def full_observation(grid: Grid) -> SensorLayout:
    return SensorLayout(patches=(), mask=np.ones(grid.n_x, dtype=bool))


def apply_obs_weight(
    Y: LowRankMat,
    layout: SensorLayout,
    cov: CovarianceSpec,
    time: TimeGrid,
    m_scale: float,
) -> LowRankMat:
    """BᵀΓ_noise⁻¹B applied to the observed rows of a field.

    ``Y`` holds only the rows ``layout.mask`` selects, as the forward sweep
    returns them with ``rows=layout.mask``.  Its time factor is scaled by
    the uniform positive weight, so a canonical field stays canonical, and
    the result is embedded once into n_x rows, zero off the mask, as the
    adjoint sweep's rhs; the zero rows keep an orthonormal W1 orthonormal.
    """
    if Y.shape[0] != layout.n_active:
        raise ValueError(f"field has {Y.shape[0]} rows, the layout observes {layout.n_active}")
    out = lr_scale(Y, cov.beta_noise * time.tau * m_scale)
    W1 = np.zeros((layout.mask.size, out.r))
    W1[layout.mask] = out.W1
    return LowRankMat(W1, out.W2)


@dataclass
class HessianContext:
    """Everything needed to apply the prior-preconditioned misfit Hessian.

    ``rank_trace`` records one entry per time-dependent application: the
    larger rank of the two panes it stores, the forward pane over the
    observed rows and the adjoint pane.  A context should therefore not be
    shared by concurrent applications.
    """

    mode: str
    operator: SpaceTimeOperator | None
    layout: SensorLayout | None
    cov: CovarianceSpec
    pol: TruncationPolicy
    spatial: SpatialOperator | None = None  # steady mode only
    compress_every: int = 4
    rank_trace: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in (MODE_IC, MODE_SOURCE, MODE_STEADY):
            raise InvalidConfigError(f"unknown Hessian mode {self.mode!r}")
        if self.mode == MODE_STEADY:
            if self.spatial is None:
                raise InvalidConfigError("steady mode needs a spatial operator")
            if self.spatial.kind != "heat":
                raise InvalidConfigError("steady mode is defined for the heat operator")
            self._steady_lu = spla.splu(self.spatial.L.tocsc())
        elif self.operator is None or self.layout is None:
            raise InvalidConfigError(f"mode {self.mode!r} needs operator and layout")

    @property
    def n_param(self) -> int:
        """Parameter dimension: n_x, or n_x·n_t for the space-time source."""
        if self.mode == MODE_STEADY:
            return self.spatial.grid.n_x
        if self.mode == MODE_SOURCE:
            return self.operator.n_x * self.operator.n_t
        return self.operator.n_x

    def apply(self, v):
        """H̃·v: a dense vector in and out, a LowRankMat field in source mode.

        Both time-dependent modes run the same forward sweep, observation and
        adjoint sweep.  They differ only in the injection of the parameter
        (an initial condition M_scale·u at time 0, or a source tau·M_scale·u)
        and the matching adjoint extraction.  The forward sweep stores only
        the observed rows, (n_active + n_t)·r floats; full observation is
        the mask of all rows.
        """
        if self.mode == MODE_STEADY:
            return steady_poisson_apply(v, self.cov, self.spatial, lu=self._steady_lu)
        K = self.operator
        sqrt_g = math.sqrt(self.cov.gamma_prior)
        if self.mode == MODE_IC:
            rhs = LowRankMat.from_column(K.m_scale * (sqrt_g * np.asarray(v, dtype=float)),
                                         K.n_t, 0)
        else:
            rhs = lr_scale(lr_scale(v, sqrt_g), K.time.tau * K.m_scale)

        Y = st_solve_sweep(K, rhs, self.pol, compress_every=self.compress_every,
                           rows=self.layout.mask)
        del rhs  # not held through the adjoint sweep
        Z = apply_obs_weight(Y, self.layout, self.cov, K.time, K.m_scale)
        Q = st_solve_adjoint_sweep(K, Z, self.pol, compress_every=self.compress_every)
        self.rank_trace.append(max(Y.r, Q.r))
        if self.mode == MODE_IC:
            return sqrt_g * (K.m_scale * Q.column(0))
        return lr_scale(lr_scale(Q, K.time.tau * K.m_scale), sqrt_g)


def steady_poisson_apply(
    v: np.ndarray,
    cov: CovarianceSpec,
    spatial: SpatialOperator,
    lu=None,
) -> np.ndarray:
    """(beta_prior/beta_noise)·L⁻¹·L⁻¹·v; L symmetric so adjoint = forward."""
    if lu is None:
        lu = spla.splu(spatial.L.tocsc())
    x = lu.solve(np.asarray(v, dtype=float))
    x = lu.solve(x)
    return (cov.beta_prior / cov.beta_noise) * x
