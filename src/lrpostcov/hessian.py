"""Observation operator, covariance scalings, and the misfit Hessian action.

The prior-preconditioned data-misfit Hessian is applied matrix-free.  With
Γ_prior = gamma_prior·I and Γ_noise⁻¹ realized as the quadrature-consistent
scalar weight beta_noise·tau·M_scale on the sensor mask, it is H̃ = a²·PᵀP,
where P = S·K⁻¹ takes the injected parameter to the observed rows of its
forward solution and the one scalar a carries every scaling.  An apply is
a·Pᵀ(P(a·v)): the adjoint sweep reads the forward sweep's observed rows as
they are.  Three parameter modes are supported: the initial condition
(spatial vectors), a distributed space-time source (low-rank fields), and a
steady Poisson validation mode where the Hessian reduces to
(beta_prior/beta_noise)·L⁻².  Under a layout that observes a strict subset
of the dofs, the source mode's Krylov space moves to the data side, where
D = a²·P·Pᵀ is applied as a·P(a·Pᵀu), the same two sweeps in the other order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import Grid, SpatialOperator
from .errors import InvalidConfigError, check_real, shown
from .forward import COMPRESS_EVERY, SpaceTimeOperator, StepSolver
from .forward import st_solve_adjoint_sweep, st_solve_sweep
from .lowrank import LowRankMat, TruncationPolicy, lr_scale
from .lowrank import lr_truncate  # noqa: F401  bench/tracing.py wraps hessian.lr_truncate by name

MODE_IC = "ic"
MODE_SOURCE = "source"
MODE_STEADY = "steady"


def check_mode(mode: str, kind: str | None) -> None:
    """The mode rule: one of the three parameter modes, steady only on the heat operator."""
    modes = (MODE_IC, MODE_SOURCE, MODE_STEADY)
    if mode not in modes:
        raise InvalidConfigError(f"mode must be one of {modes}, got {shown(mode)}")
    if mode == MODE_STEADY and kind != "heat":
        raise InvalidConfigError("mode=steady requires problem=heat")


def _finite_positive(**values: float) -> bool:
    return all(math.isfinite(check_real(k, v)) and v > 0 for k, v in values.items())


@dataclass(frozen=True)
class CovarianceSpec:
    """Noise/prior covariance scalars; all finite and strictly positive.

    The prior covariance is gamma_prior·I.  ``from_gamma`` derives
    beta_prior from a given gamma_prior through gamma_prior·beta_prior·h² = 1.
    """

    beta_noise: float
    beta_prior: float
    gamma_prior: float

    def __post_init__(self):
        if not _finite_positive(beta_noise=self.beta_noise, beta_prior=self.beta_prior,
                                gamma_prior=self.gamma_prior):
            raise InvalidConfigError(
                "covariance scalars must be finite and strictly positive, got "
                f"beta_noise={self.beta_noise}, beta_prior={self.beta_prior}, "
                f"gamma_prior={self.gamma_prior}"
            )

    @classmethod
    def from_gamma(cls, gamma_prior: float, beta_ratio: float, grid: Grid) -> "CovarianceSpec":
        if not _finite_positive(gamma_prior=gamma_prior, beta_ratio=beta_ratio):
            raise InvalidConfigError("gamma_prior and beta_ratio must be finite and positive, "
                                     f"got {gamma_prior} and {beta_ratio}")
        beta_prior = 1.0 / (gamma_prior * grid.m_scale)
        return cls(beta_noise=beta_ratio * beta_prior, beta_prior=beta_prior,
                   gamma_prior=gamma_prior)


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
        if not (0 < cx < 1 and 0 < cy < 1 and 0 < side < math.inf):  # NaN fails too
            raise InvalidConfigError(f"patch ({cx}, {cy}, side={side}) needs a center inside "
                                     "the domain and a finite side > 0")
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


@dataclass
class HessianContext:
    """Everything needed to apply the prior-preconditioned misfit Hessian.

    ``rank_trace`` gets one entry per application in every mode, so its
    length counts applies: the larger rank of the two panes it stores, the
    forward pane over the observed rows and the adjoint pane (0 in steady
    mode).  A context should therefore not be shared by concurrent applies.
    """

    mode: str
    operator: SpaceTimeOperator | None
    layout: SensorLayout | None
    cov: CovarianceSpec
    pol: TruncationPolicy
    spatial: SpatialOperator | None = None  # steady mode only
    compress_every: int = COMPRESS_EVERY
    rank_trace: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.mode == MODE_STEADY and self.spatial is None:
            raise InvalidConfigError("steady mode needs a spatial operator")
        check_mode(self.mode, getattr(self.spatial, "kind", None))
        if self.mode == MODE_STEADY:
            self._steady = StepSolver(self.spatial, 0.0, 1.0)  # L itself, no time shift
        elif self.operator is None or self.layout is None:
            raise InvalidConfigError(f"mode {shown(self.mode)} needs operator and layout")

    @property
    def n_param(self) -> int:
        """Parameter dimension: n_x, or n_x·n_t for the space-time source."""
        if self.mode == MODE_STEADY:
            return self.spatial.grid.n_x
        if self.mode == MODE_SOURCE:
            return self.operator.n_x * self.operator.n_t
        return self.operator.n_x

    @property
    def data_side(self) -> bool:
        """Source mode under a layout that observes a strict subset of the dofs."""
        return self.mode == MODE_SOURCE and self.layout.n_active < self.operator.n_x

    @property
    def krylov_dim(self) -> int:
        """Dimension of the space Arnoldi runs in: n_active·n_t on the data side."""
        if self.data_side:
            return self.layout.n_active * self.operator.n_t
        return self.n_param

    @property
    def _a(self) -> float:
        """The one scale a of H̃ = a²·PᵀP: a² = γ·inj²·β_noise·τ·M_scale.

        The injection inj is M_scale for an initial condition and τ·M_scale
        for a source; β_noise·τ·M_scale is the observation weight.
        """
        K, cov = self.operator, self.cov
        inj = K.m_scale if self.mode == MODE_IC else K.time.tau * K.m_scale
        return math.sqrt(cov.gamma_prior * inj**2 * cov.beta_noise * (K.time.tau * K.m_scale))

    # an image past the float range is refused by the finiteness checks, not numpy's warning
    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, v, images: list | None = None):
        """H̃·v, or D·v for a data-side vector in source mode.

        ``v`` is a dense n_x-vector in IC and steady mode, and the result
        is one too.  In source mode a ``LowRankMat`` with n_x rows gets
        H̃·v as a ``LowRankMat``, under any layout, and on the data side a
        dense vector of length n_active·n_t (an n_active × n_t field,
        column-major) gets D·v as one (see ``_apply_data``, which appends
        the apply's image to ``images`` if a list is given).

        Both time-dependent modes apply a·Pᵀ(P(a·v)), with P = S·K⁻¹ taking
        the parameter, injected at unit scale, to the observed rows of its
        forward solution.  They differ only in the injection (an initial
        condition at time 0, or a source) and the matching adjoint
        extraction.  The forward sweep's pane holds only the observed rows,
        (n_active + n_t)·r floats, and the adjoint sweep reads it as it is;
        full observation is the mask of all rows.  Both sweeps run with
        ``modal=True``: the apply injects v in the step solver's modal
        coordinates (one column for an initial condition, v's basis for a
        source), a full-row forward pane reaches the adjoint sweep with no
        transform, and the apply transforms back only what it returns (the
        adjoint field's one column at time 0, or its basis).
        """
        if self.mode == MODE_STEADY:
            # (beta_prior/beta_noise)·L⁻¹·L⁻¹·v; L is symmetric, so adjoint = forward.
            # Both solves stay in modal coordinates: one transform each way.
            S = self._steady
            x = S.to_modal(np.asarray(v, dtype=float)[:, None])
            x = S.from_modal(S.solve_modal(S.solve_modal(x)))
            self.rank_trace.append(0)
            return (self.cov.beta_prior / self.cov.beta_noise) * x[:, 0]
        if self.mode == MODE_SOURCE and not isinstance(v, LowRankMat):
            return self._apply_data(v, images)
        K, a, S = self.operator, self._a, self.operator.solver
        if self.mode == MODE_IC:
            rhs = LowRankMat.from_column(S.to_modal(a * np.asarray(v, dtype=float)[:, None]),
                                         K.n_t, 0)
        else:
            rhs = lr_scale(LowRankMat(S.to_modal(v.W1), v.W2), a)
        Y = st_solve_sweep(K, rhs, self.pol, compress_every=self.compress_every,
                           rows=self.layout.mask, modal=True)
        del rhs  # not held through the adjoint sweep
        Q = st_solve_adjoint_sweep(K, Y, self.pol, compress_every=self.compress_every,
                                   rows=self.layout.mask, modal=True)
        self.rank_trace.append(max(Y.r, Q.r))
        if self.mode == MODE_IC:
            return a * S.from_modal(Q.column(0)[:, None])[:, 0]
        return lr_scale(LowRankMat(S.from_modal(Q.W1), Q.W2), a)

    def _apply_data(self, u, images: list | None) -> np.ndarray:
        """D·u = a·P·(a·Pᵀu): the adjoint sweep, then the forward sweep.

        D = a²·P·Pᵀ has H̃'s nonzero spectrum on n_active × n_t fields
        (Bui-Thanh, Ghattas, Martin & Stadler, SISC 2013).  The adjoint sweep
        reads u's field U as the rhs U·Iᵀ on the observed rows; its scaled
        output, the image a·Pᵀu, is a parameter-side field.  Since
        H̃·Pᵀ = Pᵀ·D, the images combined with the coefficients of a Ritz
        vector of D make a Ritz vector of H̃ with the same value.  Both sweeps
        run with ``modal=True``, so the image passes from one to the other
        in modal coordinates; it is transformed back to the grid only to be
        appended to ``images``, whose Ritz vectors stay physical.
        """
        K, n_active, mask = self.operator, self.layout.n_active, self.layout.mask
        if not self.data_side or np.shape(u) != (n_active * K.n_t,):
            raise ValueError("a dense source-mode vector needs a strict-subset layout and "
                             f"length {n_active * K.n_t}, got shape {np.shape(u)}")
        a = self._a
        U = np.asarray(u, dtype=float).reshape((n_active, K.n_t), order="F")
        image = st_solve_adjoint_sweep(K, LowRankMat(U, np.eye(K.n_t)), self.pol,
                                       compress_every=self.compress_every, rows=mask,
                                       modal=True)
        image = lr_scale(image, a)
        if images is not None:
            images.append(LowRankMat(K.solver.from_modal(image.W1), image.W2))
        Y = st_solve_sweep(K, image, self.pol, compress_every=self.compress_every, rows=mask,
                           modal=True)
        self.rank_trace.append(max(Y.r, image.r))
        return a * (Y.W1 @ Y.W2.T).ravel(order="F")
