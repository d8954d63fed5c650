"""All-at-once space-time operator for implicit Euler and its low-rank solvers.

The operator K acts block lower-bidiagonally on a stacked field
vec([y_1, ..., y_{n_t}]): block k of K·vec(Y) is

    step_matrix · y_k  -  M_scale · y_{k-1},      y_0 := 0,

with step_matrix = M_scale·(I + tau·L).  In factor form this is

    K(W1·W2ᵀ) = (step_matrix·W1)·W2ᵀ - (M_scale·W1)·(S·W2)ᵀ,

where S is the lower time shift, so K and Kᵀ map low-rank fields to
low-rank fields with at most doubled rank.  step_matrix is factorized once
per (operator, tau) pair and the factorization is reused for every solve,
including transposed ones.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import SpatialOperator, TimeGrid
from .errors import NumericalError
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    lr_add,
    lr_scale,
    lr_truncate,
)


class SpaceTimeOperator:
    """Block-bidiagonal implicit-Euler operator with a cached factorization."""

    def __init__(self, spatial: SpatialOperator, time: TimeGrid):
        self.spatial = spatial
        self.time = time
        n_x = spatial.grid.n_x
        self.m_scale = spatial.m_scale
        self.step_matrix = (
            self.m_scale * (sp.identity(n_x, format="csr") + time.tau * spatial.L)
        ).tocsc()
        try:
            self._lu = spla.splu(self.step_matrix)
        except RuntimeError as exc:  # singular factorization surfaces to callers
            raise NumericalError(f"step matrix factorization failed: {exc}") from exc

    @property
    def n_x(self) -> int:
        return self.spatial.grid.n_x

    @property
    def n_t(self) -> int:
        return self.time.n_t

    def solve_step(self, B: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """step_matrix⁻¹·B (or its transpose's inverse), B with columns as rhs."""
        B = np.asarray(B, dtype=float)
        squeeze = B.ndim == 1
        if squeeze:
            B = B[:, None]
        X = self._lu.solve(B, trans="T" if adjoint else "N")
        return X[:, 0] if squeeze else X

    def _shift(self, W2: np.ndarray, adjoint: bool) -> np.ndarray:
        """S·W2 (forward) or Sᵀ·W2 (adjoint) on the time factor."""
        out = np.zeros_like(W2)
        if adjoint:
            out[:-1, :] = W2[1:, :]
        else:
            out[1:, :] = W2[:-1, :]
        return out

    def apply(self, Y: LowRankMat) -> LowRankMat:
        """K·vec(Y) in factor form (rank at most doubles; not truncated)."""
        if Y.r == 0:
            return Y
        return LowRankMat(
            np.hstack([self.step_matrix @ Y.W1, -self.m_scale * Y.W1]),
            np.hstack([Y.W2, self._shift(Y.W2, adjoint=False)]),
        )

    def apply_adjoint(self, Y: LowRankMat) -> LowRankMat:
        """Kᵀ·vec(Y) in factor form."""
        if Y.r == 0:
            return Y
        return LowRankMat(
            np.hstack([self.step_matrix.T @ Y.W1, -self.m_scale * Y.W1]),
            np.hstack([Y.W2, self._shift(Y.W2, adjoint=True)]),
        )


class InitInjection:
    """Maps an initial condition u to the rhs with block 1 = M_scale·u.

    The adjoint extracts M_scale times the first time block of a field.
    """

    def __init__(self, K: SpaceTimeOperator):
        self.m_scale = K.m_scale
        self.n_t = K.n_t

    def rhs(self, u: np.ndarray) -> LowRankMat:
        return LowRankMat.from_column(self.m_scale * np.asarray(u, dtype=float), self.n_t, 0)

    def extract(self, Y: LowRankMat) -> np.ndarray:
        return self.m_scale * Y.column(0)


class DistributedInjection:
    """Blockwise source injection u ↦ tau·M_scale·u; self-adjoint up to scale."""

    def __init__(self, K: SpaceTimeOperator):
        self.scale = K.time.tau * K.m_scale

    def rhs(self, U: LowRankMat) -> LowRankMat:
        return lr_scale(U, self.scale)

    def extract(self, Y: LowRankMat) -> LowRankMat:
        return lr_scale(Y, self.scale)


def _record(trace: list | None, rank: int) -> None:
    if trace is not None:
        trace.append(rank)


def st_solve_sweep(
    K: SpaceTimeOperator,
    rhs,
    pol: TruncationPolicy,
    adjoint: bool = False,
    compress_every: int = 4,
    trace: list | None = None,
) -> LowRankMat:
    """Solve K·vec(Y) = vec(rhs) (or Kᵀ for adjoint=True) by time substitution.

    ``rhs`` is a LowRankMat field, or a spatial vector which is treated as
    an injected initial condition.  One sparse solve per step on the running
    column plus one multi-column solve for the rhs factor; the growing
    solution pane is recompressed every ``compress_every`` steps so storage
    stays O((n_x + n_t)·r).
    """
    if isinstance(rhs, np.ndarray):
        rhs = InitInjection(K).rhs(rhs)
    n_x, n_t = K.n_x, K.n_t
    if rhs.shape != (n_x, n_t):
        raise ValueError(f"rhs shape {rhs.shape} does not match operator {(n_x, n_t)}")
    if rhs.r == 0:
        return LowRankMat.zeros(n_x, n_t)

    B = K.solve_step(rhs.W1, adjoint=adjoint)  # step⁻¹ applied to the rhs factor
    steps = range(n_t - 1, -1, -1) if adjoint else range(n_t)

    pane = LowRankMat.zeros(n_x, n_t)
    buf_cols: list[np.ndarray] = []
    buf_idx: list[int] = []
    y_prev = np.zeros(n_x)

    def flush():
        nonlocal pane
        if not buf_cols:
            return
        W1 = np.column_stack(buf_cols)
        W2 = np.zeros((n_t, len(buf_idx)))
        W2[buf_idx, np.arange(len(buf_idx))] = 1.0
        pane = lr_truncate(lr_add(pane, LowRankMat(W1, W2)), pol)
        # stored rank of the running approximation; the transient working
        # width is bounded by this plus the compress_every buffer
        _record(trace, pane.r)
        buf_cols.clear()
        buf_idx.clear()

    for count, k in enumerate(steps, start=1):
        y_k = K.solve_step(K.m_scale * y_prev, adjoint=adjoint) + B @ rhs.W2[k, :]
        buf_cols.append(y_k)
        buf_idx.append(k)
        y_prev = y_k
        if count % compress_every == 0:
            flush()
    flush()
    _record(trace, pane.r)
    return pane


def st_solve_adjoint_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    compress_every: int = 4,
    trace: list | None = None,
) -> LowRankMat:
    """Kᵀ-solve by backward-in-time substitution with the transposed factorization."""
    return st_solve_sweep(
        K, rhs, pol, adjoint=True, compress_every=compress_every, trace=trace
    )

