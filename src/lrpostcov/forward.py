"""All-at-once space-time operator for implicit Euler and its low-rank solvers.

The operator K acts block lower-bidiagonally on a stacked field
vec([y_1, ..., y_{n_t}]): block k of K·vec(Y) is

    step_matrix · y_k  -  M_scale · y_{k-1},      y_0 := 0,

with step_matrix = M_scale·(I + tau·L).  In factor form this is

    K(W1·W2ᵀ) = (step_matrix·W1)·W2ᵀ - (M_scale·W1)·(S·W2)ᵀ,

where S is the lower time shift, so K and Kᵀ map low-rank fields to
low-rank fields with at most doubled rank.  step_matrix is factorized once
per (operator, tau) pair and the factorization is reused for every solve,
including transposed ones.  It has symmetric sparsity and is strictly
diagonally dominant (heat and upwind convection-diffusion alike), so the LU
uses a symmetric minimum-degree ordering and never pivots off the diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import SpatialOperator, TimeGrid
from .errors import NumericalError
from .lowrank import LowRankMat, TruncationPolicy, lr_truncate


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
            self._lu = spla.splu(self.step_matrix, permc_spec="MMD_AT_PLUS_A")
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


def _extend_pane(pane: LowRankMat, W: np.ndarray, idx: list[int],
                 pol: TruncationPolicy) -> LowRankMat:
    """Truncate pane + W·Eᵀ, where E places column i of W at time idx[i].

    A non-empty pane is canonical, so Q = pane.W1 is orthonormal: the new
    columns split as W = Q·C + Qb·Rb (CGS2, then a thin QR of the
    remainder), and the sum is [Q Qb]·[[I, C], [0, Rb]]·[pane.W2 E]ᵀ.  Only
    the (r + c) × n_t coefficient field is truncated, and the basis is
    rotated once; no QR of an n_x × (r + c) factor is formed.
    """
    E = np.zeros((pane.shape[1], len(idx)))
    E[idx, np.arange(len(idx))] = 1.0
    if pane.r == 0:
        return lr_truncate(LowRankMat(W, E), pol)
    Q, r = pane.W1, pane.r
    C = Q.T @ W
    R = W - Q @ C
    C2 = Q.T @ R
    R -= Q @ C2
    C += C2
    Qb, Rb = np.linalg.qr(R)
    # a remainder at rounding level leaves the normalized Qb visibly
    # non-orthogonal to Q; one more projection restores it
    D = Q.T @ Qb
    Qb, Rd = np.linalg.qr(Qb - Q @ D)
    C += D @ Rb
    Rb = Rd @ Rb
    core = np.block([[np.eye(r), C], [np.zeros((len(Rb), r)), Rb]])
    small = lr_truncate(LowRankMat(core, np.hstack([pane.W2, E])), pol)
    return LowRankMat(Q @ small.W1[:r] + Qb @ small.W1[r:], small.W2)


def st_solve_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    adjoint: bool = False,
    compress_every: int = 4,
    rows: np.ndarray | None = None,
) -> LowRankMat:
    """Solve K·vec(Y) = vec(rhs) (or Kᵀ for adjoint=True) by time substitution.

    An initial condition u enters as ``LowRankMat.from_column(M_scale·u,
    n_t, 0)``.  One sparse solve per step on the running column plus one
    multi-column solve for the rhs factor; the growing solution pane is
    recompressed every ``compress_every`` steps so storage stays
    O((n_x + n_t)·r).  The returned pane is canonical, as ``lr_truncate``
    leaves it, so callers read its rank and need not recompress it.

    ``rows`` (a boolean mask or index array over the n_x dofs; None means
    all of them) selects the rows the caller will read.  The running column
    stays at full length, because the recursion needs it, but the pane
    stores only y_k[rows], so the result has one row per selected dof.
    """
    n_x, n_t = K.n_x, K.n_t
    if rhs.shape != (n_x, n_t):
        raise ValueError(f"rhs shape {rhs.shape} does not match operator {(n_x, n_t)}")
    keep = np.arange(n_x) if rows is None else np.arange(n_x)[rows]
    if rhs.r == 0:
        return LowRankMat.zeros(len(keep), n_t)

    B = K.solve_step(rhs.W1, adjoint=adjoint)  # step⁻¹ applied to the rhs factor
    steps = range(n_t - 1, -1, -1) if adjoint else range(n_t)

    pane = LowRankMat.zeros(len(keep), n_t)
    y_prev = np.zeros(n_x)
    for start in range(0, n_t, compress_every):
        idx = list(steps[start:start + compress_every])
        cols = []
        for k in idx:
            y_prev = K.solve_step(K.m_scale * y_prev, adjoint=adjoint) + B @ rhs.W2[k, :]
            cols.append(y_prev[keep])
        pane = _extend_pane(pane, np.column_stack(cols), idx, pol)
    return pane


def st_solve_adjoint_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    compress_every: int = 4,
) -> LowRankMat:
    """Kᵀ-solve by backward-in-time substitution with the transposed factorization."""
    return st_solve_sweep(K, rhs, pol, adjoint=True, compress_every=compress_every)

