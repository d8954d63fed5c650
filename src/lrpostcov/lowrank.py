"""Low-rank factor algebra for space-time fields Y ≈ W1·W2ᵀ.

A field over n_x spatial dofs and n_t time steps is stored as two skinny
factors W1 (n_x × r) and W2 (n_t × r) so that storage and arithmetic cost
O((n_x + n_t)·r) instead of O(n_x·n_t).  All operations are pure: inputs
are never mutated and results are freshly allocated, so values can be
shared freely across threads.

Canonical form (produced by ``lr_truncate``): W1 has orthonormal columns
and W2 = Q2·diag(σ) with Q2 orthonormal and σ the nonincreasing positive
singular values of the represented matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Singular values below this multiple of sigma_1 are floating-point noise
# and are always discarded, independent of the requested tolerance.
NOISE_FLOOR = 1e-15


@dataclass(frozen=True)
class TruncationPolicy:
    """Relative Frobenius tolerance eps0 plus an optional hard rank cap."""

    eps0: float = 1e-8
    r_max: int | None = None

    def __post_init__(self):
        if not (0.0 < self.eps0 < 1.0):
            raise ValueError(f"eps0 must lie in (0, 1), got {self.eps0}")
        if self.r_max is not None and self.r_max < 0:
            raise ValueError(f"r_max must be nonnegative, got {self.r_max}")


class LowRankMat:
    """Immutable-by-convention pair of factors representing W1 @ W2.T."""

    __slots__ = ("W1", "W2")

    def __init__(self, W1: np.ndarray, W2: np.ndarray):
        W1 = np.atleast_2d(np.asarray(W1, dtype=float))
        W2 = np.atleast_2d(np.asarray(W2, dtype=float))
        if W1.ndim != 2 or W2.ndim != 2 or W1.shape[1] != W2.shape[1]:
            raise ValueError(
                f"factor shapes {W1.shape} and {W2.shape} are inconsistent"
            )
        self.W1 = W1
        self.W2 = W2

    @property
    def r(self) -> int:
        return self.W1.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.W1.shape[0], self.W2.shape[0])

    @classmethod
    def zeros(cls, n_x: int, n_t: int) -> "LowRankMat":
        return cls(np.zeros((n_x, 0)), np.zeros((n_t, 0)))

    @classmethod
    def from_column(cls, col: np.ndarray, n_t: int, k: int) -> "LowRankMat":
        """Rank-1 field equal to ``col`` at time index k (0-based), zero elsewhere."""
        e = np.zeros((n_t, 1))
        e[k, 0] = 1.0
        return cls(np.asarray(col, dtype=float).reshape(-1, 1), e)

    def column(self, k: int) -> np.ndarray:
        """Dense spatial column at time index k."""
        return self.W1 @ self.W2[k, :]

    def __repr__(self) -> str:
        return f"LowRankMat(shape={self.shape}, r={self.r})"


def _check_same_shape(A: LowRankMat, B: LowRankMat) -> None:
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")


def lr_to_dense(A: LowRankMat) -> np.ndarray:
    return A.W1 @ A.W2.T


def lr_from_dense(X: np.ndarray, pol: TruncationPolicy) -> LowRankMat:
    """Compress a dense matrix via full SVD and the truncation policy."""
    X = np.asarray(X, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = _rank_cut(s, pol)
    return LowRankMat(U[:, :r], Vt[:r, :].T * s[:r])


def _rank_cut(s: np.ndarray, pol: TruncationPolicy) -> int:
    """Smallest r with sqrt(sum of discarded σ²) <= eps0 * ||σ||, capped by r_max."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    s = np.where(s < NOISE_FLOOR * s[0], 0.0, s)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||(σ_r, σ_{r+1}, ...)||
    total = tail[0]
    # Smallest r with tail[r] <= eps0*total; tail is descending so search the
    # negated (ascending) array.
    keep = int(np.searchsorted(-tail, -pol.eps0 * total, side="left"))
    keep = min(keep, int(np.count_nonzero(s)))
    if pol.r_max is not None:
        keep = min(keep, pol.r_max)
    return keep


def _svd_flip(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sign convention: largest-|entry| of each U column positive."""
    if U.shape[1] == 0:
        return U, V
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def lr_truncate(A: LowRankMat, pol: TruncationPolicy) -> LowRankMat:
    """Recompress to canonical form within the policy's relative tolerance.

    Thin QR of each factor, SVD of the small core, rank cut by the relative
    Frobenius tail.  Guarantees ||A - out||_F <= eps0 * ||A||_F.
    """
    n_x, n_t = A.shape
    if A.r == 0:
        return LowRankMat.zeros(n_x, n_t)
    Q1, R1 = np.linalg.qr(A.W1)
    Q2, R2 = np.linalg.qr(A.W2)
    # a product that cancels to rounding noise of the factor magnitudes is zero
    factor_scale = np.linalg.norm(R1) * np.linalg.norm(R2)
    if not np.isfinite(factor_scale):
        raise NumericalError(f"truncation: factor norms multiply to {factor_scale}")
    U, s, Vt = np.linalg.svd(R1 @ R2.T)
    if s.size == 0 or s[0] <= NOISE_FLOOR * factor_scale:
        return LowRankMat.zeros(n_x, n_t)
    r = _rank_cut(s, pol)
    if r == 0:
        return LowRankMat.zeros(n_x, n_t)
    U, V = _svd_flip(Q1 @ U[:, :r], Q2 @ Vt[:r, :].T)
    return LowRankMat(U, V * s[:r])


def lr_add(A: LowRankMat, B: LowRankMat) -> LowRankMat:
    """Exact sum by factor concatenation; rank r_A + r_B, caller truncates."""
    _check_same_shape(A, B)
    if A.r == 0:
        return B
    if B.r == 0:
        return A
    return LowRankMat(np.hstack([A.W1, B.W1]), np.hstack([A.W2, B.W2]))


def lr_sum(terms, coeffs) -> LowRankMat:
    """Exact Σ c_i·A_i in rank <= min(n_x, n_t, Σ r_i); caller truncates.

    One thin QR of the stacked shorter-side factors, [S_1 … S_k] = Q·[R_1 … R_k];
    the long-side factor Σ c_i·L_i·R_iᵀ is accumulated term by term, never
    stacked.  A sum that cancels to rounding noise of its terms is zero.
    """
    terms, coeffs = list(terms), [float(c) for c in coeffs]
    if not terms or len(terms) != len(coeffs):
        raise ValueError(f"need one coefficient per term, got {len(terms)} and {len(coeffs)}")
    for A in terms[1:]:
        _check_same_shape(terms[0], A)
    n_x, n_t = terms[0].shape
    live = [(A, c) for A, c in zip(terms, coeffs) if A.r and c != 0.0]
    if not live:
        return LowRankMat.zeros(n_x, n_t)
    time_short = n_t <= n_x
    Q, R = np.linalg.qr(np.hstack([A.W2 if time_short else A.W1 for A, _ in live]))
    acc = np.zeros((n_x if time_short else n_t, Q.shape[1]))
    scale = 0.0
    col = 0
    for A, c in live:
        acc += (A.W1 if time_short else A.W2) @ (c * R[:, col:col + A.r]).T
        col += A.r
        scale += abs(c) * np.linalg.norm(A.W1) * np.linalg.norm(A.W2)
    if not np.isfinite(scale):
        raise NumericalError(f"low-rank sum: factor norms reach {scale}")
    if np.linalg.norm(acc) <= NOISE_FLOOR * scale:
        return LowRankMat.zeros(n_x, n_t)
    return LowRankMat(acc, Q) if time_short else LowRankMat(Q, acc)


def lr_scale(A: LowRankMat, c: float) -> LowRankMat:
    if c == 0.0:
        return LowRankMat.zeros(*A.shape)
    return LowRankMat(A.W1, A.W2 * c)


def lr_dot(A: LowRankMat, B: LowRankMat) -> float:
    """<vec(A), vec(B)> in O((n_x + n_t)·r_A·r_B) time."""
    _check_same_shape(A, B)
    if A.r == 0 or B.r == 0:
        return 0.0
    return float(np.sum((A.W1.T @ B.W1) * (A.W2.T @ B.W2)))


def lr_norm(A: LowRankMat) -> float:
    """Frobenius norm; computed from the Gram product, clamped at zero."""
    return float(np.sqrt(max(lr_dot(A, A), 0.0)))


def lr_singular_values(A: LowRankMat) -> np.ndarray:
    """Singular values of the represented matrix (descending)."""
    if A.r == 0:
        return np.zeros(0)
    R1 = np.linalg.qr(A.W1, mode="r")
    R2 = np.linalg.qr(A.W2, mode="r")
    return np.linalg.svd(R1 @ R2.T, compute_uv=False)
