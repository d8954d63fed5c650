"""Low-rank factor algebra for space-time fields Y ≈ W1·W2ᵀ.

A field over n_x spatial dofs and n_t time steps is stored as two skinny
factors W1 (n_x × r) and W2 (n_t × r) so that storage and arithmetic cost
O((n_x + n_t)·r) instead of O(n_x·n_t).  The public ``lr_*`` functions
never mutate their inputs, so values can be shared freely across threads;
a result may share a factor with an input (``lr_add`` of a zero-rank
term, ``lr_scale``'s W1).  One private kernel writes into an array its
caller owns: ``_qr(overwrite_a=True)``.

Thin QRs call LAPACK directly.  ``_qr`` calls geqrf and orgqr: with one
BLAS thread it gives the (Q, R) of ``np.linalg.qr`` bit for bit, at about
half numpy's per-call cost on the small blocks recompression feeds it, and
a caller that owns a Fortran-ordered buffer can let Q take its memory.  It
serves ``lr_truncate``, ``lr_sums`` and ``posterior``.  ``lr_singular_values``
reads only R, which ``_geqrf`` gives alone.

Exact linear combinations go through one kernel too, ``lr_sums``: it
makes every column of basis·C from one QR of the stacked shorter-side
factors and forms each term's long-side product once per block of columns,
where a column at a time would form it once per column.  A single sum is
its one-column case, ``lr_sums(terms, c[:, None])``.

Canonical form (produced by ``lr_truncate``): W1 has orthonormal columns
and W2 = Q2·diag(σ) with Q2 orthonormal and σ the nonincreasing positive
singular values of the represented matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidConfigError, NumericalError, check_real

# Singular values below this multiple of sigma_1 are floating-point noise
# and are always discarded, independent of the requested tolerance.
NOISE_FLOOR = 1e-15

# Reference LAPACK (ilaenv's NX) factors at most this many reflectors with
# its unblocked QR, which needs n of workspace; past it the blocked code gets
# the queried optimum, as np.linalg.qr gives it.  Allocating that optimum on
# every small recompression would only cost memory.
QR_UNBLOCKED_MAX = 128

# Output columns ``lr_sums`` accumulates together: each term's long-side
# product is formed once per block, and one block of accumulators is held.
SUMS_BLOCK = 8


@dataclass(frozen=True)
class TruncationPolicy:
    """Relative Frobenius tolerance eps0 of every recompression."""

    eps0: float = 1e-8

    def __post_init__(self):
        if not (0.0 < check_real("eps0", self.eps0) < 1.0):
            raise InvalidConfigError(f"eps0 must lie in (0, 1), got {self.eps0}")


class LowRankMat:
    """Immutable-by-convention pair of factors representing W1 @ W2.T."""

    __slots__ = ("W1", "W2")

    def __init__(self, W1: np.ndarray, W2: np.ndarray):
        W1 = np.asarray(W1, dtype=float)
        W2 = np.asarray(W2, dtype=float)
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


def _lwork(m: int, n: int) -> int:
    """The workspace geqrf and orgqr get for an m × n block (see ``QR_UNBLOCKED_MAX``)."""
    return int(lapack.dgeqrf_lwork(m, n)[0]) if min(m, n) > QR_UNBLOCKED_MAX else n


def _geqrf(A: np.ndarray, overwrite_a: bool = False) -> tuple:
    """LAPACK geqrf of A: (its output, τ, R), with the k × n triangle R copied out."""
    qr, tau, _, info = lapack.dgeqrf(A, lwork=_lwork(*A.shape), overwrite_a=overwrite_a)
    if info != 0:
        raise NumericalError(f"QR factorization failed (geqrf info={info})")
    R = qr[:len(tau)].copy()
    for i in range(1, len(tau)):  # below the diagonal geqrf leaves its reflectors
        R[i, :i] = 0.0
    return qr, tau, R


def _qr(A: np.ndarray, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR A = Q·R with Q m × k, R k × n and k = min(m, n).

    A wide A gives a square Q.  A is left untouched unless ``overwrite_a``
    is set and A is a Fortran-ordered float64 array; then the factorization
    works in A's memory, and unless A is wide, Q is A itself.
    """
    m, n = A.shape
    k = min(m, n)
    if k == 0:
        return np.zeros((m, 0)), np.zeros((0, n))
    qr, tau, R = _geqrf(A, overwrite_a)
    # a wide A's Q is copied out, so it does not keep the m × n buffer alive
    Q, _, info = lapack.dorgqr(qr[:, :k], tau, lwork=_lwork(m, n), overwrite_a=k == n)
    if info != 0:
        raise NumericalError(f"QR factorization failed (orgqr info={info})")
    return Q, R


def _qr_tall(A: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """``_qr(A)``, or (None, A) when A has no more rows than columns.

    Such a factor is already its own R with Q = I, so a truncation needs
    no QR of it; a flush core is one, and upper triangular as well.
    """
    if A.shape[0] <= A.shape[1]:
        return None, A
    return _qr(A)


def _check_same_shape(A: LowRankMat, B: LowRankMat) -> None:
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")


def lr_to_dense(A: LowRankMat) -> np.ndarray:
    return A.W1 @ A.W2.T


def lr_from_dense(X: np.ndarray, pol: TruncationPolicy) -> LowRankMat:
    """Compress a dense matrix via full SVD and the scale-free rank cut (σ/σ₁)."""
    X = np.asarray(X, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = _rank_cut(s, pol)
    return LowRankMat(U[:, :r], Vt[:r, :].T * s[:r])


def _rank_cut(s: np.ndarray, pol: TruncationPolicy) -> int:
    """Smallest r with sqrt(sum of discarded σ²) <= eps0 * ||σ||, at least 1 if σ₁ > 0.

    Taken on σ/σ₁, so scale-free: σ² itself overflows once σ₁ passes ~1e154.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    s = s / s[0]
    s = np.where(s < NOISE_FLOOR, 0.0, s)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||(σ_r, σ_{r+1}, ...)||
    total = tail[0]
    # Smallest r with tail[r] <= eps0*total; tail is descending so search the
    # negated (ascending) array.
    keep = int(np.searchsorted(-tail, -pol.eps0 * total, side="left"))
    return min(keep, int(np.count_nonzero(s)))


def _fro(X: np.ndarray) -> float:
    """‖X‖_F by BLAS dnrm2, a Python float.

    dnrm2 scales where numpy's norm squares, so a finite X gets its norm
    while that lies in the float range, and inf beyond it, without an
    overflow warning; a NaN entry gives NaN.
    """
    return blas.dnrm2(X.ravel(order="K")) if X.size else 0.0


def _svd_flip(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sign convention: largest-|entry| of each U column positive."""
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def lr_truncate(A: LowRankMat, pol: TruncationPolicy) -> LowRankMat:
    """Recompress to canonical form within the policy's relative tolerance.

    Thin QR of each tall factor (a factor with no more rows than columns is
    its own R), SVD of the small core, rank cut by the relative Frobenius
    tail of σ/σ₁, which is scale-free.  Guarantees ||A - out||_F <= eps0 *
    ||A||_F.
    """
    n_x, n_t = A.shape
    if A.r == 0:
        return LowRankMat.zeros(n_x, n_t)
    Q1, R1 = _qr_tall(A.W1)
    Q2, R2 = _qr_tall(A.W2)
    # a product that cancels to rounding noise of the factor magnitudes is zero
    factor_scale = _fro(R1) * _fro(R2)
    if not np.isfinite(factor_scale):
        raise NumericalError(f"truncation: factor norms multiply to {factor_scale}")
    U, s, Vt = np.linalg.svd(R1 @ R2.T)
    if s.size == 0 or s[0] <= NOISE_FLOOR * factor_scale:
        return LowRankMat.zeros(n_x, n_t)
    r = _rank_cut(s, pol)  # at least 1, since s[0] > 0
    U, V = U[:, :r], Vt[:r, :].T
    U, V = _svd_flip(U if Q1 is None else Q1 @ U, V if Q2 is None else Q2 @ V)
    return LowRankMat(U, V * s[:r])


def lr_add(A: LowRankMat, B: LowRankMat) -> LowRankMat:
    """Exact sum by factor concatenation; rank r_A + r_B, caller truncates."""
    _check_same_shape(A, B)
    if A.r == 0:
        return B
    if B.r == 0:
        return A
    return LowRankMat(np.hstack([A.W1, B.W1]), np.hstack([A.W2, B.W2]))


def _gemm(alpha: float, L: np.ndarray, R: np.ndarray, beta: float,
          out: np.ndarray) -> np.ndarray:
    """out ← alpha·L·Rᵀ + beta·out in out's (Fortran-ordered) memory.

    A C-ordered L goes to BLAS as its transpose, a Fortran-ordered view, so
    the wrapper does not copy it.
    """
    if L.flags.c_contiguous:
        return blas.dgemm(alpha, L.T, R, beta, out, trans_a=1, trans_b=1, overwrite_c=1)
    return blas.dgemm(alpha, L, R, beta, out, trans_b=1, overwrite_c=1)


def lr_sums(terms, C):
    """Yield the exact Σ_i C[i, k]·A_i for each column k of C, in order.

    One thin QR of the stacked shorter-side factors, [S_1 … S_m] = Q·[R_1 … R_m],
    serves every column: output k is its long-side factor Σ_i C[i, k]·L_i·R_iᵀ
    with Q, of rank <= min(n_x, n_t, Σ r_i).  Columns are accumulated
    SUMS_BLOCK at a time.  In a block each term's product P_i = L_i·R_iᵀ is
    formed once and added into every output that uses it; a term only one
    output uses is multiplied straight into that output's accumulator.  The
    caller truncates each output before it takes the next, so only a block
    of accumulators is held, never one per column.  A column that cancels
    to rounding noise of its terms is zero.
    """
    terms, C = list(terms), np.asarray(C, dtype=float)
    if not terms or C.ndim != 2 or C.shape[0] != len(terms):
        raise ValueError(f"need one coefficient row per term, got {len(terms)} terms "
                         f"and coefficients of shape {C.shape}")
    for A in terms[1:]:
        _check_same_shape(terms[0], A)
    n_x, n_t = terms[0].shape
    keep = np.array([A.r > 0 and row.any() for A, row in zip(terms, C)])
    live, C = [A for A, k in zip(terms, keep) if k], C[keep]
    if not live:
        for _ in range(C.shape[1]):
            yield LowRankMat.zeros(n_x, n_t)
        return
    time_short = n_t <= n_x
    Q, R = _qr(np.hstack([A.W2 if time_short else A.W1 for A in live]))
    R = np.split(R, np.cumsum([A.r for A in live])[:-1], axis=1)
    longs = [A.W1 if time_short else A.W2 for A in live]
    norms = np.array([_fro(A.W1) * _fro(A.W2) for A in live])
    shape = (n_x if time_short else n_t, Q.shape[1])
    starts = range(0, C.shape[1], SUMS_BLOCK)
    for start in starts:
        block = C[:, start:start + SUMS_BLOCK]
        accs = _sums_block(longs, R, block, shape)
        if start == starts[-1]:
            R = None  # not held through the last block's truncations
        for coeffs in block.T:
            nz = coeffs != 0.0
            scale = float(np.abs(coeffs[nz]) @ norms[nz])
            if not np.isfinite(scale):
                raise NumericalError(f"low-rank sum: factor norms reach {scale}")
            # the output alone holds its accumulator, freed when the caller drops it
            yield _sum_output(accs.pop(0), Q, time_short, scale)


def _sum_output(acc: np.ndarray, Q: np.ndarray, time_short: bool, scale: float) -> LowRankMat:
    """The field with long-side factor acc and short-side Q, or zero if acc is noise of scale."""
    S = LowRankMat(acc, Q) if time_short else LowRankMat(Q, acc)
    if _fro(acc) <= NOISE_FLOOR * scale:
        return LowRankMat.zeros(*S.shape)
    return S


def _sums_block(longs, R, block, shape) -> list:
    """Accumulators Σ_i block[i, k]·L_i·R_iᵀ, one per column k of the block."""
    accs = [np.zeros(shape, order="F") for _ in range(block.shape[1])]
    P = None  # one product buffer for the block, freed before its outputs are yielded
    for L, Ri, row in zip(longs, R, block):
        used = np.flatnonzero(row)
        if used.size == 1:  # c·Ri, not alpha = c: one-column sums keep their rounding
            k = used[0]
            accs[k] = _gemm(1.0, L, row[k] * Ri, 1.0, accs[k])
        elif used.size:
            P = _gemm(1.0, L, Ri, 0.0, np.empty(shape, order="F") if P is None else P)
            for k in used:
                blas.daxpy(P.ravel("F"), accs[k].ravel("F"), a=row[k])
    return accs


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
    """Frobenius norm; computed from the Gram product, clamped at zero.

    Where the Gram product overflows, it is ``_fro`` of R1·R2ᵀ, the factors'
    R: the norm itself, or inf if that lies beyond the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or NaN
        gram = lr_dot(A, A)
        if np.isfinite(gram):
            return float(np.sqrt(max(gram, 0.0)))
        return _fro(_geqrf(A.W1)[2] @ _geqrf(A.W2)[2].T)


def lr_singular_values(A: LowRankMat) -> np.ndarray:
    """Singular values of the represented matrix (descending), from the factors' R alone."""
    if A.r == 0:
        return np.zeros(0)
    R1 = _geqrf(A.W1)[2]
    R2 = _geqrf(A.W2)[2]
    return np.linalg.svd(R1 @ R2.T, compute_uv=False)
