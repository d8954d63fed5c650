"""Low-rank factor algebra for space-time fields Y ≈ W1·W2ᵀ.

A field over n_x spatial dofs and n_t time steps is stored as two skinny
factors W1 (n_x × r) and W2 (n_t × r) so that storage and arithmetic cost
O((n_x + n_t)·r) instead of O(n_x·n_t).  The public ``lr_*`` functions
never mutate their inputs, so values can be shared freely across threads;
a result may share a factor with an input (``lr_add`` of a zero-rank
term, ``lr_scale``'s W1).  Only the private QR kernels write into arrays
their callers own.

One geqrt kernel, ``_qr_reflectors``, takes every thin QR, of sweep
flushes, truncations, sums and the posterior, in the caller's memory, and
keeps Q as Householder reflectors.  A flush multiplies by Q through them;
``_qr`` forms Q over them, for ``lr_truncate``, ``lr_sums`` and
``posterior``; ``lr_singular_values`` and ``lr_norm``'s overflow fallback
read only R.
``lr_truncate`` takes its core's thin SVD from one LAPACK gesdd (``_svd``),
whose rank cut (``_rank_cut``) a sweep flush shares to probe the directions
it keeps.

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


def _add_product(W: np.ndarray, alpha: float, Q: np.ndarray, C: np.ndarray) -> None:
    """W += alpha·Q·C in W's memory; W is a Fortran-ordered float64 block."""
    if W.size:  # dgemm refuses an empty output block that ``@`` would accept
        blas.dgemm(alpha, Q, C, beta=1.0, c=W, overwrite_c=True)


def _qr_reflectors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin QR of A in A's memory, its Q kept as Householder reflectors: (V, S, R).

    A must be a Fortran-ordered float64 m × n array, and k = min(m, n).
    LAPACK's geqrt factors it in one block of k reflectors, I − V·T·Vᵀ in
    compact-WY form (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10,
    1989), V m × k unit lower trapezoidal and T k × k upper triangular, by
    recursive level-3 panels (Elmroth & Gustavson, IBM J. Res. Dev. 44,
    2000).  R (k × n) is copied out, and V's unit lower triangle is written
    over A's top k × k, so V is A's first k columns and no product with it
    carries R: a product that took R in and subtracted it back would cancel
    at rounding of ‖R‖.  The thin Q, of the identity's first k columns E_k,
    is E_k − V·S with S = T·V[:k]ᵀ, upper triangular with τ on its
    diagonal, formed in T's memory.
    """
    m, n = A.shape
    k = min(m, n)
    if k == 0:
        return A[:, :0], np.zeros((0, 0)), np.zeros((0, n))
    qr, T, info = lapack.dgeqrt(k, A, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"QR factorization failed (geqrt info={info})")
    # trmm reads only the triangle it is told of in V's top k × k, uncopied
    V = qr[:, :k]
    S = blas.dtrmm(1.0, V, T, side=1, lower=1, trans_a=1, diag=1, overwrite_b=1)
    R = blas.dtrmm(1.0, V, np.eye(k, order="F"), overwrite_b=1)
    # V[:k] holds R over V's strict lower triangle: zeroing where R is not
    # zero leaves V's, and copyto, unlike a ufunc, allocates no buffer
    np.copyto(V[:k], 0.0, where=R != 0.0)
    np.fill_diagonal(V, 1.0)
    if n > k:  # a wide block's R has columns right of its triangle too
        R = np.hstack((R, qr[:k, k:]))
    return V, S, R


def _add_reflector_product(out: np.ndarray, V: np.ndarray, S: np.ndarray,
                           X: np.ndarray) -> None:
    """out ← out + Q·X for the Q = E_k − V·S of ``_qr_reflectors``, in out's (Fortran) memory."""
    _add_product(out, -1.0, V, S @ X)
    out[:len(S)] += X


def _reflector_q(V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The Q = E_k − V·S of ``_qr_reflectors``, written over V (Fortran-ordered)."""
    Q = blas.dtrmm(-1.0, S, V, side=1, overwrite_b=1)
    Q[:len(S)].flat[::len(S) + 1] += 1.0
    return Q


def _qr(A: np.ndarray, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR A = Q·R with Q m × k, R k × n and k = min(m, n), by ``_qr_reflectors``.

    A wide A gives a square Q.  A is left untouched unless ``overwrite_a``
    is set and A is a Fortran-ordered float64 array; then the factorization
    works in A's memory, and unless A is wide, Q is A itself.
    """
    if not (overwrite_a and A.flags.f_contiguous and A.dtype == np.float64):
        A = np.array(A, dtype=np.float64, order="F")
    V, S, R = _qr_reflectors(A)
    if A.shape[0] < A.shape[1]:  # a wide A's Q is copied out, so it does not keep A alive
        V = np.array(V, order="F")
    return _reflector_q(V, S), R


def _qr_tall(A: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """``_qr(A)``, or (None, A) when A has no more rows than columns.

    Such a factor is already its own R with Q = I, so a truncation needs
    no QR of it; a flush core is one, and so is its square identity time factor.
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

    σ is nonincreasing, and σ_i < NOISE_FLOOR·σ₁ counts as zero, so only
    the prefix above that floor enters the sums.  Taken on σ/σ₁, so
    scale-free: σ² itself overflows once σ₁ passes ~1e154.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    s = s / s[0]
    s = s[:np.count_nonzero(s >= NOISE_FLOOR)]
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||(σ_r, σ_{r+1}, ...)||
    # tail is nonincreasing, so the r with tail[r] > eps0·||σ|| are 0, ..., keep − 1
    return int(np.count_nonzero(tail > pol.eps0 * tail[0]))


def _fro(X: np.ndarray) -> float:
    """‖X‖_F by BLAS dnrm2, a Python float.

    dnrm2 scales where numpy's norm squares, so a finite X gets its norm
    while that lies in the float range, and inf beyond it, without an
    overflow warning; a NaN entry gives NaN.
    """
    return blas.dnrm2(X.ravel(order="K")) if X.size else 0.0


def _svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = U·diag(s)·Vt by one LAPACK gesdd, for an A with no empty side."""
    U, s, Vt, info = lapack.dgesdd(A, full_matrices=0)
    if info != 0:
        raise NumericalError(f"SVD failed (gesdd info={info})")
    return U, s, Vt


def _svd_flip(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sign convention: largest-|entry| of each U column positive."""
    # a unit column's largest |entry| is never zero, so each sign is ±1
    signs = np.copysign(1.0, U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    return U * signs, V * signs


def lr_truncate(A: LowRankMat, pol: TruncationPolicy) -> LowRankMat:
    """Recompress to canonical form within the policy's relative tolerance.

    Thin QR of each tall factor (a factor with no more rows than columns is
    its own R), one thin SVD of the small core, rank cut by the relative
    Frobenius tail of σ/σ₁, which is scale-free.  Guarantees ||A - out||_F
    <= eps0 * ||A||_F.  A field with no rank, rows or times is zero.
    """
    n_x, n_t = A.shape
    if A.r == 0 or n_x == 0 or n_t == 0:
        return LowRankMat.zeros(n_x, n_t)
    Q1, R1 = _qr_tall(A.W1)
    Q2, R2 = _qr_tall(A.W2)
    # a product that cancels to rounding noise of the factor magnitudes is zero
    factor_scale = _fro(R1) * _fro(R2)
    if not np.isfinite(factor_scale):
        raise NumericalError(f"truncation: factor norms multiply to {factor_scale}")
    U, s, Vt = _svd(R1 @ R2.T)
    if s[0] <= NOISE_FLOOR * factor_scale:
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


def _r_core(A: LowRankMat) -> np.ndarray:
    """R1·R2ᵀ, which has A's singular values, from its factors' R alone (copies factored)."""
    R1, R2 = (_qr_reflectors(np.array(W, dtype=float, order="F"))[2] for W in (A.W1, A.W2))
    return R1 @ R2.T


def lr_norm(A: LowRankMat) -> float:
    """Frobenius norm; computed from the Gram product, clamped at zero.

    Where the Gram product overflows, it is ``_fro`` of ``_r_core(A)``: the
    norm itself, or inf if that lies beyond the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or NaN
        gram = lr_dot(A, A)
        if np.isfinite(gram):
            return float(np.sqrt(max(gram, 0.0)))
        return _fro(_r_core(A))


def lr_singular_values(A: LowRankMat) -> np.ndarray:
    """Singular values of the represented matrix (descending), from the factors' R alone."""
    if A.r == 0:
        return np.zeros(0)
    return np.linalg.svd(_r_core(A), compute_uv=False)
