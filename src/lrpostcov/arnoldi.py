"""Low-rank Arnoldi iteration with full reorthogonalization.

The iteration is generic over the vector representation: dense spatial
vectors (initial-condition and steady modes) or low-rank space-time fields
(distributed-source mode).  Orthogonalization is classical Gram-Schmidt
with one reorthogonalization pass (CGS2): each pass takes every coefficient
from the current vector and subtracts the whole projection as one exact
combination.  In low-rank mode that combination is recompressed once per
pass, and each Ritz vector once, which keeps storage at O(n_x + n_t) per
vector without a truncation per basis vector.

Stopping combines a hard iteration cap with a Ritz refresh: the run ends
early once every Ritz value above the retention threshold is stable between
refreshes and the rest sit below the threshold.  Truncated Arnoldi has no
exact residual bound, so stability-between-refreshes stands in for one.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    lr_dot,
    lr_norm,
    lr_scale,
    lr_singular_values,
    lr_sum,
    lr_truncate,
)

BREAKDOWN_TOL = 1e-14
STABILITY_RTOL = 1e-3   # refresh-to-refresh drift allowed of a retained Ritz value
RANK_TAIL_TOL = 1e-6    # relative singular tail that rank_one_check ignores


@dataclass(frozen=True)
class StopRule:
    """Iteration cap plus eigenvalue-threshold stopping.

    on_breakdown selects what happens when an invariant subspace is reached
    (h_{j+1,j} <= 1e-14 times the largest |H_ij| so far, which makes the
    test independent of the operator's scale): "stop" terminates cleanly;
    "restart" continues with a fresh direction orthogonal to the basis,
    which is required when the full spectrum of an operator with high
    eigenvalue multiplicity is needed (rounding noise alone does not reseed
    every copy).
    """

    m_a: int
    eps_eig: float = 1e-1
    check_every: int = 10
    on_breakdown: str = "stop"
    restart_seed: int = 0

    def __post_init__(self):
        if self.m_a < 1:
            raise ValueError(f"m_a must be >= 1, got {self.m_a}")
        if self.eps_eig <= 0:
            raise ValueError(f"eps_eig must be positive, got {self.eps_eig}")
        if self.on_breakdown not in ("stop", "restart"):
            raise ValueError(f"on_breakdown must be stop or restart, got {self.on_breakdown!r}")


@dataclass
class ArnoldiResult:
    H: np.ndarray                 # (m+1, m) Hessenberg matrix
    basis: list                   # m (or m+1) orthonormal vectors
    rank_trace: list[int]         # max intermediate rank per iteration
    ritz_values: np.ndarray       # real, descending
    ritz_vectors: list            # same representation as the basis
    converged_count: int          # final Ritz values >= eps_eig
    breakdown: bool               # an invariant subspace was reached
    iterations: int
    diagnostics: list[tuple]      # (j, h_subdiag, max_rank, seconds)
    restarts: int = 0

    def gram_defect(self) -> float:
        """max |<v_i, v_j> - δ_ij| over the stored basis."""
        ops = _ops_for(self.basis[0])
        m = len(self.basis)
        worst = 0.0
        for i in range(m):
            for j in range(i, m):
                g = ops.dot(self.basis[i], self.basis[j])
                worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
        return worst

    def asymmetry(self) -> float:
        """max |Hm - Hmᵀ| / max |Hm| over the leading square block (0 if zero)."""
        m = self.H.shape[1]
        Hm = self.H[:m, :m]
        scale = float(np.abs(Hm).max())
        return float(np.abs(Hm - Hm.T).max()) / scale if scale > 0 else 0.0


class _VectorOps:
    """Operations shared by both iterate representations."""

    def __init__(self, pol: TruncationPolicy):
        self.pol = pol

    def project(self, w, basis):
        """One classical Gram-Schmidt pass: (coefficients, w minus its projection).

        Every coefficient is taken from the incoming w, so the update is a
        single combination (one truncation in low-rank mode).
        """
        h = np.array([self.dot(w, v) for v in basis])
        return h, self.combine([w, *basis], np.concatenate(([1.0], -h)))


class _DenseOps(_VectorOps):
    """Vector operations for dense ndarray iterates."""

    dot = staticmethod(np.dot)
    norm = staticmethod(np.linalg.norm)
    scale = staticmethod(np.multiply)

    @staticmethod
    def rank(w) -> int:
        return 0

    @staticmethod
    def finite(w) -> bool:
        return bool(np.isfinite(w).all())

    @staticmethod
    def combine(basis, coeffs):
        out = np.zeros_like(basis[0], dtype=float)
        for v, c in zip(basis, coeffs):
            out += float(c) * v
        return out


class _LowRankOps(_VectorOps):
    """Vector operations for LowRankMat iterates; one truncation per combination."""

    norm = staticmethod(lr_norm)
    scale = staticmethod(lr_scale)

    @staticmethod
    def dot(a, b) -> float:
        return lr_dot(a, b)  # resolved per call, so a rebound module name is seen

    @staticmethod
    def rank(w) -> int:
        return w.r

    @staticmethod
    def finite(w) -> bool:
        return bool(np.isfinite(w.W1).all() and np.isfinite(w.W2).all())

    def combine(self, basis, coeffs):
        return lr_truncate(lr_sum(basis, coeffs), self.pol)


def _ops_for(v, pol: TruncationPolicy | None = None):
    pol = pol or TruncationPolicy()
    return _LowRankOps(pol) if isinstance(v, LowRankMat) else _DenseOps(pol)


def _hessenberg_eigs(Hm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric part of a square Hessenberg block, descending.

    The operator is a Hessian, so with full reorthogonalization Arnoldi is
    Lanczos and Hm = VᵀAV is symmetric up to rounding and truncation noise
    (ArnoldiResult.asymmetry measures it).  The skew part moves a simple
    eigenvalue only at second order; a general eigensolve would instead turn
    a skewed exact pair into a complex conjugate pair.
    """
    try:
        vals, vecs = np.linalg.eigh(0.5 * (Hm + Hm.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense Hessenberg eigensolve failed: {exc}") from exc
    return vals[::-1], vecs[:, ::-1]


def ritz_pairs(H: np.ndarray, basis: list, pol: TruncationPolicy | None = None) -> list:
    """Real Ritz pairs from the leading m×m Hessenberg block, descending.

    Values and combination coefficients come from the same symmetric
    eigensolve; each vector is the basis combination, normalized, and
    recompressed in low-rank mode.
    """
    m = H.shape[1]
    vals, vecs = _hessenberg_eigs(H[:m, :m])
    ops = _ops_for(basis[0], pol)
    pairs = []
    for i in range(m):
        v = ops.combine(basis[:m], vecs[:, i])  # one truncation per Ritz vector
        nrm = ops.norm(v)
        if nrm > 0:
            v = ops.scale(v, 1.0 / nrm)
        pairs.append((float(vals[i]), v))
    return pairs


def _fresh_direction(basis: list, ops, seed: int):
    """Seeded random direction orthogonalized against the basis, or None.

    Used by breakdown restarts to reach eigenspace copies that a single
    Krylov sequence cannot produce.  Returns None when the complement of the
    basis span is numerically empty.
    """
    rng = np.random.default_rng(0x5EED + seed)
    proto = basis[0]
    if isinstance(proto, LowRankMat):
        n_x, n_t = proto.shape
        w = LowRankMat(rng.standard_normal((n_x, 2)), rng.standard_normal((n_t, 2)))
    else:
        w = rng.standard_normal(proto.shape[0])
    w = ops.scale(w, 1.0 / ops.norm(w))
    for _pass in range(2):
        _, w = ops.project(w, basis)
    nrm = ops.norm(w)
    if nrm <= 1e-6:
        return None
    return ops.scale(w, 1.0 / nrm)


def _stop_ready(vals: np.ndarray, prev: np.ndarray | None, stop: StopRule) -> bool:
    """True when the refresh-to-refresh stopping condition holds.

    Values above eps_eig must be matched in count and stable to
    STABILITY_RTOL against the previous refresh; when nothing exceeds the
    threshold the leading value itself must have stabilized (guards against
    stopping while the spectrum is still emerging).
    """
    if prev is None:
        return False
    above = int(np.sum(vals >= stop.eps_eig))
    if above != int(np.sum(prev >= stop.eps_eig)):
        return False
    n_check = above if above > 0 else min(1, len(vals), len(prev))
    for i in range(n_check):
        denom = max(abs(vals[i]), abs(prev[i]), 1e-300)
        if abs(vals[i] - prev[i]) / denom > STABILITY_RTOL:
            return False
    return True


def lr_arnoldi(
    apply,
    v1,
    pol: TruncationPolicy,
    stop: StopRule,
    rank_source: list | None = None,
) -> ArnoldiResult:
    """Arnoldi iteration for a self-adjoint-up-to-truncation operator action.

    Parameters
    ----------
    apply : callable
        Operator action on one vector; must accept and return the same
        representation as ``v1`` (ndarray or LowRankMat) and is expected to
        truncate its own output in low-rank mode.
    v1 : ndarray or LowRankMat
        Start vector; normalized internally if needed.
    pol : TruncationPolicy
        Recompression policy for basis updates (low-rank mode).
    stop : StopRule
        Iteration cap and Ritz stopping thresholds.
    rank_source : list, optional
        A list the operator appends per-application max ranks to (e.g., a
        HessianContext.rank_trace); consumed for the per-iteration trace.
    """
    ops = _ops_for(v1, pol)
    nrm = ops.norm(v1)
    if not np.isfinite(nrm):
        raise NumericalError(f"Arnoldi start vector has norm {nrm}")
    if nrm == 0:
        raise ValueError("start vector must be nonzero")
    v1 = ops.combine([v1], [1.0 / nrm])

    basis = [v1]
    H = np.zeros((stop.m_a + 1, stop.m_a))
    rank_trace: list[int] = []
    diagnostics: list[tuple] = []
    prev_vals: np.ndarray | None = None
    breakdown = False
    restarts = 0
    j_done = 0
    h_scale = 0.0  # running max |H_ij|, the operator-scale estimate
    src_seen = len(rank_source) if rank_source is not None else 0

    for j in range(stop.m_a):
        t0 = _time.perf_counter()
        w = apply(basis[j])
        if not ops.finite(w):
            raise NumericalError(f"Arnoldi iteration {j + 1}: operator output is not finite")

        apply_rank = ops.rank(w)
        if rank_source is not None and len(rank_source) > src_seen:
            apply_rank = max(apply_rank, max(rank_source[src_seen:]))
            src_seen = len(rank_source)

        for _pass in range(2):  # CGS with one reorthogonalization pass
            h, w = ops.project(w, basis[: j + 1])
            H[: j + 1, j] += h

        h_sub = ops.norm(w)
        if not np.isfinite(h_sub):
            raise NumericalError(f"Arnoldi iteration {j + 1}: h_(j+1,j) = {h_sub}")
        H[j + 1, j] = h_sub
        h_scale = max(h_scale, float(np.abs(H[: j + 2, j]).max()))
        max_rank = max(apply_rank, ops.rank(w))
        rank_trace.append(max_rank)
        diagnostics.append((j + 1, h_sub, max_rank, _time.perf_counter() - t0))
        j_done = j + 1

        if h_sub <= BREAKDOWN_TOL * h_scale:
            breakdown = True  # invariant subspace reached
            if stop.on_breakdown != "restart" or j + 1 >= stop.m_a:
                break
            H[j + 1, j] = 0.0
            fresh = _fresh_direction(basis, ops, stop.restart_seed + restarts)
            if fresh is None:  # orthogonal complement exhausted
                break
            restarts += 1
            basis.append(fresh)
            continue
        basis.append(ops.scale(w, 1.0 / h_sub))  # project's output is already compressed

        if (j + 1) % stop.check_every == 0 and j + 1 < stop.m_a:
            vals, _ = _hessenberg_eigs(H[: j + 1, : j + 1])
            ready = _stop_ready(vals, prev_vals, stop)
            prev_vals = vals
            if ready:
                break

    Hout = H[: j_done + 1, : j_done]
    pairs = ritz_pairs(Hout, basis, pol)
    vals = np.array([p[0] for p in pairs])

    return ArnoldiResult(
        H=Hout,
        basis=basis,
        rank_trace=rank_trace,
        ritz_values=vals,
        ritz_vectors=[p[1] for p in pairs],
        converged_count=int(np.sum(vals >= stop.eps_eig)),
        breakdown=breakdown,
        iterations=j_done,
        diagnostics=diagnostics,
        restarts=restarts,
    )


def rank_one_check(vec, reshape: tuple[int, int] | None = None) -> tuple[int, float]:
    """Numerical separation rank of a vector under its natural 2-way layout.

    Dense vectors are reshaped to ``reshape`` (e.g. (n_side, n_side) for
    spatial modes); LowRankMat inputs use their own factorization.  Returns
    (smallest r with relative singular tail <= RANK_TAIL_TOL, sigma_2/sigma_1).
    """
    if isinstance(vec, LowRankMat):
        s = lr_singular_values(vec)
    else:
        if reshape is None:
            raise ValueError("dense input needs an explicit 2-way reshape")
        s = np.linalg.svd(np.asarray(vec, dtype=float).reshape(reshape),
                          compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, 0.0
    total = float(np.linalg.norm(s))
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    r = int(np.searchsorted(-tail, -RANK_TAIL_TOL * total, side="left"))
    ratio = float(s[1] / s[0]) if s.size > 1 else 0.0
    return r, ratio
