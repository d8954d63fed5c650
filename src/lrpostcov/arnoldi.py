"""Low-rank Arnoldi iteration with full reorthogonalization.

The iteration is generic over the vector representation: dense spatial
vectors (initial-condition and steady modes) or low-rank space-time fields
(distributed-source mode).  Orthogonalization is classical Gram-Schmidt
with one reorthogonalization pass (CGS2): each pass takes every coefficient
from the current vector and subtracts the whole projection as one exact
combination.  In low-rank mode that combination is recompressed once per
pass, and each Ritz vector once, which keeps storage at O(n_x + n_t) per
vector without a truncation per basis vector.  The m Ritz vectors are the
columns of one product basis·Y (``combinations``), which in low-rank mode
shares each basis vector's long-side product across a block of them.

A default run combines a hard iteration cap with a Ritz refresh every
CHECK_EVERY steps; it ends early once every Ritz value above the retention
threshold is stable between refreshes and the rest sit below it, or at the
first invariant subspace.  Truncated Arnoldi has no exact residual bound,
so stability-between-refreshes stands in for one.  ArnoldiResult.stop_reason
records which of the three ended the run.  An exhaustive run never
refreshes and restarts through every invariant subspace, since one Krylov
sequence finds only one copy of a multiple eigenvalue.  Per step the
iteration records only its wall time; ranks are read where they are stored.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalError, check_count
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    _rank_cut,
    lr_dot,
    lr_norm,
    lr_scale,
    lr_singular_values,
    lr_sums,
    lr_truncate,
)

BREAKDOWN_TOL = 1e-14
CHECK_EVERY = 10        # Arnoldi steps between Ritz refreshes of a default run
STABILITY_RTOL = 1e-3   # refresh-to-refresh drift allowed of a retained Ritz value
RANK_TAIL_TOL = 1e-6    # relative singular tail that rank_one_check ignores


@dataclass(frozen=True)
class StopRule:
    """Iteration cap plus eigenvalue-threshold stopping.

    An invariant subspace is reached when h_{j+1,j} <= 1e-14 times the
    largest |H_ij| so far, which makes the test independent of the
    operator's scale.  A default run stops there or at a stable refresh.
    An exhaustive run never refreshes and continues past each invariant
    subspace with a fresh direction orthogonal to the basis, which the full
    spectrum of an operator with eigenvalue multiplicity needs (rounding
    noise alone does not reseed every copy).
    """

    m_a: int
    eps_eig: float = 1e-1
    exhaustive: bool = False
    restart_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m_a", check_count("m_a", self.m_a, 1))
        if self.eps_eig <= 0:
            raise InvalidConfigError(f"eps_eig must be positive, got {self.eps_eig}")


@dataclass
class ArnoldiResult:
    H: np.ndarray                 # (m+1, m) Hessenberg matrix
    basis: list                   # m (or m+1) orthonormal vectors
    ritz_values: np.ndarray       # real, descending
    ritz_vectors: list            # same representation as the basis
    converged_count: int          # final Ritz values >= eps_eig
    stop_reason: str              # why the run ended: "stable", "breakdown" or "cap"
    step_seconds: list[float]     # wall time of each iteration
    restarts: int = 0

    @property
    def iterations(self) -> int:
        return self.H.shape[1]

    @property
    def breakdown(self) -> bool:
        """An invariant subspace was reached: the run stopped at one or restarted past one."""
        return self.stop_reason == "breakdown" or self.restarts > 0

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

    def combine(self, basis, coeffs):
        """Σ c_i·basis_i, the one-column case of ``combinations``."""
        (out,) = self.combinations(basis, np.asarray(coeffs, dtype=float)[:, None])
        return out


class _DenseOps(_VectorOps):
    """Vector operations for dense ndarray iterates."""

    dot = staticmethod(np.dot)
    norm = staticmethod(np.linalg.norm)
    scale = staticmethod(np.multiply)

    @staticmethod
    def finite(w) -> bool:
        return bool(np.isfinite(w).all())

    @staticmethod
    def combinations(basis, C):
        """Yield basis·C[:, k] for each column k, each by its own loop over the basis."""
        for coeffs in C.T:
            out = np.zeros_like(basis[0], dtype=float)
            for v, c in zip(basis, coeffs):
                out += float(c) * v
            yield out


class _LowRankOps(_VectorOps):
    """Vector operations for LowRankMat iterates; one truncation per combination."""

    norm = staticmethod(lr_norm)
    scale = staticmethod(lr_scale)

    @staticmethod
    def dot(a, b) -> float:
        return lr_dot(a, b)  # resolved per call, so a rebound module name is seen

    @staticmethod
    def finite(w) -> bool:
        return bool(np.isfinite(w.W1).all() and np.isfinite(w.W2).all())

    def combinations(self, basis, C):
        """Each column's combination, truncated; the exact sums share their products."""
        # map keeps no exact sum once its truncation is handed on
        return map(lambda S: lr_truncate(S, self.pol), lr_sums(basis, C))


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

    Values and combination coefficients Y come from the same symmetric
    eigensolve.  The vectors are the columns of basis·Y, made together by
    ``combinations`` (in low-rank mode one truncation each, and products
    shared between columns), then normalized.
    """
    m = H.shape[1]
    vals, vecs = _hessenberg_eigs(H[:m, :m])
    ops = _ops_for(basis[0], pol)
    pairs = []
    for val, v in zip(vals, ops.combinations(basis[:m], vecs)):
        nrm = ops.norm(v)
        if nrm > 0:
            v = ops.scale(v, 1.0 / nrm)
        pairs.append((float(val), v))
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
) -> ArnoldiResult:
    """Arnoldi iteration for a self-adjoint-up-to-truncation operator action.

    ``apply`` runs once per iteration, so a per-call trace lines up with them.

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
    step_seconds: list[float] = []
    prev_vals: np.ndarray | None = None
    stop_reason = "cap"
    restarts = 0
    h_scale = 0.0  # running max |H_ij|, the operator-scale estimate

    for j in range(stop.m_a):
        t0 = _time.perf_counter()
        w = apply(basis[j])
        if not ops.finite(w):
            raise NumericalError(f"Arnoldi iteration {j + 1}: operator output is not finite")

        for _pass in range(2):  # CGS with one reorthogonalization pass
            h, w = ops.project(w, basis[: j + 1])
            H[: j + 1, j] += h

        h_sub = ops.norm(w)
        if not np.isfinite(h_sub):
            raise NumericalError(f"Arnoldi iteration {j + 1}: h_(j+1,j) = {h_sub}")
        H[j + 1, j] = h_sub
        h_scale = max(h_scale, float(np.abs(H[: j + 2, j]).max()))
        step_seconds.append(_time.perf_counter() - t0)

        if h_sub <= BREAKDOWN_TOL * h_scale:  # invariant subspace reached
            fresh = None
            if stop.exhaustive and j + 1 < stop.m_a:
                H[j + 1, j] = 0.0
                fresh = _fresh_direction(basis, ops, stop.restart_seed + restarts)
            if fresh is None:  # not restarting, or orthogonal complement exhausted
                stop_reason = "breakdown"
                break
            restarts += 1
            basis.append(fresh)
            continue
        basis.append(ops.scale(w, 1.0 / h_sub))  # project's output is already compressed

        if not stop.exhaustive and (j + 1) % CHECK_EVERY == 0 and j + 1 < stop.m_a:
            vals, _ = _hessenberg_eigs(H[: j + 1, : j + 1])
            ready = _stop_ready(vals, prev_vals, stop)
            prev_vals = vals
            if ready:
                stop_reason = "stable"
                break

    Hout = H[: j + 2, : j + 1]  # iterations 1 .. j + 1 ran
    pairs = ritz_pairs(Hout, basis, pol)
    vals = np.array([p[0] for p in pairs])

    return ArnoldiResult(
        H=Hout,
        basis=basis,
        ritz_values=vals,
        ritz_vectors=[p[1] for p in pairs],
        converged_count=int(np.sum(vals >= stop.eps_eig)),
        stop_reason=stop_reason,
        step_seconds=step_seconds,
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
    ratio = float(s[1] / s[0]) if s.size > 1 else 0.0
    return _rank_cut(s, TruncationPolicy(eps0=RANK_TAIL_TOL)), ratio
