"""Low-rank Arnoldi iteration with full reorthogonalization.

The iteration runs on either vector representation: dense vectors
(initial-condition and steady modes, and the distributed source's data
side) or low-rank space-time fields (the distributed source under full
observation).  A dense basis is the rows of one float64 block, a low-rank
one a list.  ``_norm``, ``_scale`` and ``_finite`` dispatch on the vector
type; ``lr_dot`` and ``lr_truncate`` are looked up by module name on every
call, so a caller that rebinds ``arnoldi.lr_dot`` or ``arnoldi.lr_truncate``
(a tracer) sees each call.

Orthogonalization is classical Gram-Schmidt with one reorthogonalization
pass (CGS2): each pass takes every coefficient from the current vector and
subtracts the whole projection as one exact combination, two GEMVs on a
dense block.  In low-rank mode that combination is recompressed once per
pass, and each Ritz vector once, which keeps storage at O(n_x + n_t) per
vector without a truncation per basis vector.  The m Ritz vectors are one
product basis·Y: one GEMM on a dense block, and in low-rank mode
``_combinations``, which shares each long-side product across a block.

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
from scipy.linalg import blas

from .errors import InvalidConfigError, NumericalError, check_count, check_real
from .lowrank import (
    LowRankMat,
    TruncationPolicy,
    _fro,
    lr_dot,
    lr_norm,
    lr_scale,
    lr_sums,
    lr_truncate,
)

BREAKDOWN_TOL = 1e-14
CHECK_EVERY = 10        # Arnoldi steps between Ritz refreshes of a default run
STABILITY_RTOL = 1e-3   # refresh-to-refresh drift allowed of a retained Ritz value


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
        if not 0 < check_real("eps_eig", self.eps_eig) < np.inf:  # NaN fails every comparison
            raise InvalidConfigError(f"eps_eig must be finite and positive, got {self.eps_eig}")


@dataclass
class ArnoldiResult:
    H: np.ndarray                 # (m+1, m) Hessenberg matrix
    basis: list                   # m (or m+1) orthonormal vectors, rows of one block if dense
    ritz_values: np.ndarray       # real, descending
    ritz_vectors: list            # the representation of the basis, or of ritz_basis
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
        """max |<v_i, v_j> - δ_ij| over the stored basis; one Gram product when dense."""
        m = len(self.basis)
        if not isinstance(self.basis[0], LowRankMat):
            V = np.asarray(self.basis)
            return float(np.abs(V @ V.T - np.eye(m)).max())
        worst = 0.0
        for i in range(m):
            for j in range(i, m):
                g = lr_dot(self.basis[i], self.basis[j])
                worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
        return worst

    def asymmetry(self) -> float:
        """max |Hm - Hmᵀ| / max |Hm| over the leading square block (0 if zero)."""
        m = self.H.shape[1]
        Hm = self.H[:m, :m]
        scale = float(np.abs(Hm).max())
        return float(np.abs(Hm - Hm.T).max()) / scale if scale > 0 else 0.0


def _norm(v) -> float:
    """‖v‖; a dense v's is numpy's, or ``_fro``'s where numpy's squaring overflows."""
    if isinstance(v, LowRankMat):
        return lr_norm(v)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    return nrm if nrm < np.inf else _fro(v)


def _scale(v, c: float):
    """c·v; a dense v is scaled in place."""
    return lr_scale(v, c) if isinstance(v, LowRankMat) else np.multiply(v, c, out=v)


def _finite(v) -> bool:
    parts = (v.W1, v.W2) if isinstance(v, LowRankMat) else (v,)
    return all(np.isfinite(p).all() for p in parts)


def _combinations(basis, C, pol: TruncationPolicy):
    """basis·C[:, k] for each column k of C, in order, over a low-rank basis.

    Each column's exact sum comes from ``lr_sums``, which shares the
    long-side products between columns, and is truncated once; map keeps
    no exact sum once its truncation is handed on.
    """
    return map(lambda S: lr_truncate(S, pol), lr_sums(basis, C))


def _combine(basis, coeffs, pol: TruncationPolicy):
    """Σ c_i·basis_i, the one-column case of ``_combinations``."""
    (out,) = _combinations(basis, np.asarray(coeffs, dtype=float)[:, None], pol)
    return out


def _project(w, basis, pol: TruncationPolicy):
    """One classical Gram-Schmidt pass: (coefficients, w minus its projection).

    Every coefficient is taken from the incoming w, so the update is a
    single combination: on a dense block of rows V, h = V·w and then
    w − Vᵀ·h into a new vector, two GEMVs; in low-rank mode one truncation.
    """
    if isinstance(basis, np.ndarray):
        h = basis @ w
        return h, blas.dgemv(-1.0, basis.T, h, 1.0, w)
    h = np.array([lr_dot(w, v) for v in basis])
    return h, _combine([w, *basis], np.concatenate(([1.0], -h)), pol)


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
    eigensolve.  The vectors are the rows of one GEMM Yᵀ·V over the first m
    dense basis rows (a list is stacked), or the columns of basis·Y from
    ``_combinations`` (one truncation each under ``pol``, TruncationPolicy()
    when None); each is normalized, a dense one in place.
    """
    m = H.shape[1]
    vals, Y = _hessenberg_eigs(H[:m, :m])
    if isinstance(basis[0], LowRankMat):
        vectors = _combinations(basis[:m], Y, pol or TruncationPolicy())
    else:
        vectors = Y.T @ np.asarray(basis[:m], dtype=float)
    pairs = []
    for val, v in zip(vals, vectors):
        nrm = _norm(v)
        if nrm > 0:
            v = _scale(v, 1.0 / nrm)
        pairs.append((float(val), v))
    return pairs


def _fresh_direction(basis: list, pol: TruncationPolicy, seed: int):
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
    w = _scale(w, 1.0 / _norm(w))
    for _pass in range(2):
        _, w = _project(w, basis, pol)
    nrm = _norm(w)
    if nrm <= 1e-6:
        return None
    return _scale(w, 1.0 / nrm)


def _store(basis, k: int, v, cap: int):
    """basis plus v as entry k; a full block first grows by CHECK_EVERY rows, up to cap."""
    if isinstance(basis, list):
        return basis + [v]
    if k == len(basis):
        grown = np.empty((min(k + CHECK_EVERY, cap), basis.shape[1]))
        grown[:k] = basis
        basis = grown
    basis[k] = v
    return basis


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
    ritz_basis: list | None = None,
) -> ArnoldiResult:
    """Arnoldi iteration for a self-adjoint-up-to-truncation operator action.

    ``apply`` runs once per iteration, so a per-call trace lines up with them.
    A dense basis is one block of rows grown by ``_store``, listed as views.

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
    ritz_basis : list, optional
        The vectors the Ritz vectors are combined from, entry j standing
        for basis vector j, as ``apply`` fills it in while it runs; the
        basis itself when None.  Source mode's data side passes each
        apply's parameter-side image here.
    """
    nrm = _norm(v1)
    if not np.isfinite(nrm):
        raise NumericalError(f"Arnoldi start vector has norm {nrm}")
    if nrm == 0:
        raise ValueError("start vector must be nonzero")
    if isinstance(v1, LowRankMat):
        basis = [_combine([v1], [1.0 / nrm], pol)]
    else:  # row 0 of a block of CHECK_EVERY + 1 rows, grown by _store
        basis = np.empty((min(CHECK_EVERY, stop.m_a) + 1, len(v1)))
        np.multiply(v1, 1.0 / nrm, out=basis[0])
    del v1  # the caller's start vector is not held through the run
    H = np.zeros((stop.m_a + 1, stop.m_a))
    step_seconds: list[float] = []
    prev_vals: np.ndarray | None = None
    stop_reason = "cap"
    restarts = 0
    h_scale = 0.0  # running max |H_ij|, the operator-scale estimate

    for j in range(stop.m_a):
        t0 = _time.perf_counter()
        w = apply(basis[j])
        if not _finite(w):
            raise NumericalError(f"Arnoldi iteration {j + 1}: operator output is not finite")

        for _pass in range(2):  # CGS with one reorthogonalization pass
            h, w = _project(w, basis[: j + 1], pol)
            H[: j + 1, j] += h

        h_sub = _norm(w)
        if not np.isfinite(h_sub):
            raise NumericalError(f"Arnoldi iteration {j + 1}: h_(j+1,j) = {h_sub}")
        H[j + 1, j] = h_sub
        h_scale = max(h_scale, float(np.abs(H[: j + 2, j]).max()))
        step_seconds.append(_time.perf_counter() - t0)

        if h_sub <= BREAKDOWN_TOL * h_scale:  # invariant subspace reached
            fresh = None
            if stop.exhaustive and j + 1 < stop.m_a:
                H[j + 1, j] = 0.0
                fresh = _fresh_direction(basis[: j + 1], pol, stop.restart_seed + restarts)
            if fresh is None:  # not restarting, or orthogonal complement exhausted
                stop_reason = "breakdown"
                break
            restarts += 1
            basis = _store(basis, j + 1, fresh, stop.m_a + 1)
            continue
        basis = _store(basis, j + 1, _scale(w, 1.0 / h_sub), stop.m_a + 1)  # w is compressed

        if not stop.exhaustive and (j + 1) % CHECK_EVERY == 0 and j + 1 < stop.m_a:
            vals, _ = _hessenberg_eigs(H[: j + 1, : j + 1])
            ready = _stop_ready(vals, prev_vals, stop)
            prev_vals = vals
            if ready:
                stop_reason = "stable"
                break

    Hout = H[: j + 2, : j + 1]  # iterations 1 .. j + 1 ran
    pairs = ritz_pairs(Hout, basis if ritz_basis is None else ritz_basis, pol)
    vals = np.array([p[0] for p in pairs])

    return ArnoldiResult(
        H=Hout,
        basis=list(basis[: j + 1 if stop_reason == "breakdown" else j + 2]),
        ritz_values=vals,
        ritz_vectors=[p[1] for p in pairs],
        converged_count=int(np.sum(vals >= stop.eps_eig)),
        stop_reason=stop_reason,
        step_seconds=step_seconds,
        restarts=restarts,
    )
