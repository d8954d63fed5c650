"""Dense brute-force reference path for small instances.

Everything here is built from the assembled spatial operator and plain
dense LAPACK routines (lu_factor / eigh), deliberately sharing no code with
the low-rank solvers, so that agreement between the two paths is evidence
rather than tautology.  Sizes are capped because the dense misfit Hessian
is O(n²) storage and O(n³) work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import InvalidConfigError, NumericalError

DENSE_DIM_CAP = 2000
# compare() pass thresholds, printed as the report's tol_* lines
EIG_RTOL = 1e-6
ANGLE_TOL = 1e-4
VAR_RTOL = 1e-4
HV_RTOL = 1e-8
CLUSTER_GAP = 1e-3  # relative gap that separates eigenvalue clusters


def dense_forward(L_dense: np.ndarray, m_scale: float, tau: float,
                  F: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Block forward (or backward) substitution through the space-time system.

    F holds the right-hand side per time step, shape (n_x, n_t) for one
    field or (n_x, n_t, c) for c stacked fields; returns the solution of the
    same shape.  One dense LU of the step matrix serves every field.
    """
    n_x, n_t = F.shape[:2]
    lu = la.lu_factor(m_scale * (np.eye(n_x) + tau * L_dense))
    trans = 1 if adjoint else 0
    Y = np.zeros_like(F)
    steps = range(n_t - 1, -1, -1) if adjoint else range(n_t)
    y_prev = np.zeros_like(F[:, 0])
    for k in steps:
        Y[:, k] = la.lu_solve(lu, m_scale * y_prev + F[:, k], trans=trans)
        y_prev = Y[:, k]
    return Y


def _misfit_sweeps(L_dense, m_scale, tau, F, mask, beta_noise):
    """Forward sweep, observation weight β_noise·τ·M_scale on the mask, adjoint sweep."""
    Y = dense_forward(L_dense, m_scale, tau, F)
    Z = beta_noise * tau * m_scale * (mask[:, None, None] * Y)
    return dense_forward(L_dense, m_scale, tau, Z, adjoint=True)


def dense_misfit_ic(L_dense: np.ndarray, m_scale: float, tau: float, n_t: int,
                    mask: np.ndarray, beta_noise: float,
                    gamma_prior: float) -> tuple[np.ndarray, float]:
    """Explicit prior-preconditioned misfit Hessian for the IC parameter.

    Unit initial conditions go through one stacked pipeline per column block;
    a block's panes hold at most DENSE_DIM_CAP² floats, or one column.
    Returns (symmetrized matrix, asymmetry defect relative to its norm).
    """
    n_x = L_dense.shape[0]
    check_cap(n_x)
    c = np.sqrt(gamma_prior) * m_scale
    block = max(1, DENSE_DIM_CAP**2 // (n_x * n_t))
    H = np.zeros((n_x, n_x))
    for lo in range(0, n_x, block):
        hi = min(lo + block, n_x)
        F = np.zeros((n_x, n_t, hi - lo))
        F[lo:hi, 0, :] = c * np.eye(hi - lo)
        Q = _misfit_sweeps(L_dense, m_scale, tau, F, mask, beta_noise)
        H[:, lo:hi] = c * Q[:, 0, :]
    return _symmetrize(H)


def dense_misfit_source(L_dense: np.ndarray, m_scale: float, tau: float, n_t: int,
                        mask: np.ndarray, beta_noise: float,
                        gamma_prior: float) -> tuple[np.ndarray, float]:
    """Explicit misfit Hessian for the distributed space-time source parameter."""
    n_x = L_dense.shape[0]
    dim = n_x * n_t
    check_cap(dim)
    c = np.sqrt(gamma_prior) * (tau * m_scale)
    F = (c * np.eye(dim)).reshape((n_x, n_t, dim), order="F")
    Q = _misfit_sweeps(L_dense, m_scale, tau, F, mask, beta_noise)
    return _symmetrize(c * Q.reshape((dim, dim), order="F"))


def dense_misfit_steady(L_dense: np.ndarray, beta_noise: float,
                        beta_prior: float) -> tuple[np.ndarray, float]:
    """(beta_prior/beta_noise)·L⁻¹·L⁻¹ built densely."""
    n_x = L_dense.shape[0]
    check_cap(n_x)
    Linv = la.inv(L_dense)
    return _symmetrize((beta_prior / beta_noise) * (Linv @ Linv))


def check_cap(dim: int) -> None:
    """Refuse a dense oracle problem of dimension above DENSE_DIM_CAP."""
    if dim > DENSE_DIM_CAP:
        raise InvalidConfigError(
            f"dense oracle dimension {dim} exceeds the cap {DENSE_DIM_CAP}"
        )


def _symmetrize(H: np.ndarray) -> tuple[np.ndarray, float]:
    scale = np.abs(H).max()
    defect = float(np.abs(H - H.T).max() / scale) if scale > 0 else 0.0
    return 0.5 * (H + H.T), defect


def dense_eig_top(Hd: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, descending, residual-checked."""
    Hd = np.asarray(Hd, dtype=float)
    if not np.allclose(Hd, Hd.T, atol=1e-10 * max(1.0, np.abs(Hd).max())):
        raise InvalidConfigError("dense_eig_top expects a symmetric matrix")
    try:
        vals, vecs = np.linalg.eigh(Hd)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense symmetric eigensolve failed: {exc}") from exc
    vals, vecs = vals[::-1], vecs[:, ::-1]
    k = min(k, vals.size)
    norm = max(float(np.abs(vals).max()), 1e-300)
    for i in range(k):
        res = np.linalg.norm(Hd @ vecs[:, i] - vals[i] * vecs[:, i])
        if res > 1e-10 * norm:
            raise NumericalError(
                f"dense eigenpair {i} residual {res:.3e} above tolerance"
            )
    return vals[:k], vecs[:, :k]


def dense_posterior_diag(H_preconditioned: np.ndarray, gamma_prior: float) -> np.ndarray:
    """Diagonal of (H_unprec + Γ_prior⁻¹)⁻¹ with H_unprec = H̃/γ and Γ_prior = γ·I."""
    n = H_preconditioned.shape[0]
    H_unprec = H_preconditioned / gamma_prior
    post = la.inv(H_unprec + np.eye(n) / gamma_prior)
    return np.diag(post).copy()


def clusters(vals: np.ndarray) -> list[slice]:
    """Split a descending spectrum into near-degenerate groups."""
    groups, start = [], 0
    for i in range(1, len(vals)):
        denom = max(abs(vals[i - 1]), abs(vals[i]), 1e-300)
        if abs(vals[i - 1] - vals[i]) / denom > CLUSTER_GAP:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, len(vals)))
    return groups


@dataclass
class OracleReport:
    """Error metrics from comparing the low-rank path against the dense path."""

    eig_rel_errors: np.ndarray
    max_eig_rel_error: float
    max_principal_angle: float
    max_pair_residual: float
    variance_rel_error: float | None
    hv_rel_error: float | None
    asymmetry: float | None = None  # dense builder's asymmetry defect, measured
    tolerances: dict = field(default_factory=dict)  # pass thresholds only
    passed: bool = False

    def as_text(self) -> str:
        lines = [
            f"max_eig_rel_error={self.max_eig_rel_error:.6e}",
            f"max_principal_angle={self.max_principal_angle:.6e}",
            f"max_pair_residual={self.max_pair_residual:.6e}",
        ]
        if self.variance_rel_error is not None:
            lines.append(f"variance_rel_error={self.variance_rel_error:.6e}")
        if self.hv_rel_error is not None:
            lines.append(f"hv_rel_error={self.hv_rel_error:.6e}")
        if self.asymmetry is not None:
            lines.append(f"asymmetry={self.asymmetry:.6e}")
        for key, tol in self.tolerances.items():
            lines.append(f"tol_{key}={tol:.6e}")
        lines.append(f"result={'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def compare(
    lr_values: np.ndarray,
    lr_vectors: np.ndarray,
    dense_values: np.ndarray,
    dense_vectors: np.ndarray,
    Hd: np.ndarray | None = None,
    lr_variance: np.ndarray | None = None,
    dense_variance: np.ndarray | None = None,
    hv_rel_error: float | None = None,
) -> OracleReport:
    """Fill an OracleReport for the top-k comparison (k = len(dense_values)).

    Eigenvalues are compared index-by-index; eigenvector spans are compared
    per near-degenerate cluster by largest principal angle, so multiple
    eigenvalues do not produce spurious angle failures.  ``dense_vectors``
    may end short of k at a cluster boundary: the angle check then leaves
    out the clusters past it, which the caller could not compare whole.
    """
    k = len(dense_values)
    lr_vals = np.asarray(lr_values, dtype=float)[:k]
    if lr_vals.shape[0] != k or lr_vectors.shape[1] < k:
        raise ValueError(
            f"low-rank side provides {lr_vals.shape[0]} values / "
            f"{lr_vectors.shape[1]} vectors, dense side expects {k}"
        )
    dn_vals = np.asarray(dense_values, dtype=float)

    denom = np.maximum(np.abs(dn_vals), 1e-300)
    eig_err = np.abs(lr_vals - dn_vals) / denom

    max_angle = 0.0
    for grp in clusters(dn_vals[: dense_vectors.shape[1]]):
        angles = la.subspace_angles(lr_vectors[:, grp], dense_vectors[:, grp])
        if angles.size:
            max_angle = max(max_angle, float(angles.max()))

    max_res = 0.0
    if Hd is not None:
        scale = max(np.abs(dn_vals[0]), 1e-300)
        for i in range(k):
            v = lr_vectors[:, i]
            r = np.linalg.norm(Hd @ v - lr_vals[i] * v) / scale
            max_res = max(max_res, float(r))

    var_err = None
    if lr_variance is not None and dense_variance is not None:
        var_err = float(
            np.max(np.abs(lr_variance - dense_variance) / np.abs(dense_variance))
        )

    tolerances = {"eig_rel": EIG_RTOL, "angle": ANGLE_TOL}
    passed = bool(np.all(eig_err <= EIG_RTOL)) and max_angle <= ANGLE_TOL
    if var_err is not None:
        tolerances["var_rel"] = VAR_RTOL
        passed = passed and var_err <= VAR_RTOL
    if hv_rel_error is not None:
        tolerances["hv_rel"] = HV_RTOL
        passed = passed and hv_rel_error <= HV_RTOL

    return OracleReport(
        eig_rel_errors=eig_err,
        max_eig_rel_error=float(eig_err.max()) if eig_err.size else 0.0,
        max_principal_angle=max_angle,
        max_pair_residual=max_res,
        variance_rel_error=var_err,
        hv_rel_error=hv_rel_error,
        tolerances=tolerances,
        passed=passed,
    )


def hv_agreement(apply, Hd: np.ndarray, n_probe: int = 20, seed: int = 0) -> float:
    """Max relative disagreement of the matrix-free path vs the dense matrix.

    Gate this before any eigen comparison: if the two operators disagree,
    eigenvalue differences are meaningless.
    """
    rng = np.random.default_rng(seed)
    n = Hd.shape[0]
    worst = 0.0
    for _ in range(n_probe):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        ref = Hd @ v
        got = apply(v)
        denom = max(np.linalg.norm(ref), 1e-300)
        worst = max(worst, float(np.linalg.norm(got - ref) / denom))
    return worst
