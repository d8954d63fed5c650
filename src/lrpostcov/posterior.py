"""Low-rank posterior covariance via the Sherman-Morrison-Woodbury update.

With the prior-preconditioned misfit Hessian approximated by V·Λ·Vᵀ and a
scalar prior Γ_prior = γ·I, the posterior covariance action and diagonal are

    Γ_post·v   = γ·(v - V·(λ̃ ∘ Vᵀv)),        λ̃_i = λ_i/(λ_i + 1),
    diag(Γ_post) = γ·(1 - Σ_i λ̃_i·V[:,i]²).

The full matrix is never materialized; only its diagonal and its action are
exposed.  All functions here are pure; summaries are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


def lambda_tilde(lam: float) -> float:
    """SMW filter factor λ/(λ+1); rejects negative input as a non-PSD artifact."""
    if lam < 0:
        raise NumericalError(
            f"negative eigenvalue {lam} reached the posterior update; "
            "upstream approximation is not positive semidefinite"
        )
    return lam / (lam + 1.0)


@dataclass(frozen=True)
class PosteriorSummary:
    """Retained eigenpairs and the derived pointwise variance field."""

    eigenvalues: np.ndarray    # descending, >= 0
    filters: np.ndarray        # λ̃ in [0, 1), nonincreasing
    V: np.ndarray              # (n_x, k), orthonormal columns
    gamma_prior: float
    variance_field: np.ndarray  # (n_x,), entries in (0, gamma_prior]

    @property
    def k(self) -> int:
        return self.V.shape[1]


def _reorthonormalize(V: np.ndarray) -> np.ndarray:
    # Truncation can leave ~1e-6-level non-orthogonality that would bias the
    # variance diagonal, so clean the basis defensively.
    if V.shape[1] == 0:
        return V
    Q, _ = np.linalg.qr(V)
    return Q


def build_summary(
    ritz_values: np.ndarray,
    ritz_vectors,
    gamma_prior: float,
    eps_eig: float | None = None,
) -> PosteriorSummary:
    """Assemble a PosteriorSummary from Arnoldi's real Ritz pairs.

    Pairs with eigenvalue >= eps_eig are retained (all nonnegative pairs
    when eps_eig is None).  Arnoldi returns at least one pair, so the
    spatial dimension is that of the first vector even when none is kept.
    """
    vals = np.asarray(ritz_values, dtype=float)
    order = np.argsort(-vals)
    threshold = eps_eig if eps_eig is not None else 0.0
    keep = [i for i in order if vals[i] >= threshold]

    V = np.zeros((np.asarray(ritz_vectors[0]).shape[0], len(keep)))
    for col, i in enumerate(keep):
        v = np.asarray(ritz_vectors[i], dtype=float)
        V[:, col] = v / np.linalg.norm(v)
    V = _reorthonormalize(V)
    lams = vals[keep]
    filters = np.array([lambda_tilde(float(lam)) for lam in lams])
    return PosteriorSummary(
        eigenvalues=lams,
        filters=filters,
        V=V,
        gamma_prior=gamma_prior,
        variance_field=gamma_prior * (1.0 - (V**2) @ filters),
    )


def posterior_apply(v: np.ndarray, summary: PosteriorSummary) -> np.ndarray:
    """Action of the approximate posterior covariance on a spatial vector."""
    v = np.asarray(v, dtype=float)
    if summary.k == 0:
        return summary.gamma_prior * v
    return summary.gamma_prior * (v - summary.V @ (summary.filters * (summary.V.T @ v)))


def variance_to_grid(field: np.ndarray, n_side: int) -> np.ndarray:
    """Reshape a dof-ordered variance field to an (x2, x1)-indexed grid."""
    return np.asarray(field, dtype=float).reshape(n_side, n_side)


def write_variance_csv(field: np.ndarray, n_side: int, path) -> None:
    """n_side × n_side CSV grid, row j = x2 level j, 17 significant digits."""
    grid = variance_to_grid(field, n_side)
    with open(path, "w") as fh:
        fh.write(",".join(f"c{i}" for i in range(n_side)) + "\n")
        for row in grid:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_variance_pgm(field: np.ndarray, n_side: int, gamma_prior: float, path) -> None:
    """Plain-text 8-bit PGM: field minimum maps to 0, gamma_prior to 255."""
    grid = variance_to_grid(field, n_side)
    lo = float(grid.min())
    span = gamma_prior - lo
    if span <= 0:
        pix = np.full_like(grid, 255.0)
    else:
        pix = np.clip(255.0 * (grid - lo) / span, 0.0, 255.0)
    pix = np.rint(pix).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{n_side} {n_side}\n255\n")
        for row in pix:
            fh.write(" ".join(str(v) for v in row) + "\n")
