"""Spatial/temporal grids, discrete PDE operators, and analytic eigen-oracles.

The domain is the unit square with homogeneous Dirichlet boundaries on all
sides.  Interior dofs are numbered lexicographically with the x1 index
running fastest: dof k sits at ((i+1)h, (j+1)h) with i = k % n_side,
j = k // n_side.  The mass matrix is lumped to the scalar M_scale = h².
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import InvalidConfigError, check_count, check_real, shown


@dataclass(frozen=True)
class Grid:
    """Uniform interior lattice of the unit square."""

    n_side: int
    h: float

    @property
    def n_x(self) -> int:
        return self.n_side**2

    @property
    def m_scale(self) -> float:
        """Lumped mass coefficient h²."""
        return self.h**2

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x1, x2) coordinates of every dof, each of length n_x."""
        pts = self.h * np.arange(1, self.n_side + 1)
        x2, x1 = np.meshgrid(pts, pts, indexing="ij")
        return x1.ravel(), x2.ravel()


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid for implicit Euler with n_t steps on (0, T]."""

    n_t: int
    tau: float
    T: float = 1.0


@dataclass(frozen=True)
class SpatialOperator:
    """Discrete diffusion(-convection) operator on a Grid.

    L approximates -Δ (heat) or -nu·Δ + wind·∇ (convection-diffusion) with
    zero Dirichlet data.  It is the Kronecker sum L = I⊗A1 + A2⊗I of two
    tridiagonal n_side × n_side factors, A1 along x1 (the fast index) and
    A2 along x2.  L is assembled from them on first read (a separable step
    solve never reads it), so the three never disagree.  A factor whose axis
    carries no wind is symmetric.  Immutable; safe for shared reads.
    """

    kind: str  # "heat" | "convdiff"
    grid: Grid
    A1: sp.csr_matrix
    A2: sp.csr_matrix
    wind: tuple[float, float] = (0.0, 0.0)

    @cached_property
    def L(self) -> sp.csr_matrix:
        eye = sp.identity(self.grid.n_side, format="csr")
        return (sp.kron(eye, self.A1) + sp.kron(self.A2, eye)).tocsr()


def build_grid(n_side: int) -> Grid:
    """Interior grid with mesh size h = 1/(n_side+1)."""
    n_side = check_count("n_side", n_side, 2)
    # check_real refuses a count too large to convert to a float (10**400)
    return Grid(n_side=n_side, h=1.0 / check_real("n_side", n_side + 1))


def build_time_grid(n_t: int, T: float = 1.0) -> TimeGrid:
    n_t = check_count("n_t", n_t, 1)
    if not 0 < check_real("final time T", T) < np.inf:  # NaN fails every comparison
        raise InvalidConfigError(f"final time T must be finite and positive, got {T}")
    return TimeGrid(n_t=n_t, tau=T / check_real("n_t", n_t), T=T)  # as h in build_grid


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _upwind_1d(n: int, h: float, w: float) -> sp.csr_matrix:
    """First-order upwind discretization of w·d/dx, zero Dirichlet."""
    if w == 0.0:
        return sp.csr_matrix((n, n))
    if w > 0:
        # w*(u_i - u_{i-1})/h
        return (w / h) * sp.diags([np.full(n - 1, -1.0), np.ones(n)], [-1, 0], format="csr")
    # w*(u_{i+1} - u_i)/h, rewritten so the diagonal stays positive
    return (-w / h) * sp.diags([np.ones(n), np.full(n - 1, -1.0)], [0, 1], format="csr")


def assemble_heat(grid: Grid) -> SpatialOperator:
    """5-point FD Laplacian, symmetric, diagonal entries 4/h²."""
    A = _laplacian_1d(grid.n_side, grid.h)
    return SpatialOperator(kind="heat", grid=grid, A1=A, A2=A)


def assemble_convdiff(grid: Grid, nu: float, wind: tuple[float, float]) -> SpatialOperator:
    """nu·(5-point Laplacian) + first-order upwind wind·∇; nonsymmetric for wind ≠ 0."""
    if not 0 < check_real("viscosity nu", nu) < np.inf:  # NaN fails every comparison
        raise InvalidConfigError(f"viscosity nu must be finite and positive, got {nu}")
    try:  # InvalidConfigError from check_real is a ValueError too
        w1, w2 = (check_real("wind", x) for x in wind)
    except (TypeError, ValueError):  # not two real components
        w1 = w2 = np.nan
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise InvalidConfigError(f"wind must be two finite numbers, got {shown(wind)}")
    n, h = grid.n_side, grid.h
    diffusion = nu * _laplacian_1d(n, h)
    A1 = (diffusion + _upwind_1d(n, h, w1)).tocsr()
    # equal winds give equal factors: one object, so a separable solve diagonalizes it once
    A2 = A1 if w2 == w1 else (diffusion + _upwind_1d(n, h, w2)).tocsr()
    return SpatialOperator(kind="convdiff", grid=grid, A1=A1, A2=A2, wind=(w1, w2))


def analytic_poisson_eig(m: int, n: int) -> float:
    """Continuous Dirichlet-Laplacian eigenvalue π²(m² + n²) on the unit square."""
    if m < 1 or n < 1:
        raise InvalidConfigError(f"need m, n >= 1, got ({m}, {n})")
    return np.pi**2 * (m**2 + n**2)


def _check_mode(m: int, n: int, grid: Grid) -> None:
    if not (1 <= m <= grid.n_side and 1 <= n <= grid.n_side):
        raise InvalidConfigError(
            f"mode indices must lie in [1, {grid.n_side}], got ({m}, {n})"
        )


def discrete_fd_eig(m: int, n: int, grid: Grid) -> float:
    """Exact eigenvalue (4/h²)(sin²(mπh/2) + sin²(nπh/2)) of the FD Laplacian."""
    _check_mode(m, n, grid)
    h = grid.h
    return (4.0 / h**2) * (np.sin(m * np.pi * h / 2) ** 2 + np.sin(n * np.pi * h / 2) ** 2)


def eigvec_dense(m: int, n: int, grid: Grid) -> np.ndarray:
    """Unit-norm FD Laplacian eigenvector sin(nπx2) ⊗ sin(mπx1) of mode (m, n), x1 fastest."""
    _check_mode(m, n, grid)
    pts = np.arange(1, grid.n_side + 1) * grid.h
    f1 = np.sin(m * np.pi * pts)
    f2 = np.sin(n * np.pi * pts)
    f1 /= np.linalg.norm(f1)
    f2 /= np.linalg.norm(f2)
    return np.outer(f2, f1).ravel()
