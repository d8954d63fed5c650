"""All-at-once space-time operator for implicit Euler and its low-rank solvers.

The operator K acts block lower-bidiagonally on a stacked field
vec([y_1, ..., y_{n_t}]): block k of K·vec(Y) is

    step_matrix · y_k  -  M_scale · y_{k-1},      y_0 := 0,

with step_matrix = M_scale·(I + tau·L).  In factor form this is

    K(W1·W2ᵀ) = (step_matrix·W1)·W2ᵀ - (M_scale·W1)·(S·W2)ᵀ,

where S is the lower time shift, so K and Kᵀ map low-rank fields to
low-rank fields with at most doubled rank.  The step solve is factored once
per (operator, tau) pair and reused for every solve, including transposed
ones.

L = I⊗A1 + A2⊗I is a Kronecker sum of tridiagonal 1-D factors, and a factor
whose axis carries no wind is symmetric.  One solver class, ``StepSolver``,
solves the step matrix by the fast diagonalization method (Lynch, Rice &
Thomas, Numer. Math. 6, 1964) along every such axis, with one modal map for
every wind: V2ᵀ·X·V1 per column, with an identity on an axis that keeps its
wind.  Without wind (heat and convection-diffusion at zero wind) both
factors are diagonalized, and a step solve is one diagonal scale in their
2-D eigenbasis.  With wind along one axis, the symmetric factor's
eigenvectors turn the step matrix into n_side independent tridiagonal
systems along the windy axis, which one diagonal similarity G makes
symmetric positive definite; they are stacked into one and factored by
LAPACK pttrf, and a solve is pttrs between elementwise scales by g.  Wind
along both axes, or a windy factor whose G would span more than
``MAX_SCALE_DECADES`` decades, leaves no axis diagonalized: the map is the
identity, and the step matrix is factored by a sparse LU.

The solver's interface (``restrict``, ``to_modal``, ``solve_modal``,
``from_modal``) is exposed as ``SpaceTimeOperator.solver``.  M =
M_scale·I commutes with the orthogonal eigenvector transform, so a sweep's
time march (``_march``) runs in the solver's modal coordinates: it
transforms the rhs factor once and pays one in-place step solve per step.
A pane of every row is recompressed in modal coordinates too; a pane of
some rows transforms the grid lines that hold them at each flush.  A
sweep's full-row sides, its rhs and its pane, are physical by default, and
modal with ``modal=True``: then a full-row pane passes from one sweep to the
next with no transform, and the caller transforms only the field it injects
and the one it reads out.  A flush (``_extend_pane``) keeps its
remainder's Q as Householder reflectors, its second pass included; they come
from ``lowrank``'s one geqrt kernel, which serves truncations, sums and the
posterior too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .discretize import SpatialOperator, TimeGrid
from .errors import NumericalError, check_count
from .lowrank import (LowRankMat, TruncationPolicy, _add_product, _add_reflector_product, _fro,
                      _qr_reflectors, _rank_cut, _reflector_q, _svd, lr_truncate)

COMPRESS_EVERY = 16  # default sweep steps between recompressions (2 flushes at n_t 30)
MAX_SCALE_DECADES = 300.0  # widest log10(max g / min g) of a symmetrizer a solve scales by
# A flush projects its new columns once; when ‖D·X2‖, whose square bounds the
# orthonormality its basis would then lose, exceeds this, the remainder basis
# is projected and orthonormalized a second time
REORTH_BOUND = 1e-6


def _symmetrizer(A: sp.spmatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """(g, e): G = diag(g) with A = G·A_s·G⁻¹ and A_s symmetric, and A_s's off-diagonal e.

    A tridiagonal A whose off-diagonal pairs share one sign (lo_i·up_i > 0,
    lo the sub- and up the superdiagonal) is made symmetric by the ratios
    g_i/g_{i-1} = √(lo_i/up_i): A_s keeps A's diagonal, and its off-diagonal
    is sign(lo)·√(lo·up).  The logs of g are centred about their mid-range,
    so max(g)·min(g) = 1.  None when some lo·up ≤ 0, or when g spans more
    than ``MAX_SCALE_DECADES`` decades, where scaling a vector by g or 1/g
    would leave the floating-point range.
    """
    lo, up = A.diagonal(-1), A.diagonal(1)
    if not (lo * up > 0.0).all():
        return None
    log_g = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(np.abs(lo)) - np.log(np.abs(up))))))
    low, high = log_g.min(), log_g.max()
    if high - low > MAX_SCALE_DECADES * np.log(10.0):
        return None
    return np.exp(log_g - 0.5 * (low + high)), np.copysign(np.sqrt(lo * up), lo)


class StepSolver:
    """Direct solver for a·I + b·L, L = I⊗A1 + A2⊗I, factored once.

    A factor whose axis carries no wind is symmetric, A = V·diag(λ)·Vᵀ, and
    is diagonalized once by a dense ``eigh`` (one for both axes when A1 and
    A2 are one object, as heat's are).  ``V1``/``V2`` hold x1's and x2's
    eigenvectors, or None for an axis that keeps its wind.  Per column, a
    field X laid out as x2 × x1 has the modal field V2ᵀ·X·V1, with the
    identity for a None; the map is orthogonal.  It is stored transposed
    (``transposed``) only when x1 alone is diagonalized, so that the windy
    axis runs contiguously.  ``solve_modal`` chooses the kernel by how many
    axes were diagonalized (``axes``):

    - two: entry (l, k) of the system is a + b·(λ2_l + λ1_k), and a solve is
      one in-place scale by its reciprocal, the same in both directions;
    - one: along mode k of the diagonalized axis the system is the
      tridiagonal (a + b·λ_k)·I + b·A_t on the windy axis.  The upwind A_t
      has off-diagonals of one sign, so a diagonal similarity makes it
      symmetric, A_t = G·A_s·G⁻¹ (``_symmetrizer``), and each block is
      G·S_k·G⁻¹ with S_k = (a + b·λ_k)·I + b·A_s symmetric positive
      definite.  The n_side blocks are stacked into one tridiagonal matrix
      that pttrf factors once; a solve is pttrs between elementwise scales
      by 1/g and g (the transpose solve swaps them), so G never enters the
      orthogonal transforms;
    - none: SuperLU of a·I + b·L under a symmetric minimum-degree ordering,
      which never pivots off the diagonal because the matrix is strictly
      diagonally dominant.  It serves wind along both axes, and one-axis
      wind whose g would span more than ``MAX_SCALE_DECADES`` decades (at
      n_side 63, a cell Péclet number w·h/ν above about 5e9).

    A modal diagonal or stacked system that is not positive definite and
    finite (the step and steady operators' always is) raises
    ``NumericalError``, and so does a failed factorization or a solve whose
    kernel reports failure.
    """

    def __init__(self, spatial: SpatialOperator, a: float, b: float):
        n = self.n = spatial.grid.n_side
        A1, A2 = spatial.A1, spatial.A2
        w1, w2 = spatial.wind
        windy = A2 if w1 == 0.0 else A1  # the factor that carries one-axis wind
        symmetrizer = _symmetrizer(windy) if (w1 == 0.0) != (w2 == 0.0) else None
        fdm = symmetrizer is not None or w1 == w2 == 0.0  # else no axis is diagonalized
        lam1, self.V1 = np.linalg.eigh(A1.toarray()) if fdm and w1 == 0.0 else (None, None)
        lam2, self.V2 = None, None
        if fdm and w2 == 0.0:
            lam2, self.V2 = (lam1, self.V1) if A2 is A1 else np.linalg.eigh(A2.toarray())
        self.axes = (self.V1 is not None) + (self.V2 is not None)  # how many are diagonalized
        self.transposed = self.axes == 1 and self.V2 is None
        if self.axes == 2:
            d = a + b * (lam2[:, None] + lam1)  # the modal field is x2 mode × x1 mode
            if not np.all(np.isfinite(d) & (d > 0.0)):
                raise NumericalError(
                    f"modal diagonal is not positive and finite (min {d.min():.3g})")
            self._scale = (1.0 / d).ravel()[:, None]
        elif self.axes == 1:
            # block k (contiguous, the diagonalized index k slowest) couples only
            # along the windy axis; the off-diagonals are zero between blocks
            g, e = symmetrizer
            lam = lam2 if self.V1 is None else lam1
            d = ((a + b * lam)[:, None] + b * windy.diagonal()).ravel()
            e = np.tile(np.append(b * e, 0.0), n)[:-1]
            self._d, self._e, info = lapack.dpttrf(d, e, overwrite_d=True, overwrite_e=True)
            if info != 0 or not np.isfinite(self._d).all():  # a NaN passes pttrf's pivot test
                raise NumericalError("stacked tridiagonal system is not positive definite "
                                     f"and finite (pttrf info={info})")
            self._g = np.tile(g, n)[:, None]
            self._g_inv = 1.0 / self._g
        else:
            A = (a * sp.identity(n * n, format="csr") + b * spatial.L).tocsc()
            try:
                self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # singular factorization surfaces to callers
                raise NumericalError(f"step matrix factorization failed: {exc}") from exc

    def restrict(self, keep: np.ndarray) -> tuple:
        """The transforms' bookkeeping on the dofs ``keep``: (V2, V1, at).

        It depends only on ``keep``, so a sweep computes it once for every
        ``to_modal``/``from_modal`` call on those rows.  Each transform acts
        only on the grid lines that hold a kept dof: V2 and V1 are its
        eigenvector rows on them, or None for an axis without a transform,
        which stays at full length.  ``at`` places each kept dof in the
        field on those lines, flattened with x2 slow and x1 fast.
        """
        (rows, at_r), (cols, at_c) = (np.unique(x, return_inverse=True)
                                      for x in np.divmod(keep, self.n))
        V2 = None if self.V2 is None else self.V2[rows]
        V1 = None if self.V1 is None else self.V1[cols]
        i2 = rows[at_r] if V2 is None else at_r
        i1, width = (cols[at_c], self.n) if V1 is None else (at_c, len(cols))
        return V2, V1, i2 * width + i1

    def to_modal(self, B: np.ndarray, restriction: tuple | None = None) -> np.ndarray:
        """B (n_x × c) in modal coordinates: a fresh Fortran-ordered n_x × c block.

        With ``restriction = restrict(keep)`` B holds only the rows ``keep``,
        len(keep) × c, and stands for the field that is zero off them: only
        the kept lines of a diagonalized axis are transformed, and an axis
        without a transform is embedded at full length.
        """
        n, c, V2, V1 = self.n, B.shape[1], self.V2, self.V1
        if restriction is None:
            X = B.T.reshape(c, n, n)  # per column, the field as x2 × x1; a view of B
        else:
            V2, V1, at = restriction
            X = np.zeros((c, n if V2 is None else len(V2), n if V1 is None else len(V1)))
            X.reshape(c, -1)[:, at] = B.T
        if self.transposed:
            M = V1.T @ X.swapaxes(1, 2)  # (column, x1 mode, x2): each block runs along x2
        else:
            M = X if V2 is None else V2.T @ X
            M = M if V1 is None else M @ V1
        if M is X and restriction is None:  # no transform: the block is still a fresh one
            M = X.copy()
        return M.reshape(c, n * n).T

    def from_modal(self, W: np.ndarray, restriction: tuple | None = None) -> np.ndarray:
        """The inverse of ``to_modal``: W (n_x × c, modal) back on the grid.

        With ``restriction = restrict(keep)`` only the rows ``keep`` are
        returned, as a Fortran-ordered len(keep) × c block, and only the
        kept lines of a diagonalized axis are transformed.
        """
        n, c, V2, V1 = self.n, W.shape[1], self.V2, self.V1
        M = W.T.reshape(c, n, n)  # per column, the modal field as stored
        if self.transposed:
            M = M.swapaxes(1, 2)  # x2 × x1 mode
        if restriction is not None:
            V2, V1, at = restriction
        X = M if V2 is None else V2 @ M
        X = X if V1 is None else X @ V1.T  # per column, x2 × x1
        if restriction is None:
            return X.reshape(c, n * n).T
        # take gives a C-ordered c × len(keep) array, so its transpose is Fortran-ordered
        return np.take(X.reshape(c, -1), at, axis=1).T

    def solve_modal(self, W: np.ndarray, trans: str = "N") -> np.ndarray:
        """Overwrite the modal block W with the modal solve, and return it.

        W must be a Fortran-ordered float64 n_x × c array (a column slice
        of one qualifies): the kernel runs in its memory.
        """
        if not (W.ndim == 2 and W.flags.f_contiguous and W.dtype == np.float64):
            raise ValueError("a modal solve needs a Fortran-ordered float64 block")
        if W.shape[0] != self.n * self.n:  # pttrs would refuse it or solve a prefix
            raise ValueError(f"a modal solve needs {self.n * self.n} rows, not {W.shape[0]}")
        if self.axes == 2:  # diagonal: the transpose solve is the same scale
            W *= self._scale
            return W
        if W.shape[1] == 0:  # LAPACK is never handed zero right-hand sides
            return W
        if self.axes == 0:
            W[...] = self.lu.solve(W, trans=trans)
            return W
        # A = G·S·G⁻¹ solves as g ⊙ S⁻¹(W / g), and Aᵀ = G⁻¹·S·G as S⁻¹(g ⊙ W) / g
        pre, post = (self._g_inv, self._g) if trans == "N" else (self._g, self._g_inv)
        W *= pre
        X, info = lapack.dpttrs(self._d, self._e, W, overwrite_b=True)
        if info != 0:
            raise NumericalError(f"stacked tridiagonal solve failed (pttrs info={info})")
        X *= post
        return X


class SpaceTimeOperator:
    """Block-bidiagonal implicit-Euler operator with a cached step factorization.

    ``solver`` is the ``StepSolver`` of ``step_matrix``; ``solve_step``
    solves in its modal coordinates.
    """

    def __init__(self, spatial: SpatialOperator, time: TimeGrid):
        self.spatial = spatial
        self.time = time
        self.m_scale = spatial.grid.m_scale
        self.solver = StepSolver(spatial, self.m_scale, self.m_scale * time.tau)

    @cached_property
    def step_matrix(self) -> sp.csc_matrix:
        """M_scale·(I + tau·L), assembled on first use; the step solver never reads it."""
        eye = sp.identity(self.n_x, format="csr")
        return (self.m_scale * (eye + self.time.tau * self.spatial.L)).tocsc()

    @property
    def n_x(self) -> int:
        return self.spatial.grid.n_x

    @property
    def n_t(self) -> int:
        return self.time.n_t

    def solve_step(self, W: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """step_matrix⁻¹·W (or its transpose's inverse) in ``solver``'s modal coordinates.

        The result is written into W, which must be a Fortran-ordered
        float64 n_x × c block (a column slice of one qualifies), and returned.
        """
        return self.solver.solve_modal(W, "T" if adjoint else "N")


def _extend_pane(pane: LowRankMat, W: np.ndarray, idx: list[int],
                 pol: TruncationPolicy) -> LowRankMat:
    """Truncate pane + W·Eᵀ, where E places column i of W at time idx[i].

    The pane is canonical: its basis Q = pane.W1 is orthonormal and pane.W2
    = Q2·diag(σ).  It must be zero at the chunk's times, as a sweep's pane
    is, since the march reaches each time once; a flush refuses a chunk at a
    time where it is not.  One projection splits the new columns as W = Q·C
    + Qb·Rb, with C = QᵀW and Qb·Rb the thin QR of the remainder.  With D =
    QᵀQb and P = Qb − Q·D, which is orthogonal to Q, the sum is [Q P]·core·
    [Q2 E]ᵀ, core = [[diag(σ), C + D·Rb], [0, Rb]].  Q2 is zero at the
    chunk's times, so the time factor T = [Q2 E] has orthonormal columns,
    and only the (r + k) × (r + c) core is truncated, with an identity time
    factor: a truncation of T's field would only take a QR of T.  The core
    carries σ, so the truncation's noise test scales with the field, and
    ‖T‖_F = ‖I‖_F.  The kept right factor is mapped through T once, Q2
    times its top r rows plus its last c rows placed at idx, and the basis
    is rotated once, U = Q·(X1 − D·X2) + Qb·X2 for the kept left factor
    split at row r; no QR of an n_x × (r + c) or n_t × (r + c) factor is
    formed.

    Qb enters only those two products, so it is kept as the remainder's
    Householder reflectors, Qb = E_k − V·S (``_qr_reflectors``, E_k the
    identity's first k columns).  D = Q[:k]ᵀ − (QᵀV)·S takes one
    GEMM with V where QᵀQb took one with Qb, and Qb·X2 is one GEMM with V
    into U plus X2 added to U's top k rows (``_add_reflector_product``).

    PᵀP = I − DᵀD, so UᵀU = I − (D·X2)ᵀ(D·X2) exactly.  The rank cut keeps
    only singular values above eps0·‖A‖/√(r + c), ‖A‖ the field's norm, and
    X2 = Rb·(…)·Σ⁻¹ with a factor of norm ≤ 1, so ‖D·X2‖ ≤ β =
    ‖D·Rb‖·√(r + c)/(eps0·‖A‖).  β costs no SVD, so it filters: where it
    exceeds ``REORTH_BOUND``, a probe SVD of the same core gives the X2 the
    truncation would keep, and only when the loss ‖D·X2‖ itself exceeds
    ``REORTH_BOUND`` does a second pass run, in V's memory: it forms Qb over
    V, projects it again and factors it into new reflectors, which leaves D
    = 0.  That is a test in the spirit of Daniel, Gragg, Kaufman & Stewart
    (Math. Comp. 30, 1976), who reorthogonalize only when a projection has
    cancelled too much.  Neither the probe nor the second pass truncates,
    so a flush is one ``lr_truncate`` either way.  The first flush meets an
    empty pane (r = 0): it has nothing to project against, so W's thin QR
    alone gives Qb and Rb, and the core is Rb.

    The flush works in the caller's block: W must be a Fortran-ordered
    float64 array, which the projection overwrites with the remainder and
    its QR (and a second pass) with V, so the caller must not read W
    afterwards.  Beyond small arrays it allocates only the rotated basis,
    a fresh Fortran-ordered array, so the pane's basis stays one.
    """
    if not (W.ndim == 2 and W.flags.f_contiguous and W.dtype == np.float64):
        raise ValueError("a flush needs a Fortran-ordered float64 block")
    if pane.W2[idx].any():
        raise ValueError("a flush needs a pane that is zero at the chunk's times")
    n_t, c = pane.shape[1], len(idx)
    Q, r = pane.W1, pane.r
    if r:
        C = blas.dgemm(1.0, Q, W, trans_a=True)
        _add_product(W, -1.0, Q, C)
    V, S, Rb = _qr_reflectors(W)  # Qb = E_k − V·S
    k = len(Rb)
    core = np.zeros((r + k, r + c))
    core[r:, r:] = Rb
    D = None
    if r:
        W2 = pane.W2
        sigma = np.linalg.norm(W2, axis=0)
        sigma[sigma == 0.0] = 1.0  # a column norm that underflowed stays unscaled
        core.flat[:r * (r + c + 1):r + c + 1] = sigma  # the top-left block's diagonal
        D = Q[:k].T - blas.dgemm(1.0, Q, V, trans_a=True) @ S  # QᵀQb
        DRb = D @ Rb
        core[:r, r:] = C + DRb  # the remainder's part along Q, Q·D·Rb, joins C
        # ‖A‖² of pane + (Q·C + Qb·Rb)·Eᵀ: the pane is zero at the chunk's new times
        norm2 = np.vdot(W2, W2) + np.vdot(C, C) + np.vdot(Rb, Rb)
        # β > REORTH_BOUND, compared in squares; then the exact loss decides
        if (np.vdot(DRb, DRb) * (r + c) > (REORTH_BOUND * pol.eps0) ** 2 * norm2
                and _kept_loss(core, D, r, pol) > REORTH_BOUND):
            Qb = _reflector_q(V, S)  # in V's memory
            _add_product(Qb, -1.0, Q, D)
            V, S, Rd = _qr_reflectors(Qb)
            core[r:, r:] = Rd @ Rb
            D = None  # the new Qb is orthogonal to Q
    small = lr_truncate(LowRankMat(core, np.eye(r + c)), pol)
    X1, X2 = small.W1[:r], small.W1[r:]
    if D is not None:
        X1 = X1 - D @ X2
    U = blas.dgemm(1.0, Q, X1)  # zero when the pane was empty
    _add_reflector_product(U, V, S, X2)
    # Q2 times the top r rows, and the last c rows at the chunk's times, where Q2 is zero
    Y2 = (pane.W2 / sigma) @ small.W2[:r] if r else np.zeros((n_t, small.r))
    Y2[idx] = small.W2[r:]
    return LowRankMat(U, Y2)


def _kept_loss(core: np.ndarray, D: np.ndarray, r: int, pol: TruncationPolicy) -> float:
    """‖D·X2‖_F for the rows X2 (from row r on) of the left factor that truncating core keeps.

    One thin SVD of the core and the rank cut of ``lr_truncate``, which
    takes the same SVD of the same core: the basis of a flush without a
    second pass loses orthonormality by at most the square of this.
    """
    U, s, _ = _svd(core)
    return _fro(D @ U[r:, :_rank_cut(s, pol)])


def _march(K: SpaceTimeOperator, rhs: LowRankMat, adjoint: bool, width: int,
           part: tuple | None, modal: bool = False):
    """Yield (idx, W), the modal y_k for k in idx, per chunk of ≤ ``width`` steps in time order.

    The recursion y_k = step⁻¹·M_scale·y_{k-1} + B·W2[k] (backward in time,
    with the transposed solve, when adjoint) runs in the step solver's modal
    coordinates, with B = step⁻¹·rhs.W1 the rhs factor transformed (by
    ``to_modal`` restricted by ``part``) and solved once: one step solve per
    step on the running column plus one multi-column solve for the rhs factor.
    With ``modal`` a full-row rhs factor (``part`` None) is modal already and
    is not transformed; it is copied into a fresh Fortran block, which the
    solve overwrites, so the caller's factor is left as it was.
    Each chunk starts with one GEMM that writes its rhs terms B·W2[idx]ᵀ into a
    Fortran-ordered block of min(``width``, n_t) columns; then, per step, the
    running column is scaled by M_scale, solved in place by one ``solve_step``
    and added into its block column.  B is released once the last product is
    written.  The running column is copied out before W is yielded, so the
    consumer may overwrite W; the next chunk reuses its memory.
    """
    n_t = K.n_t
    if modal and part is None:
        B = np.array(rhs.W1, dtype=np.float64, order="F")
    else:
        B = K.solver.to_modal(rhs.W1, part)
    B = K.solve_step(B, adjoint)  # step⁻¹·rhs
    steps = range(n_t - 1, -1, -1) if adjoint else range(n_t)
    block = np.empty((K.n_x, min(width, n_t)), order="F")
    y_run = np.zeros((K.n_x, 1), order="F")
    for start in range(0, n_t, width):
        idx = list(steps[start:start + width])
        W = block[:, :len(idx)]
        # the chunk's rhs terms B·W2[idx]ᵀ, written into the block (beta 0 reads none of it)
        blas.dgemm(1.0, B, rhs.W2[idx].T, c=W, overwrite_c=True)
        if start + width >= n_t:
            del B  # the last product is written: B is not held through the last consumer
        y_prev = y_run  # the previous chunk's last step
        for j in range(len(idx)):
            np.multiply(y_prev, K.m_scale, out=y_run)
            W[:, j:j + 1] += K.solve_step(y_run, adjoint)
            y_prev = W[:, j:j + 1]
        y_run[:] = y_prev
        yield idx, W


def st_solve_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    adjoint: bool = False,
    compress_every: int = COMPRESS_EVERY,
    rows: np.ndarray | None = None,
    modal: bool = False,
) -> LowRankMat:
    """Solve K·vec(Y) = vec(rhs) (or Kᵀ for adjoint=True) by time substitution.

    An initial condition u enters as ``LowRankMat.from_column(M_scale·u,
    n_t, 0)``.  ``_march`` runs the recursion, and the growing solution
    pane is recompressed after each of its chunks of ``compress_every``
    steps (16 by default, so n_t = 30 takes 2 flushes) so storage stays
    O((n_x + n_t)·r).  A flush (``_extend_pane``) projects the new columns
    once onto the pane's basis, takes one thin QR of the remainder, whose Q
    it keeps as Householder reflectors, and truncates a small core; a second
    projection runs only where the basis would otherwise lose more
    orthonormality than ``REORTH_BOUND`` allows.  The
    returned pane is canonical, as ``lr_truncate`` leaves it, so callers
    read its rank and need not recompress it.

    ``rows`` (a boolean mask or index array over the n_x dofs; None means
    all of them) is the observation S: a forward sweep returns S·Y, and an
    adjoint sweep reads Sᵀ·Z, an rhs Z of only those rows (a Hessian apply
    passes the forward sweep's pane as it is), and returns every row.  So
    the restriction applies to the adjoint's rhs, which the march reads
    through it, or to the forward's flushed chunks.  A pane of every row is
    flushed in modal coordinates: the transform is orthogonal, so the
    truncations are those of the physical pane.  A forward pane of some
    rows is physical; each flush transforms only the grid lines that hold
    its rows.

    ``modal`` chooses the coordinates of every full-row side of the sweep:
    the rhs of a forward sweep, the rhs of an adjoint sweep without
    ``rows``, and a result of every row.  By default they are physical, so
    a full-row rhs is transformed once and a full-row pane's basis is
    transformed back once at the end.  With ``modal=True`` they are in
    ``K.solver``'s modal coordinates (V2ᵀ·X·V1 per column, ``to_modal``),
    and neither transform runs, so a pane can pass from one sweep to the
    next without a round trip.  A side of some rows stays physical either
    way.
    """
    n_x, n_t = K.n_x, K.n_t
    compress_every = check_count("compress_every", compress_every, 1)
    keep = None if rows is None else np.arange(n_x)[rows]
    if keep is not None and np.array_equal(keep, np.arange(n_x)):
        keep = None  # every row in order: the full-row pane, rounded as rows=None
    n_keep = n_x if keep is None else len(keep)
    n_in, n_out = (n_keep, n_x) if adjoint else (n_x, n_keep)
    if rhs.shape != (n_in, n_t):
        raise ValueError(f"rhs shape {rhs.shape} does not match the sweep's {(n_in, n_t)}")
    if rhs.r == 0:
        return LowRankMat.zeros(n_out, n_t)

    S = K.solver
    part = None if keep is None else S.restrict(keep)  # once for every restricted transform
    rhs_part, part = (part, None) if adjoint else (None, part)  # restricts the rhs or the chunks
    pane = LowRankMat.zeros(n_out, n_t)
    for idx, W in _march(K, rhs, adjoint, compress_every, rhs_part, modal):
        pane = _extend_pane(pane, W if part is None else S.from_modal(W, part), idx, pol)
    del W  # the march's block is not held through the back-transform
    if part is None and not modal:
        pane = LowRankMat(S.from_modal(pane.W1), pane.W2)
    return pane


def st_solve_adjoint_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    compress_every: int = COMPRESS_EVERY,
    rows: np.ndarray | None = None,
    modal: bool = False,
) -> LowRankMat:
    """Kᵀ-solve by backward-in-time substitution with the transposed factorization.

    With ``rows`` the rhs holds only those rows; the result has every row.
    ``modal`` is ``st_solve_sweep``'s.
    """
    return st_solve_sweep(K, rhs, pol, adjoint=True, compress_every=compress_every,
                          rows=rows, modal=modal)
