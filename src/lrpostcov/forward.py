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
whose axis carries no wind is symmetric.  The step matrix is solved by the
fast diagonalization method (Lynch, Rice & Thomas, Numer. Math. 6, 1964)
along every such axis (``SeparableSolver``).  Without wind (heat and
convection-diffusion at zero wind) both factors are diagonalized, and a
step solve is one diagonal scale in their 2-D eigenbasis.  With wind along
one axis, the symmetric factor's eigenvectors turn the step matrix into
n_side independent tridiagonal systems along the windy axis.  The upwind
factor's off-diagonals share one sign, so one diagonal similarity G makes
every system symmetric positive definite; they are stacked into one and
factored by LAPACK pttrf, and a solve is pttrs between elementwise scales
by g.  Wind along both axes leaves no symmetric factor, and neither does a
windy factor whose G would span more than ``MAX_SCALE_DECADES`` decades
(at n_side 63, a cell Péclet number w·h/ν above about 5e9); that step
matrix is factored by a sparse LU under a symmetric minimum-degree
ordering, which never pivots off the diagonal because the matrix is
strictly diagonally dominant.

Both solvers share one interface (``restrict``, ``to_modal``,
``solve_modal``, ``from_modal``), exposed as ``SpaceTimeOperator.solver``.
M = M_scale·I commutes with the orthogonal eigenvector transform, so a
sweep's time march (``_march``) runs in the solver's modal coordinates: it
transforms the rhs factor once and pays one in-place step solve per step.
A pane of every row is recompressed in modal coordinates too, and only
its basis is transformed back; a pane of some rows transforms the grid
lines that hold them at each flush.  For the sparse LU the transform is
the identity, so the same sweep serves it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .discretize import SpatialOperator, TimeGrid
from .errors import NumericalError, check_count
from .lowrank import (LowRankMat, TruncationPolicy, _add_reflector_product, _qr,
                      _qr_reflectors, _reflector_q, lr_truncate)

COMPRESS_EVERY = 16  # default sweep steps between recompressions (2 flushes at n_t 30)
MAX_SCALE_DECADES = 300.0  # widest log10(max g / min g) of a symmetrizer a solve scales by
# A flush projects its new columns once; when the bound on the orthonormality
# its basis would then lose exceeds this (the loss is at most its square), the
# remainder basis is projected and orthonormalized a second time
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


class NotSeparable(ValueError):
    """``SeparableSolver`` does not take the operator: the step takes ``_SparseLU``."""


class SeparableSolver:
    """Direct solver for a·I + b·L, L = I⊗A1 + A2⊗I with a symmetric factor.

    A factor whose axis carries no wind is symmetric, A = V·diag(λ)·Vᵀ,
    and is diagonalized once by a dense ``eigh``.  When neither axis
    carries wind, both are, and in the 2-D eigenbasis V2⊗V1 the system is
    diagonal: entry (l, k) is a + b·(λ2_l + λ1_k).  A solve is then one
    transform (``to_modal``), one in-place scale by the reciprocal
    diagonal (``solve_modal``, the same in both directions) and one
    back-transform (``from_modal``), for any number of columns; the sweeps
    and steady mode chain solves and transform only at the ends.  The two
    factors share one ``eigh`` when they are one object, as heat's are.

    With wind along one axis only the other is diagonalized: along its
    eigenvector k the system reduces to the tridiagonal (a + b·λ_k)·I +
    b·A_t on the windy axis.  The upwind factor A_t has off-diagonals of
    one sign, so a diagonal similarity makes it symmetric, A_t =
    G·A_s·G⁻¹ (``_symmetrizer``), and each block is G·S_k·G⁻¹ with S_k =
    (a + b·λ_k)·I + b·A_s symmetric positive definite.  The n_side S_k are
    stacked into one block-diagonal tridiagonal matrix that pttrf factors
    once as L·D·Lᵀ.  A solve scales by 1/g, runs pttrs and scales by g;
    the transpose solve swaps the two scales.  G acts elementwise around
    the solve and never enters the orthogonal transforms.  x1 is
    diagonalized when it carries no wind, else x2; the second case is the
    first on the transposed grid.  Wind along both axes, or a windy
    factor without a ``_symmetrizer``, raises ``NotSeparable``.

    A modal diagonal or stacked system that is not positive definite and
    finite (the step and steady operators' always is) raises
    ``NumericalError``, and so does a solve whose kernel reports failure.
    """

    def __init__(self, spatial: SpatialOperator, a: float, b: float):
        w1, w2 = spatial.wind
        if w1 != 0.0 and w2 != 0.0:
            raise NotSeparable("wind along both axes leaves no symmetric factor")
        self.n = spatial.grid.n_side
        self.x1_diag = w1 == 0.0
        A_d, A_t = (spatial.A1, spatial.A2) if self.x1_diag else (spatial.A2, spatial.A1)
        symmetrizer = None if w1 == w2 else _symmetrizer(A_t)  # w1 == w2: no wind at all
        if w1 != w2 and symmetrizer is None:
            raise NotSeparable("the windy factor has no diagonal symmetrizer within "
                               f"{MAX_SCALE_DECADES:g} decades")
        lam, self.V = np.linalg.eigh(A_d.toarray())
        self.V2 = None  # x2's eigenvectors, when both axes are diagonalized
        if symmetrizer is None:
            lam2, self.V2 = (lam, self.V) if A_t is A_d else np.linalg.eigh(A_t.toarray())
            d = a + b * (lam2[:, None] + lam)  # the modal field is x2 mode × x1 mode
            if not np.all(np.isfinite(d) & (d > 0.0)):
                raise NumericalError(
                    f"modal diagonal is not positive and finite (min {d.min():.3g})")
            self._scale = (1.0 / d).ravel()[:, None]
            return
        g, e = symmetrizer
        # block k (contiguous, the diagonalized index k slowest) couples only
        # along the other axis; the off-diagonals are zero between blocks
        d = ((a + b * lam)[:, None] + b * A_t.diagonal()).ravel()
        e = np.tile(np.append(b * e, 0.0), self.n)[:-1]
        self._d, self._e, info = lapack.dpttrf(d, e, overwrite_d=True, overwrite_e=True)
        if info != 0 or not np.isfinite(self._d).all():  # a NaN passes pttrf's pivot test
            raise NumericalError("stacked tridiagonal system is not positive definite "
                                 f"and finite (pttrf info={info})")
        self._g = np.tile(g, self.n)[:, None]
        self._g_inv = 1.0 / self._g

    def restrict(self, keep: np.ndarray) -> tuple:
        """The bookkeeping of the transforms restricted to the dofs ``keep``.

        It depends only on ``keep``, so a sweep computes it once and hands
        it to every ``to_modal``/``from_modal`` call on those rows: the
        grid lines that hold a kept dof, where each kept dof sits among
        them, and the eigenvector rows on them.
        """
        n = self.n
        x2, x1 = np.divmod(keep, n)
        if self.V2 is not None:  # the kept rows × kept columns of the grid
            (rows, at_r), (cols, at_c) = (np.unique(x, return_inverse=True) for x in (x2, x1))
            return at_r, at_c, self.V2[rows], self.V[cols], at_r * len(cols) + at_c
        # lines along the tridiagonal axis, each transformed along the diagonalized one
        diag, other = (x1, x2) if self.x1_diag else (x2, x1)
        lines, at = np.unique(other, return_inverse=True)
        return diag, lines, at, (at * n + x1 if self.x1_diag else x2 * len(lines) + at)

    def to_modal(self, B: np.ndarray, restriction: tuple | None = None) -> np.ndarray:
        """B (n_x × c) in modal coordinates: a fresh Fortran-ordered n_x × c block.

        Column by column, the eigenvector transforms act along the
        diagonalized axes; with one such axis the dofs are reordered so
        that each eigen-index owns one contiguous block of the stacked
        tridiagonal system.  The map is orthogonal.

        With ``restriction = restrict(keep)`` B holds only the rows ``keep``,
        len(keep) × c, and stands for the field that is zero off them: only
        the grid lines that hold a kept dof are transformed, and with one
        diagonalized axis the other modal entries are zero.
        """
        n, c, V, V2 = self.n, B.shape[1], self.V, self.V2
        if restriction is None:
            G = B.T.reshape(c, n, n)  # per column, the field as x2 × x1; a view of B
            if V2 is not None:
                return (V2.T @ G @ V).reshape(c, n * n).T
            if self.x1_diag:
                G = G.swapaxes(1, 2)  # the diagonalized axis first
            return (V.T @ G).reshape(c, n * n).T  # (column, eigen-index k, tridiagonal axis)
        if V2 is not None:  # the field on the kept rows × kept columns of the grid
            at_r, at_c, V2_rows, V_cols, _ = restriction
            G = np.zeros((c, len(V2_rows), len(V_cols)))
            G[:, at_r, at_c] = B.T
            return (V2_rows.T @ G @ V_cols).reshape(c, n * n).T
        # per column, the kept lines with the diagonalized axis first
        diag, lines, at, _ = restriction
        G = np.zeros((c, n, len(lines)))
        G[:, diag, at] = B.T
        out = np.zeros((c, n, n))
        out[:, :, lines] = V.T @ G
        return out.reshape(c, n * n).T

    def from_modal(self, W: np.ndarray, restriction: tuple | None = None) -> np.ndarray:
        """The inverse of ``to_modal``: W (n_x × c, modal) back on the grid.

        With ``restriction = restrict(keep)`` only the rows ``keep`` are returned,
        as a Fortran-ordered len(keep) × c block, and only the grid lines
        that hold a kept dof are transformed.
        """
        n, c, V, V2 = self.n, W.shape[1], self.V, self.V2
        W = W.T.reshape(c, n, n)  # per column, the modal field
        if restriction is None:
            if V2 is not None:
                X = V2 @ W @ V.T
            else:
                X = W.swapaxes(1, 2) @ V.T if self.x1_diag else V @ W  # per column, x2 × x1
            return X.reshape(c, n * n).T
        if V2 is not None:  # the kept rows × kept columns of the grid
            _, _, V2_rows, V_cols, flat = restriction
            X = V2_rows @ W @ V_cols.T
        else:
            _, lines, _, flat = restriction
            if self.x1_diag:  # lines of constant x2, each transformed along x1
                X = W[:, :, lines].swapaxes(1, 2) @ V.T
            else:  # lines of constant x1, each transformed along x2
                X = V @ W[:, :, lines]
        # take gives a C-ordered c × len(keep) array, so its transpose is Fortran-ordered
        return np.take(X.reshape(c, -1), flat, axis=1).T

    def solve_modal(self, W: np.ndarray, trans: str = "N") -> np.ndarray:
        """Overwrite the modal block W with the step's modal solve, and return it.

        W must be a Fortran-ordered float64 n_x × c array (a column slice
        of one qualifies): the scales and the LAPACK solve run in its memory.
        """
        if not (W.ndim == 2 and W.flags.f_contiguous and W.dtype == np.float64):
            raise ValueError("a modal solve needs a Fortran-ordered float64 block")
        if W.shape[0] != self.n * self.n:  # pttrs would refuse it or solve a prefix
            raise ValueError(f"a modal solve needs {self.n * self.n} rows, not {W.shape[0]}")
        if self.V2 is not None:  # diagonal: the transpose solve is the same scale
            W *= self._scale
            return W
        if W.shape[1] == 0:  # LAPACK is never handed zero right-hand sides
            return W
        # A = G·S·G⁻¹ solves as g ⊙ S⁻¹(W / g), and Aᵀ = G⁻¹·S·G as S⁻¹(g ⊙ W) / g
        pre, post = (self._g_inv, self._g) if trans == "N" else (self._g, self._g_inv)
        W *= pre
        X, info = lapack.dpttrs(self._d, self._e, W, overwrite_b=True)
        if info != 0:
            raise NumericalError(f"stacked tridiagonal solve failed (pttrs info={info})")
        X *= post
        return X


class _SparseLU:
    """The step solver when ``SeparableSolver`` does not fit: SuperLU behind its interface.

    Its modal coordinates are the physical ones, so ``to_modal`` is a
    Fortran-ordered copy, or the embedding of the kept rows, and
    ``from_modal`` returns its input, or the kept rows of it; its
    restriction is the kept dofs themselves.
    """

    def __init__(self, A: sp.csc_matrix):
        try:
            self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factorization surfaces to callers
            raise NumericalError(f"step matrix factorization failed: {exc}") from exc

    @staticmethod
    def restrict(keep: np.ndarray) -> np.ndarray:
        return keep

    def to_modal(self, B: np.ndarray, restriction: np.ndarray | None = None) -> np.ndarray:
        if restriction is None:
            return np.array(B, dtype=float, order="F")
        W = np.zeros((self.lu.shape[0], B.shape[1]), order="F")
        W[restriction] = B
        return W

    def from_modal(self, W: np.ndarray, restriction: np.ndarray | None = None) -> np.ndarray:
        return W if restriction is None else np.asfortranarray(W[restriction])

    def solve_modal(self, W: np.ndarray, trans: str = "N") -> np.ndarray:
        """Overwrite W with SuperLU's solve, and return it."""
        W[...] = self.lu.solve(W, trans=trans)
        return W


class SpaceTimeOperator:
    """Block-bidiagonal implicit-Euler operator with a cached step factorization.

    ``solver`` is a ``SeparableSolver`` when it takes the operator (an axis
    without wind, and a windy factor it can symmetrize), else a sparse LU
    of ``step_matrix``; ``solve_step`` solves in its modal coordinates.
    """

    def __init__(self, spatial: SpatialOperator, time: TimeGrid):
        self.spatial = spatial
        self.time = time
        self.m_scale = spatial.grid.m_scale
        try:
            self.solver = SeparableSolver(spatial, self.m_scale, self.m_scale * time.tau)
        except NotSeparable:
            self.solver = _SparseLU(self.step_matrix)

    @cached_property
    def step_matrix(self) -> sp.csc_matrix:
        """M_scale·(I + tau·L), assembled on first use; a separable solve never reads it."""
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


def _add_product(W: np.ndarray, alpha: float, Q: np.ndarray, C: np.ndarray) -> None:
    """W += alpha·Q·C in W's memory; W is a Fortran-ordered float64 block."""
    if W.size:  # dgemm refuses an empty output block that ``@`` would accept
        blas.dgemm(alpha, Q, C, beta=1.0, c=W, overwrite_c=True)


def _extend_pane(pane: LowRankMat, W: np.ndarray, idx: list[int],
                 pol: TruncationPolicy) -> LowRankMat:
    """Truncate pane + W·Eᵀ, where E places column i of W at time idx[i].

    The pane is canonical: its basis Q = pane.W1 is orthonormal and pane.W2
    = Q2·diag(σ).  One projection splits the new columns as W = Q·C + Qb·Rb,
    with C = QᵀW and Qb·Rb the thin QR of the remainder.  With D = QᵀQb and
    P = Qb − Q·D, which is orthogonal to Q, the sum is [Q P]·core·[Q2 E]ᵀ,
    core = [[diag(σ), C + D·Rb], [0, Rb]].  The core carries σ, so the
    truncation's noise test scales with the field.  Only the (r + c) × n_t
    coefficient field is truncated, and the basis is rotated once, U =
    Q·(X1 − D·X2) + Qb·X2 for the kept left factor split at row r; no QR of
    an n_x × (r + c) factor is formed.

    Qb enters only those two products, so it is kept as the remainder's
    Householder reflectors, Qb = E_k − V·S (``lowrank._qr_reflectors``, E_k
    the identity's first k columns): D = Q[:k]ᵀ − (QᵀV)·S takes one GEMM
    with V where QᵀQb took one with Qb, and Qb·X2 is one GEMM with V into
    U plus X2 added to U's top k rows.  So Qb itself, which orgqr forms at
    about the cost of the QR, is formed only for a second pass.

    PᵀP = I − DᵀD, so UᵀU = I − (D·X2)ᵀ(D·X2) exactly.  The rank
    cut keeps only singular values above eps0·‖A‖/√(r + c), ‖A‖ the field's
    norm, and X2 = Rb·(…)·Σ⁻¹ with a factor of norm ≤ 1, so ‖D·X2‖ ≤ β =
    ‖D·Rb‖·√(r + c)/(eps0·‖A‖).  Only when β exceeds ``REORTH_BOUND`` is Qb
    formed, projected again and re-orthonormalized, which leaves D = 0: a
    bound in the spirit of Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30,
    1976), who reorthogonalize only when a projection has cancelled too
    much.  The second pass truncates nothing, so a flush is one
    ``lr_truncate`` either way.  The first flush meets an empty pane (r =
    0): it has nothing to project against, so W's thin QR alone gives Qb
    and Rb, and the field truncated is Rb·Eᵀ.

    The flush works in the caller's block: W must be a Fortran-ordered
    float64 array, which the projection overwrites with the remainder, its
    QR with V and a second pass with Qb, so the caller must not read W
    afterwards.  Beyond small arrays it allocates only the rotated basis,
    a fresh Fortran-ordered array, so the pane's basis stays one.
    """
    if not (W.ndim == 2 and W.flags.f_contiguous and W.dtype == np.float64):
        raise ValueError("a flush needs a Fortran-ordered float64 block")
    n_t, c = pane.shape[1], len(idx)
    Q, r = pane.W1, pane.r
    if r:
        C = blas.dgemm(1.0, Q, W, trans_a=True)
        _add_product(W, -1.0, Q, C)
    V, S, Rb = _qr_reflectors(W)  # Qb = E_k − V·S, formed only by a second pass
    k, Qb = len(Rb), None
    core = np.zeros((r + k, r + c))
    T = np.zeros((n_t, r + c))
    T[idx, range(r, r + c)] = 1.0
    D = None
    if r:
        W2 = pane.W2
        sigma = np.linalg.norm(W2, axis=0)
        sigma[sigma == 0.0] = 1.0  # a column norm that underflowed stays unscaled
        np.divide(W2, sigma, out=T[:, :r])
        core.flat[:r * (r + c + 1):r + c + 1] = sigma  # the top-left block's diagonal
        D = Q[:k].T - blas.dgemm(1.0, Q, V, trans_a=True) @ S  # QᵀQb
        DRb = D @ Rb
        # ‖A‖² of the field the core holds, pane + (Q·C + Qb·Rb)·Eᵀ, with its cross term
        CT = C.T
        norm2 = np.vdot(W2, W2) + 2.0 * np.vdot(W2[idx], CT) + np.vdot(CT, CT) + np.vdot(Rb, Rb)
        # β > REORTH_BOUND, compared in squares, so a zero field takes the pass
        if np.vdot(DRb, DRb) * (r + c) > (REORTH_BOUND * pol.eps0) ** 2 * norm2:
            Qb = _reflector_q(V, S)
            _add_product(Qb, -1.0, Q, D)
            Qb, Rd = _qr(Qb, overwrite_a=True)
            Rb = Rd @ Rb
            D = None  # Qb is orthogonal to Q now
        C += DRb  # the remainder's part along Q, Q·D·Rb
        core[:r, r:] = C
    core[r:, r:] = Rb
    small = lr_truncate(LowRankMat(core, T), pol)
    X1, X2 = small.W1[:r], small.W1[r:]
    if D is not None:
        X1 = X1 - D @ X2
    U = blas.dgemm(1.0, Q, X1)  # zero when the pane was empty
    if Qb is None:
        _add_reflector_product(U, V, S, X2)
    else:
        _add_product(U, 1.0, Qb, X2)
    return LowRankMat(U, small.W2)


def _march(K: SpaceTimeOperator, rhs: LowRankMat, adjoint: bool, width: int,
           part: tuple | np.ndarray | None):
    """Yield (idx, W), the modal y_k for k in idx, per chunk of ≤ ``width`` steps in time order.

    The recursion y_k = step⁻¹·M_scale·y_{k-1} + B·W2[k] (backward in time,
    with the transposed solve, when adjoint) runs in the step solver's modal
    coordinates, with B = step⁻¹·rhs.W1 the rhs factor transformed (by
    ``to_modal`` restricted by ``part``) and solved once: one step solve per
    step on the running column plus one multi-column solve for the rhs factor.
    Each chunk starts with one GEMM that writes its rhs terms B·W2[idx]ᵀ into a
    Fortran-ordered block of min(``width``, n_t) columns; then, per step, the
    running column is scaled by M_scale, solved in place by one ``solve_step``
    and added into its block column.  B is released once the last product is
    written.  The running column is copied out before W is yielded, so the
    consumer may overwrite W; the next chunk reuses its memory.
    """
    n_t = K.n_t
    B = K.solve_step(K.solver.to_modal(rhs.W1, part), adjoint)  # step⁻¹·rhs
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
) -> LowRankMat:
    """Solve K·vec(Y) = vec(rhs) (or Kᵀ for adjoint=True) by time substitution.

    An initial condition u enters as ``LowRankMat.from_column(M_scale·u,
    n_t, 0)``.  ``_march`` runs the recursion, and the growing solution
    pane is recompressed after each of its chunks of ``compress_every``
    steps (16 by default, so n_t = 30 takes 2 flushes) so storage stays
    O((n_x + n_t)·r).  A flush (``_extend_pane``) projects the new columns
    once onto the pane's basis, takes one thin QR of the remainder, whose Q
    it keeps as Householder reflectors, and truncates a small core; a second
    projection runs only where its bound says the basis needs it.  The
    returned pane is canonical, as ``lr_truncate`` leaves it, so callers
    read its rank and need not recompress it.

    ``rows`` (a boolean mask or index array over the n_x dofs; None means
    all of them) is the observation S: a forward sweep returns S·Y, and an
    adjoint sweep reads Sᵀ·Z, an rhs Z of only those rows (a Hessian apply
    passes the forward sweep's pane as it is), and returns every row.  So
    the restriction applies to the adjoint's rhs, which the march reads
    through it, or to the forward's flushed chunks.  A pane of every row is
    flushed in modal coordinates, and its basis is transformed back once
    at the end: the transform is orthogonal, so the truncations are those
    of the physical pane.  A forward pane of some rows is physical; each
    flush transforms only the grid lines that hold its rows.
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
    for idx, W in _march(K, rhs, adjoint, compress_every, rhs_part):
        pane = _extend_pane(pane, W if part is None else S.from_modal(W, part), idx, pol)
    del W  # the march's block is not held through the back-transform
    if part is None:
        pane = LowRankMat(S.from_modal(pane.W1), pane.W2)
    return pane


def st_solve_adjoint_sweep(
    K: SpaceTimeOperator,
    rhs: LowRankMat,
    pol: TruncationPolicy,
    compress_every: int = COMPRESS_EVERY,
    rows: np.ndarray | None = None,
) -> LowRankMat:
    """Kᵀ-solve by backward-in-time substitution with the transposed factorization.

    With ``rows`` the rhs holds only those rows; the result has every row.
    """
    return st_solve_sweep(K, rhs, pol, adjoint=True, compress_every=compress_every,
                          rows=rows)
