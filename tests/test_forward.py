import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from scipy.linalg import lapack

import lrpostcov as lp
from lrpostcov import cli, oracle

POL = lp.TruncationPolicy(eps0=1e-8)


@pytest.fixture(scope="module")
def heat7():
    grid = lp.build_grid(7)
    op = lp.assemble_heat(grid)
    tg = lp.build_time_grid(5)
    return grid, op, tg, lp.SpaceTimeOperator(op, tg)


def _ic_rhs(K, u):
    """Forward rhs of an initial condition u: M_scale·u at time index 0."""
    return lp.LowRankMat.from_column(K.m_scale * u, K.n_t, 0)


def _rand_lr(rng, n_x, n_t, r):
    return lp.lr_truncate(
        lp.LowRankMat(rng.standard_normal((n_x, r)), rng.standard_normal((n_t, r))), POL
    )


def _apply(K, Y, adjoint=False):
    """K·vec(Y) (Kᵀ·vec(Y) if adjoint) in factor form; rank at most doubles, not truncated."""
    shifted = np.zeros_like(Y.W2)
    if adjoint:
        shifted[:-1] = Y.W2[1:]
    else:
        shifted[1:] = Y.W2[:-1]
    A = K.step_matrix.T if adjoint else K.step_matrix
    return lp.LowRankMat(np.hstack([A @ Y.W1, -K.m_scale * Y.W1]), np.hstack([Y.W2, shifted]))


def test_pure_mass_limit_keeps_initial_condition():
    # tau -> 0 surrogate: every step is y_k = y_{k-1}
    grid = lp.build_grid(5)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(5, T=5e-12))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n_x)
    Y = lp.st_solve_sweep(K, _ic_rhs(K, u), POL)
    assert Y.r == 1
    dense = lp.lr_to_dense(Y)
    for k in range(5):
        assert_allclose(dense[:, k], u, rtol=1e-6)


def test_eigvec_injection_rank1_geometric_decay(heat7):
    grid, op, tg, K = heat7
    v = lp.eigvec_dense(1, 1, grid)
    lam = lp.discrete_fd_eig(1, 1, grid)
    Y = lp.st_solve_sweep(K, _ic_rhs(K, v), POL)
    assert Y.r == 1
    theta = 1.0 / (1.0 + tg.tau * lam)  # scalar recursion in the eigenbasis
    expect = np.column_stack([theta**k * v for k in range(1, tg.n_t + 1)])
    assert np.abs(lp.lr_to_dense(Y) - expect).max() <= 1e-10


def test_forward_matches_dense_oracle(heat7):
    grid, op, tg, K = heat7
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.n_x)
    u /= np.linalg.norm(u)
    Y = lp.st_solve_sweep(K, _ic_rhs(K, u), POL)
    F = np.zeros((grid.n_x, tg.n_t))
    F[:, 0] = grid.m_scale * u
    Yd = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, F)
    assert np.linalg.norm(lp.lr_to_dense(Y) - Yd) <= 1e-8 * np.linalg.norm(Yd)


def test_adjoint_eigvec_decay_reversed_in_time(heat7):
    grid, op, tg, K = heat7
    v = lp.eigvec_dense(2, 2, grid)
    lam = lp.discrete_fd_eig(2, 2, grid)
    rhs = lp.LowRankMat.from_column(grid.m_scale * v, tg.n_t, tg.n_t - 1)
    Z = lp.st_solve_adjoint_sweep(K, rhs, POL)
    assert Z.r == 1
    theta = 1.0 / (1.0 + tg.tau * lam)
    expect = np.column_stack([theta ** (tg.n_t - k) * v for k in range(tg.n_t)])
    assert np.abs(lp.lr_to_dense(Z) - expect).max() <= 1e-10


def test_adjoint_consistency_on_random_fields(heat7):
    grid, op, tg, K = heat7
    rng = np.random.default_rng(2)
    a = _rand_lr(rng, grid.n_x, tg.n_t, 2)
    b = _rand_lr(rng, grid.n_x, tg.n_t, 2)
    lhs = lp.lr_dot(lp.st_solve_sweep(K, a, POL), b)
    rhs = lp.lr_dot(a, lp.st_solve_adjoint_sweep(K, b, POL))
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_convdiff_sweeps_match_dense_oracle():
    grid = lp.build_grid(7)
    op = lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0))
    tg = lp.build_time_grid(5)
    K = lp.SpaceTimeOperator(op, tg)
    rng = np.random.default_rng(3)
    F = rng.standard_normal((grid.n_x, tg.n_t))
    rhs = lp.lr_from_dense(F, POL)
    Fc = lp.lr_to_dense(rhs)  # compressed rhs is what the sweep actually sees
    for adjoint in (False, True):
        Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint)
        Yd = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, Fc,
                                  adjoint=adjoint)
        assert np.linalg.norm(lp.lr_to_dense(Y) - Yd) <= 1e-8 * np.linalg.norm(Yd)


def test_apply_is_the_dense_operator(heat7):
    grid, op, tg, K = heat7
    rng = np.random.default_rng(4)
    Y = _rand_lr(rng, grid.n_x, tg.n_t, 3)
    Yd = lp.lr_to_dense(Y)
    A = K.step_matrix.toarray()
    ref = A @ Yd
    ref[:, 1:] -= grid.m_scale * Yd[:, :-1]
    assert np.abs(lp.lr_to_dense(_apply(K, Y)) - ref).max() < 1e-12 * np.abs(ref).max()
    ref_t = A.T @ Yd
    ref_t[:, :-1] -= grid.m_scale * Yd[:, 1:]
    got_t = lp.lr_to_dense(_apply(K, Y, adjoint=True))
    assert np.abs(got_t - ref_t).max() < 1e-12 * np.abs(ref_t).max()


def test_injection_adjoint_identity(heat7):
    # IC injection u -> M_scale·u at time 0 and extraction Y -> M_scale·Y[:, 0]
    # are adjoint: <from_column(M·u, n_t, 0), Y> = <u, M·column(0)>
    grid, op, tg, K = heat7
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.n_x)
    Y = _rand_lr(rng, grid.n_x, tg.n_t, 2)
    lhs = lp.lr_dot(lp.LowRankMat.from_column(grid.m_scale * u, tg.n_t, 0), Y)
    rhs = float(u @ (grid.m_scale * Y.column(0)))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_residual_contract_heat_and_convdiff():
    rng = np.random.default_rng(6)
    cases = [
        (lp.assemble_heat(lp.build_grid(15)), 20),
        (lp.assemble_convdiff(lp.build_grid(11), 1e-2, (0.0, 1.0)), 12),
    ]
    for op, n_t in cases:
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
        rhs = _rand_lr(rng, op.grid.n_x, n_t, 3)
        Y = lp.st_solve_sweep(K, rhs, POL, compress_every=8)  # 3 and 2 flushes
        resid = np.linalg.norm(lp.lr_to_dense(_apply(K, Y)) - lp.lr_to_dense(rhs))
        assert resid <= 10 * POL.eps0 * n_t * lp.lr_norm(rhs)


def test_rank_bounded_across_time_refinement():
    grid = lp.build_grid(15)
    op = lp.assemble_heat(grid)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.n_x)
    u /= np.linalg.norm(u)
    max_ranks = []
    for n_t in (30, 60, 90):
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
        max_ranks.append(lp.st_solve_sweep(K, _ic_rhs(K, u), POL).r)
    assert max(max_ranks) <= 40
    assert max(max_ranks) - min(max_ranks) <= 5


def test_zero_rhs_returns_zero(heat7):
    grid, op, tg, K = heat7
    Y = lp.st_solve_sweep(K, lp.LowRankMat.zeros(grid.n_x, tg.n_t), POL)
    assert Y.r == 0


def test_rhs_shape_mismatch(heat7):
    grid, op, tg, K = heat7
    with pytest.raises(ValueError):
        lp.st_solve_sweep(K, lp.LowRankMat.zeros(grid.n_x, tg.n_t + 1), POL)


@pytest.mark.parametrize("compress_every", [2.5, True, 0, "4"])
def test_sweep_refuses_a_compress_every_that_is_not_a_count(heat7, compress_every):
    # library use reaches the sweep without a RunConfig; each of these used to
    # die in its loop with a raw TypeError or ValueError
    grid, op, tg, K = heat7
    with pytest.raises(lp.InvalidConfigError, match="compress_every must be an integer"):
        lp.st_solve_sweep(K, _ic_rhs(K, np.ones(grid.n_x)), POL, compress_every=compress_every)


def test_step_matrix_symmetric_part_positive_definite():
    tg = lp.build_time_grid(6)
    for op in (lp.assemble_heat(lp.build_grid(6)),
               lp.assemble_convdiff(lp.build_grid(6), 1e-2, (0.3, 1.0))):
        S = lp.SpaceTimeOperator(op, tg).step_matrix.toarray()
        assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] > 0


def _orth_defect(Y):
    return np.abs(Y.W1.T @ Y.W1 - np.eye(Y.r)).max()


def _embedded(F, mask):
    """The dense n_x-row field whose masked rows are the field F, zero elsewhere."""
    out = np.zeros((mask.size, F.shape[1]))
    out[mask] = lp.lr_to_dense(F)
    return out


@pytest.mark.parametrize("case", ["heat-ic-grid3x3", "convdiff-ic-full", "heat-source"])
def test_sweeps_keep_canonical_pane_and_match_oracle(case):
    # forward sweep, then the adjoint sweep on its pane: the Hessian apply's path
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(20)
    rng = np.random.default_rng(8)
    if case == "convdiff-ic-full":
        op = lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0))
        layout = lp.full_observation(grid)
    else:
        op = lp.assemble_heat(grid)
        layout = lp.make_sensor_layout_3x3(grid)
    K = lp.SpaceTimeOperator(op, tg)
    if case == "heat-source":
        rhs = _rand_lr(rng, grid.n_x, tg.n_t, 2)
    else:
        rhs = _ic_rhs(K, rng.standard_normal(grid.n_x))
    Y = lp.st_solve_sweep(K, rhs, POL, rows=layout.mask)
    Q = lp.st_solve_adjoint_sweep(K, Y, POL, rows=layout.mask)
    # the adjoint sweep reads the forward pane's observed rows as its rhs and
    # returns every row
    assert Q.shape == (grid.n_x, tg.n_t)
    L = op.L.toarray()
    for out, F, adjoint, rows in ((Y, lp.lr_to_dense(rhs), False, layout.mask),
                                  (Q, _embedded(Y, layout.mask), True, slice(None))):
        assert _orth_defect(out) <= 1e-12
        ref = oracle.dense_forward(L, grid.m_scale, tg.tau, F, adjoint=adjoint)[rows]
        assert np.linalg.norm(lp.lr_to_dense(out) - ref) <= POL.eps0 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", ["heat-ic", "convdiff-ic", "heat-source"])
def test_restricted_sweep_keeps_the_observed_rows(case):
    grid = lp.build_grid(31)
    tg = lp.build_time_grid(20)
    rng = np.random.default_rng(10)
    op = (lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0)) if case == "convdiff-ic"
          else lp.assemble_heat(grid))
    K = lp.SpaceTimeOperator(op, tg)
    rhs = (_rand_lr(rng, grid.n_x, tg.n_t, 2) if case == "heat-source"
           else _ic_rhs(K, rng.standard_normal(grid.n_x)))
    mask = lp.make_sensor_layout_3x3(grid).mask
    n_active = int(mask.sum())
    Y = lp.st_solve_sweep(K, rhs, POL, rows=mask)
    assert Y.W1.shape == (n_active, Y.r) and Y.shape == (n_active, tg.n_t)
    assert _orth_defect(Y) <= 1e-12
    full = lp.lr_to_dense(lp.st_solve_sweep(K, rhs, POL))
    got = lp.lr_to_dense(Y)
    assert np.linalg.norm(got - full[mask]) <= POL.eps0 * np.linalg.norm(full)
    # each flush drops at most eps0 of the restricted pane, and the running
    # column is never truncated, so the errors of the flushes only add up
    flushes = -(-tg.n_t // lp.forward.COMPRESS_EVERY)
    ref = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, lp.lr_to_dense(rhs))[mask]
    assert np.linalg.norm(got - ref) <= flushes * POL.eps0 * np.linalg.norm(ref)


@pytest.mark.parametrize("adjoint", [False, True])
def test_all_rows_is_the_unrestricted_sweep(heat7, adjoint):
    # full observation is the mask of all rows, on the same code path
    grid, op, tg, K = heat7
    rhs = _rand_lr(np.random.default_rng(11), grid.n_x, tg.n_t, 2)
    Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint)
    for rows in (np.ones(grid.n_x, bool), np.arange(grid.n_x)):
        Yr = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, rows=rows)
        assert np.array_equal(Yr.W1, Y.W1) and np.array_equal(Yr.W2, Y.W2)


@pytest.mark.parametrize("adjoint", [False, True])
def test_pane_stays_orthonormal_when_new_columns_are_dependent(adjoint):
    # A mode entering at step 4 spans one new direction; the other columns of
    # its flush are multiples of it, so their remainders are rounding noise.
    # Normalized, that noise is far from orthogonal to the pane basis, and
    # the weak 1e-7 mode it couples to would carry it into the basis (4e-12
    # both ways) if the rotation dropped its −D·X2 term.  The flush's bound
    # takes no second pass here: the term alone keeps the basis orthonormal.
    # The flush width is pinned at 8, where that defect shows; in flushes of
    # 16 columns it is 2e-15.
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(20)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, tg)
    modes = [lp.eigvec_dense(1, 1, grid), 1e-7 * lp.eigvec_dense(2, 1, grid),
             lp.eigvec_dense(1, 3, grid)]
    first, late = (tg.n_t - 1, tg.n_t - 5) if adjoint else (0, 4)
    E = np.zeros((tg.n_t, 3))
    E[first, :2] = E[late, 2] = 1.0
    rhs = lp.LowRankMat(np.column_stack(modes), E)
    Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=8)
    assert Y.r == 3
    assert _orth_defect(Y) <= 1e-12
    ref = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, lp.lr_to_dense(rhs),
                               adjoint=adjoint)
    assert np.linalg.norm(lp.lr_to_dense(Y) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n_rows", [144, 3969])
def test_flush_of_a_chunk_inside_the_pane_span_stays_orthonormal(n_rows):
    # The chunk is one new direction g at four multiples plus weak parts in
    # the pane's span, so past its first column the remainder lies in
    # span(pane, g) up to rounding.  Its QR then normalizes rounding noise
    # that is far from orthogonal to the pane basis, and the 1e-7 pane mode
    # carries that into the result (defect ~1e-10) unless the rotation
    # subtracts the Q·D·X2 that Qb holds along the pane basis.
    # The rows are the observed pane of ic-sensors and a full 63² pane.  As
    # in a sweep, the pane is zero at the chunk's times.
    rng = np.random.default_rng(7)
    n_t, r, idx = 30, 6, [8, 9, 10, 11]
    U, _ = np.linalg.qr(rng.standard_normal((n_rows, r)))
    V = rng.standard_normal((n_t, r))
    V[idx] = 0.0
    V, _ = np.linalg.qr(V)
    pane = lp.lr_truncate(lp.LowRankMat(U * np.logspace(0, -7, r), V), POL)
    assert not pane.W2[idx].any()
    g = rng.standard_normal(n_rows)
    W = 1e-7 * pane.W1 @ rng.standard_normal((r, len(idx))) + np.outer(g / np.linalg.norm(g),
                                                                       [1.0, 3.0, 5.0, 7.0])
    out = lp.forward._extend_pane(pane, W.copy(order="F"), idx, POL)  # the flush overwrites it
    assert _orth_defect(out) <= 1e-12
    X = lp.lr_to_dense(pane)
    X[:, idx] += W
    dense = lp.lr_from_dense(X, POL)  # the truncation by a full SVD
    assert out.r == dense.r
    err = np.linalg.norm(lp.lr_to_dense(out) - lp.lr_to_dense(dense))
    assert err <= POL.eps0 * np.linalg.norm(X)


def _bound_case(kind):
    """A convdiff sweep whose pane reaches rank ~20: (operator, rhs, adjoint, rows).

    With one projection and no second pass, its pane basis loses 3e-11 to
    7.5e-5 of orthonormality at eps0 1e-13 and 1e-15 (at most 2.1e-13 at
    1e-11).
    """
    grid = lp.build_grid(31)
    tg = lp.build_time_grid(20)
    K = lp.SpaceTimeOperator(lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0)), tg)
    u = np.random.default_rng(0).standard_normal(grid.n_x)
    if kind == "adjoint":  # the final time is where an adjoint sweep starts
        return K, lp.LowRankMat.from_column(K.m_scale * u, tg.n_t, tg.n_t - 1), True, None
    rows = lp.make_sensor_layout_3x3(grid).mask if kind == "rows" else None
    return K, _ic_rhs(K, u), False, rows


@pytest.mark.parametrize("kind", ["forward", "adjoint", "rows"])
@pytest.mark.parametrize("eps0", [1e-11, 1e-13, 1e-15])
def test_pane_stays_orthonormal_at_small_eps0(kind, eps0):
    # the rank cut keeps singular values down to eps0·|A|/√(r + c), so the
    # smaller eps0, the more a single projection's D is amplified in the
    # basis; the flush's bound takes the second pass before that reaches 1e-12
    K, rhs, adjoint, rows = _bound_case(kind)
    pol = lp.TruncationPolicy(eps0=eps0)
    Y = lp.st_solve_sweep(K, rhs, pol, adjoint=adjoint, rows=rows)
    assert Y.r >= 16
    assert _orth_defect(Y) <= 1e-12


@pytest.mark.parametrize("eps0, second_pass", [(1e-8, False), (1e-15, True)])
def test_second_pass_runs_only_when_the_bound_asks(monkeypatch, eps0, second_pass):
    # The flushes inside the applies of the CI line oracle-eps15-wind-x1
    # (convdiff, wind along x1, 7/20): at the default eps0 every flush
    # projects once; at 1e-15 its panes hold singular values down to
    # rounding level, and some flush needs the second pass.  Every pane is
    # orthonormal either way.  A flush factors its remainder into reflectors
    # once, and a second pass factors the projected Qb once more: 0 extra
    # QRs per flush, or 1.
    factored, per_flush, panes = [], [], []

    def spy_qr(*args):
        factored.append(1)
        return qr_reflectors(*args)

    def spy_flush(*args):
        factored.clear()
        out = extend(*args)
        per_flush.append(len(factored) - 1)
        panes.append(out)
        return out

    qr_reflectors, extend = lp.forward._qr_reflectors, lp.forward._extend_pane
    monkeypatch.setattr(lp.forward, "_qr_reflectors", spy_qr)
    monkeypatch.setattr(lp.forward, "_extend_pane", spy_flush)
    cfg = cli.RunConfig(problem="convdiff", wind=(1.0, 0.0), n_side=7, nt=20,
                        sensors="none", m_a=100, eps0=eps0)
    problem, _, report = cli.run_oracle(cfg)
    flushes = -(-cfg.nt // lp.forward.COMPRESS_EVERY)  # per sweep, two sweeps per apply
    assert len(per_flush) == 2 * flushes * len(problem.ctx.rank_trace)
    assert set(per_flush) <= {0, 1}
    assert (1 in per_flush) == second_pass
    assert max(map(_orth_defect, panes)) <= 1e-12
    assert report.passed


@pytest.mark.parametrize("r, second_pass", [(0, False), (4, False), (4, True)],
                         ids=["0", "4", "4-second-pass"])
def test_full_row_flush_allocates_no_block_but_the_rotated_basis(monkeypatch, r, second_pass):
    # The flush works in the caller's block: the projection, the reflector
    # QR and the products with Q and V write into it or into small arrays.
    # So beyond the rotated basis U, a 3969-row flush allocates less than one
    # 3969-row column.  Core and time factor are kept small, so that their
    # arrays stay far below that too.  A chunk that lies in the pane's span
    # up to 1e-12 noise takes the second pass at eps0 1e-15, and that pass
    # forms Qb, projects it and re-factors it in V's memory.
    rng = np.random.default_rng(33)
    n_x, n_t, c = 3969, 12, 8
    idx = list(range(2, 2 + c))
    pane = _pane_zero_at(rng, n_x, n_t, r, idx)
    pane = lp.LowRankMat(np.asfortranarray(pane.W1), pane.W2)  # as a sweep's flushes leave it
    W = np.asfortranarray(rng.standard_normal((n_x, c)))
    pol = POL
    if second_pass:
        W = np.asfortranarray(pane.W1 @ rng.standard_normal((r, c)) + 1e-12 * W)
        pol = lp.TruncationPolicy(eps0=1e-15)
    factored = _spy_shapes(monkeypatch, lp.forward, "_qr_reflectors")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = lp.forward._extend_pane(pane, W, idx, pol)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(factored) == 1 + second_pass
    assert out.r == r + c
    assert peak - out.W1.nbytes < n_x * 8
    assert np.linalg.norm(out.W1.T @ out.W1 - np.eye(out.r)) <= 1e-14


@pytest.mark.parametrize("wind", [None, (0.0, 1.0), (0.3, -0.7)])
@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("adjoint", [False, True])
def test_presolved_rhs_factor_is_released_before_the_last_flush(monkeypatch, wind, restricted,
                                                                adjoint):
    # A sweep's first step solve is the presolve B = step⁻¹·rhs.W1.  Once the
    # last chunk's product B·W2[idx]ᵀ is in the flush block, B is released,
    # so the last flush does not hold it: at nt 20 the default width flushes
    # 16 and 4 columns, and B is alive only at the first.  Each kernel
    # is covered: the 2-D diagonal scale, the stacked pttrs and the sparse LU.
    # The block the flushes worked in is freed before a full-row pane's basis
    # is transformed back.
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(20)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), tg)
    mask = lp.make_sensor_layout_3x3(grid).mask if restricted else None
    n_keep = int(mask.sum()) if restricted else grid.n_x
    rhs = _rand_lr(np.random.default_rng(23), n_keep if adjoint else grid.n_x, tg.n_t, 3)
    factor, alive, blocks, dead = [], [], [], []
    solve, extend, from_modal = K.solve_step, lp.forward._extend_pane, K.solver.from_modal

    def spy_solve(W, adjoint=False):
        out = solve(W, adjoint)
        if not factor:
            factor.append(weakref.ref(out))
        return out

    def spy_flush(pane, W, *args):
        alive.append(factor[0]() is not None)
        blocks.append(weakref.ref(W if W.base is None else W.base))
        return extend(pane, W, *args)

    def spy_from_modal(W, restriction=None):
        if restriction is None:  # a full-row pane's back-transform
            dead.append([block() is None for block in blocks])
        return from_modal(W, restriction)

    monkeypatch.setattr(K, "solve_step", spy_solve)
    monkeypatch.setattr(K.solver, "from_modal", spy_from_modal)
    monkeypatch.setattr(lp.forward, "_extend_pane", spy_flush)
    Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, rows=mask)
    assert alive == [True, False]
    # nor is the flush block held through the back-transform of a full-row pane
    assert dead == ([] if restricted and not adjoint else [[True, True]])
    assert Y.shape == (grid.n_x if adjoint else n_keep, tg.n_t)


def _pane_zero_at(rng, n_rows, n_t, r, idx):
    """A random canonical pane of rank r that is zero at the times idx, as a sweep's is."""
    others = np.setdiff1d(np.arange(n_t), idx)
    P = _rand_lr(rng, n_rows, len(others), r)
    W2 = np.zeros((n_t, P.r))
    W2[others] = P.W2
    return lp.LowRankMat(P.W1, W2)


def _pane_and_block(rng, n_rows, n_t, r, idx):
    pane = _pane_zero_at(rng, n_rows, n_t, r, idx)
    return pane, np.asfortranarray(rng.standard_normal((n_rows, len(idx))))


def test_flush_refuses_a_block_it_cannot_overwrite():
    # dgemm and the QR would silently work on a copy of any other block
    pane, W = _pane_and_block(np.random.default_rng(25), 40, 12, 3, [5, 6])
    for bad in (np.ascontiguousarray(W), W.astype(np.float32), W[::2]):
        with pytest.raises(ValueError, match="Fortran"):
            lp.forward._extend_pane(pane, bad, [5, 6], POL)
    out = lp.forward._extend_pane(pane, W, [5, 6], POL)
    assert out.W1.flags.f_contiguous  # the rotated basis stays Fortran-ordered


def test_flush_that_truncates_to_nothing_returns_an_empty_pane():
    # an all-zero chunk meets an empty pane, so the sum is zero and the
    # truncation keeps no column for dgemm to rotate
    pane = lp.LowRankMat.zeros(40, 12)
    out = lp.forward._extend_pane(pane, np.zeros((40, 2), order="F"), [5, 6], POL)
    assert out.r == 0 and out.shape == (40, 12)


@pytest.mark.parametrize("at", [[5], [4, 5], [11, 5]])
def test_flush_refuses_a_chunk_where_the_pane_is_nonzero(at):
    # the core is truncated with an identity time factor, which is exact only
    # where the pane is zero at the chunk's times; a sweep's pane always is
    u = np.random.default_rng(26).standard_normal(40)
    pane = lp.lr_truncate(lp.LowRankMat.from_column(u, 12, 5), POL)
    with pytest.raises(ValueError, match="zero at the chunk's times"):
        lp.forward._extend_pane(pane, np.ones((40, len(at)), order="F"), at, POL)
    out = lp.forward._extend_pane(pane, np.ones((40, 2), order="F"), [4, 6], POL)  # beside it
    X = lp.lr_to_dense(pane)
    X[:, [4, 6]] += 1.0
    assert_allclose(lp.lr_to_dense(out), X, rtol=0, atol=1e-14 * np.abs(X).max())


def test_flush_of_a_block_without_columns_recompresses_the_pane():
    # a remainder of zero columns leaves dgemm an empty block to update
    pane, W = _pane_and_block(np.random.default_rng(27), 40, 12, 3, [])
    out = lp.forward._extend_pane(pane, W, [], POL)
    assert out.r == pane.r
    assert_allclose(lp.lr_to_dense(out), lp.lr_to_dense(pane), rtol=0,
                    atol=1e-14 * np.abs(lp.lr_to_dense(pane)).max())


def test_rank1_initial_condition_stays_rank1_over_many_flushes(monkeypatch):
    # every flush after the first appends columns inside the pane's span
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(30)
    K = lp.SpaceTimeOperator(lp.assemble_heat(grid), tg)
    u = lp.eigvec_dense(2, 3, grid)
    lam = lp.discrete_fd_eig(2, 3, grid)
    flush_ranks = []

    def spy(*args):
        out = extend(*args)
        flush_ranks.append(out.r)
        return out

    extend = lp.forward._extend_pane
    monkeypatch.setattr(lp.forward, "_extend_pane", spy)
    Y = lp.st_solve_sweep(K, _ic_rhs(K, u), POL, compress_every=4)
    assert Y.r == 1 and flush_ranks == [1] * -(-tg.n_t // 4)
    expect = np.column_stack([(1.0 + tg.tau * lam) ** -k * u for k in range(1, tg.n_t + 1)])
    assert np.linalg.norm(lp.lr_to_dense(Y) - expect) <= 1e-12 * np.linalg.norm(expect)


# heat, no wind, wind along x2 only (the default, whose modal field is stored
# transposed), along x1 only, wind along both axes (the sparse LU), and
# last the reversed one-axis winds, whose upwind factor has the larger
# off-diagonal above the diagonal, so the symmetrizer's ratios √(lo/up) < 1
STEP_WINDS = [None, (0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.3, -0.7), (-0.5, 1.0),
              (0.0, -1.0), (-1.0, 0.0)]
# wind along x2 at ν 1e-50, whose symmetrizer would span over MAX_SCALE_DECADES:
# a one-axis wind that takes the sparse LU
WIDE_SYMMETRIZER = "wide-symmetrizer"


def _one_axis_wind(wind):
    """The winds whose step matrix is the stacked symmetrized tridiagonal that pttrf factors."""
    return wind is not None and 0.0 in wind and wind != (0.0, 0.0)


def _spatial(grid, wind):
    if wind == WIDE_SYMMETRIZER:
        return lp.assemble_convdiff(grid, 1e-50, (0.0, 1.0))
    return lp.assemble_heat(grid) if wind is None else lp.assemble_convdiff(grid, 1e-2, wind)


@pytest.mark.parametrize("shape", [(3969, 16), (144, 16), (9, 16), "repeated", (0, 4), (5, 0)])
def test_reflector_qr_is_the_thin_qr(shape):
    # a full-row and an observed-row flush block, a wide one, a dependent
    # block (one column three times) and empty ones: R is numpy's to
    # rounding, the Q that the product forms from the identity is
    # orthonormal with Q·R = A, and the product is that Q's; the block's top
    # k × k holds V's unit triangle, not R
    rng = np.random.default_rng(25)
    if shape == "repeated":
        col = rng.standard_normal((50, 1))
        A = np.hstack([col, rng.standard_normal((50, 2)), col, col])
    else:
        A = rng.standard_normal(shape)
    Rn = np.linalg.qr(A)[1]
    W = np.asfortranarray(A)
    V, S, R = lp.forward._qr_reflectors(W)
    k = min(A.shape)
    assert V.shape == (A.shape[0], k) and S.shape == (k, k) and R.shape == Rn.shape
    assert np.shares_memory(V, W) or k == 0
    assert np.array_equal(np.triu(V[:k]), np.eye(k))
    scale = max(np.linalg.norm(A), 1.0)
    assert_allclose(R, Rn, rtol=0, atol=1e-13 * scale)
    Q = np.zeros((A.shape[0], k), order="F")
    lp.forward._add_reflector_product(Q, V, S, np.eye(k))
    assert_allclose(Q.T @ Q, np.eye(k), rtol=0, atol=1e-14)
    assert_allclose(Q @ R, A, rtol=0, atol=1e-13 * scale)
    X = rng.standard_normal((k, 3))
    out = np.asfortranarray(rng.standard_normal((A.shape[0], 3)))
    before = out.copy()
    lp.forward._add_reflector_product(out, V, S, X)
    assert_allclose(out, before + Q @ X, rtol=0, atol=1e-13)


def _explicit_q_flush(pane, W, idx, pol):
    """The flush of ``_extend_pane`` with the remainder's Q formed: two projections and QRs."""
    Q, r, c = pane.W1, pane.r, len(idx)
    C = Q.T @ W
    Qb, Rb = np.linalg.qr(W - Q @ C)
    D = Q.T @ Qb
    Qb, Rd = np.linalg.qr(Qb - Q @ D)
    sigma = np.linalg.norm(pane.W2, axis=0)
    T = np.zeros((pane.shape[1], r + c))
    T[:, :r] = pane.W2 / sigma
    T[idx, range(r, r + c)] = 1.0
    core = np.block([[np.diag(sigma), C + D @ Rb], [np.zeros((len(Rb), r)), Rd @ Rb]])
    small = lp.lr_truncate(lp.LowRankMat(core, T), pol)
    return lp.LowRankMat(np.hstack([Q, Qb]) @ small.W1, small.W2)


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_reflector_flush_matches_an_explicit_q_flush_on_ill_conditioned_blocks(wind):
    # A flush keeps its remainder's Q as Householder reflectors, and the
    # block's top k × k holds V's unit triangle, not R.  A V product that took
    # R in and subtracted it back would cancel at rounding of ‖R‖: on blocks
    # of norm ~1e5 and condition ≥ 1e10 the rotated basis would lose its
    # orthonormality.  The blocks are the march's 12-step chunks of each step
    # solver: modal on every row (225 × 12), and transformed back on every
    # fourth row (57 × 12) and on the nine observed rows (9 × 12, wider than
    # tall).  Each chunk is flushed into an empty pane, and the second into
    # the pane the first leaves.
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(24)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), tg)
    S = K.solver
    rhs = _rand_lr(np.random.default_rng(31), grid.n_x, tg.n_t, 3)
    chunks = [(idx, W.copy(order="F")) for idx, W in lp.forward._march(K, rhs, False, 12, None)]
    for keep in (None, np.arange(0, grid.n_x, 4),
                 np.flatnonzero(lp.make_sensor_layout_3x3(grid).mask)):
        blocks = []
        for idx, W in chunks:
            B = W if keep is None else S.from_modal(W, S.restrict(keep))
            B = np.asfortranarray(9e4 * B * np.logspace(0, -14, B.shape[1]))
            assert np.linalg.cond(B) >= 1e10
            blocks.append((idx, B))
        pane = lp.LowRankMat.zeros(len(B), tg.n_t)
        for idx, B in blocks:  # an empty pane, then the pane the first flush leaves
            out = lp.forward._extend_pane(pane, B.copy(order="F"), idx, POL)
            ref = _explicit_q_flush(pane, B, idx, POL)
            assert out.r == ref.r
            want = lp.lr_to_dense(ref)
            assert np.linalg.norm(lp.lr_to_dense(out) - want) <= 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(out.W1.T @ out.W1 - np.eye(out.r)) <= 1e-13
            pane = out


def _spy_tridiagonal_factorizations(monkeypatch):
    """Record the name of every LAPACK tridiagonal factorization built."""
    built = []
    for name in ("dpttrf", "dgttrf"):
        def spy(*args, _f=getattr(lapack, name), _name=name[1:], **kwargs):
            built.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(lapack, name, spy)
    return built


def _spy_shapes(monkeypatch, module, name):
    """Record the shape of the first argument of every call of ``module.name``."""
    calls = []

    def spy(*args, _f=getattr(module, name), **kwargs):
        calls.append(args[0].shape)
        return _f(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _refuse_zero_column_solves(monkeypatch):
    """Fail at once if a stacked tridiagonal solve is handed no right-hand sides.

    A LAPACK solve on a block of zero columns can corrupt the heap (gttrs
    did), and the interpreter crashes later, so the real kernel must never
    see one.
    """
    def spy(*args, _f=lapack.dpttrs, **kwargs):
        assert args[-1].shape[1] > 0, "a zero-column block reached LAPACK"
        return _f(*args, **kwargs)
    monkeypatch.setattr(lapack, "dpttrs", spy)


def _assert_solves_match_spsolve(solver, solve, S, n_x):
    """from_modal(solve(to_modal(rhs), adjoint)) against spsolve on S and Sᵀ."""
    B = np.random.default_rng(18).standard_normal((n_x, 3))
    B0 = B.copy()
    for adjoint, A in ((False, S), (True, S.T.tocsc())):
        for rhs in (B[:, :1], B):
            want = spla.spsolve(A, rhs).reshape(rhs.shape)
            got = solver.from_modal(solve(solver.to_modal(rhs), adjoint))
            assert got.shape == rhs.shape
            assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # a block of no columns comes back as one
        assert solver.from_modal(solve(solver.to_modal(B[:, :0]), adjoint)).shape == (n_x, 0)
    assert np.array_equal(B, B0)  # the right-hand sides are never written


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_step_solves_match_spsolve_in_both_directions(monkeypatch, wind):
    # without wind the step matrix is diagonal in the 2-D eigenbasis, so no
    # LAPACK tridiagonal factorization is built; one axis of wind factors the
    # symmetrized stack by pttrf; two axes build the sparse LU
    built = _spy_tridiagonal_factorizations(monkeypatch)
    _refuse_zero_column_solves(monkeypatch)
    # n_side 63 with nt 30 are the benchmark workloads' step matrices
    for n_side, n_t in ((15, 5), (63, 30)):
        grid = lp.build_grid(n_side)
        K = lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(n_t))
        _assert_solves_match_spsolve(K.solver, K.solve_step, K.step_matrix, grid.n_x)
    assert built == (["pttrf"] * 2 if _one_axis_wind(wind) else [])


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_modal_step_solves_run_in_place_in_a_fortran_block(wind):
    # the sweep's step: one solve on a column of its flush block, written back
    # into that column
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(5))
    B = np.random.default_rng(19).standard_normal((grid.n_x, 3))
    for adjoint in (False, True):
        W = K.solver.to_modal(B)
        want = K.solve_step(W, adjoint)
        assert np.shares_memory(want, W)
        block = K.solver.to_modal(B)
        before = block.copy()
        out = K.solve_step(block[:, 1:2], adjoint)
        assert np.shares_memory(out, block)
        assert_allclose(block[:, 1:2], want[:, 1:2], rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(block[:, ::2], before[:, ::2])  # the other columns are untouched
    # every kernel solves in place only in a Fortran-ordered block
    with pytest.raises(ValueError, match="Fortran"):
        K.solve_step(np.ascontiguousarray(K.solver.to_modal(B)))


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_modal_solves_refuse_a_wrong_height_and_report_kernel_failures(monkeypatch, wind):
    # on a block of the wrong height pttrs either refuses it with a negative
    # info or solves only its first n_x rows, and the diagonal scale would
    # broadcast or fail; none may pass silently, nor write the block
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(5))
    for n_rows in (grid.n_x - 3, grid.n_x + 3):
        for trans in "NT":
            W = np.ones((n_rows, 2), order="F")
            with pytest.raises(ValueError, match="rows"):
                K.solver.solve_modal(W, trans)
            assert (W == 1.0).all()
    if _one_axis_wind(wind):
        monkeypatch.setattr(lapack, "dpttrs", lambda *args, **kwargs: (args[-1], -6))
        with pytest.raises(lp.NumericalError, match="pttrs info=-6"):
            K.solve_step(K.solver.to_modal(np.ones((grid.n_x, 2))))


@pytest.mark.parametrize("wind", STEP_WINDS + [WIDE_SYMMETRIZER])
@pytest.mark.parametrize("adjoint", [False, True])
def test_sweeps_match_dense_oracle_for_every_step_solver(wind, adjoint):
    # every kernel's sweep, with and without the observed-row restriction:
    # a forward sweep keeps the observed rows of its result, and an adjoint
    # sweep reads an rhs of the observed rows and returns every row.  At
    # compress_every 4, n_t = 10 leaves a partial last flush of 2 columns.
    # A flush every step and one flush for the whole sweep would expose a
    # running column that a flush overwrote in the block it works in.  The
    # march under the sweep is checked on its own too.  With modal=True every
    # full-row rhs goes in modal and every full-row result comes out modal,
    # so it is transformed back before the same comparison; a side of the
    # observed rows stays physical.  No sweep may write the caller's rhs.
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(10)
    op = _spatial(grid, wind)
    K = lp.SpaceTimeOperator(op, tg)
    full = _rand_lr(np.random.default_rng(20), grid.n_x, tg.n_t, 3)
    mask = lp.make_sensor_layout_3x3(grid).mask
    cases = []
    for rows, modal in itertools.product((None, mask), (False, True)):
        rhs, F = full, lp.lr_to_dense(full)
        if rows is not None and adjoint:
            rhs = lp.LowRankMat(full.W1[rows], full.W2)
            F = _embedded(rhs, rows)
        elif modal:
            rhs = lp.LowRankMat(K.solver.to_modal(full.W1), full.W2)
        ref = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, F, adjoint=adjoint)
        cases.append((rows, modal, rhs, ref if rows is None or adjoint else ref[rows]))
    for compress_every in (1, 4, tg.n_t):
        flushes = -(-tg.n_t // compress_every)
        for rows, modal, rhs, want in cases:
            before = rhs.W1.copy()
            Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every,
                                  rows=rows, modal=modal)
            assert np.array_equal(rhs.W1, before)
            assert Y.shape == want.shape
            if modal and (rows is None or adjoint):
                Y = lp.LowRankMat(K.solver.from_modal(Y.W1), Y.W2)
            err = np.linalg.norm(lp.lr_to_dense(Y) - want)
            assert err <= flushes * POL.eps0 * np.linalg.norm(want)
            # the march alone truncates nothing: its chunks arrive in time
            # order, min(compress_every, steps left) wide, and hold the field
            part = None if rows is None or not adjoint else K.solver.restrict(np.flatnonzero(rows))
            Z, order = np.empty((grid.n_x, tg.n_t)), []
            for idx, W in lp.forward._march(K, rhs, adjoint, compress_every, part, modal):
                assert len(idx) == min(compress_every, tg.n_t - len(order))
                order += idx
                Z[:, idx] = K.solver.from_modal(W)
            assert order == (list(range(tg.n_t))[::-1] if adjoint else list(range(tg.n_t)))
            Z = Z if rows is None or adjoint else Z[rows]
            assert np.linalg.norm(Z - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(rhs.W1, before)


@pytest.mark.parametrize("wind", STEP_WINDS + [WIDE_SYMMETRIZER])
def test_restricted_back_transform_is_the_rows_of_the_full_one(wind):
    # only the grid lines holding a kept dof are transformed; the kept rows
    # come back in the order asked, as a Fortran-ordered block the flush accepts
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(5))
    rng = np.random.default_rng(21)
    W = K.solver.to_modal(rng.standard_normal((grid.n_x, 4)))
    full = K.solver.from_modal(W)
    for keep in (np.flatnonzero(lp.make_sensor_layout_3x3(grid).mask),
                 rng.permutation(grid.n_x)[:30], np.arange(grid.n_x)):
        got = K.solver.from_modal(W, K.solver.restrict(keep))
        assert got.shape == (len(keep), 4) and got.flags.f_contiguous
        assert_allclose(got, full[keep], rtol=0, atol=1e-15 * np.abs(full).max())


@pytest.mark.parametrize("wind", STEP_WINDS + [WIDE_SYMMETRIZER])
def test_restricted_transform_is_that_of_the_embedded_rows(wind):
    # an rhs of the kept rows goes into modal coordinates as its zero-embedded
    # n_x-row field would, as a fresh Fortran-ordered block a modal solve accepts
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(5))
    rng = np.random.default_rng(22)
    for keep in (np.flatnonzero(lp.make_sensor_layout_3x3(grid).mask),
                 np.sort(rng.permutation(grid.n_x)[:30]), np.arange(grid.n_x)):
        B = rng.standard_normal((len(keep), 4))
        embedded = np.zeros((grid.n_x, 4))
        embedded[keep] = B
        want = K.solver.to_modal(embedded)
        got = K.solver.to_modal(B, K.solver.restrict(keep))
        assert got.shape == (grid.n_x, 4) and got.flags.f_contiguous
        assert not np.shares_memory(got, B)
        assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        K.solve_step(got)


def test_steady_solves_match_spsolve_on_the_modal_diagonal(monkeypatch):
    # steady mode solves with L itself, as HessianContext builds it
    built = _spy_tridiagonal_factorizations(monkeypatch)
    _refuse_zero_column_solves(monkeypatch)
    for n_side in (15, 63):
        grid = lp.build_grid(n_side)
        op = lp.assemble_heat(grid)
        solver = lp.forward.StepSolver(op, 0.0, 1.0)
        _assert_solves_match_spsolve(
            solver, lambda W, adjoint: solver.solve_modal(W, "T" if adjoint else "N"),
            op.L.tocsc(), grid.n_x)
    assert built == []


def test_indefinite_symmetric_stack_raises():
    # a shift below -λ_min(L) leaves a·I + L nonsingular but indefinite, so
    # its modal diagonal has negative entries; a NaN shift leaves none finite
    grid = lp.build_grid(15)
    lam_min = lp.discrete_fd_eig(1, 1, grid)
    for shift in (-1.5 * lam_min, np.nan):
        with pytest.raises(lp.NumericalError, match="modal diagonal is not positive and finite"):
            lp.forward.StepSolver(lp.assemble_heat(grid), shift, 1.0)


@pytest.mark.parametrize("wind", [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0)])
def test_indefinite_symmetrized_stack_raises(wind):
    # the same shifts with one axis of wind: pttrf meets a non-positive pivot,
    # and a NaN shift passes its pivot test but leaves no pivot finite
    grid = lp.build_grid(15)
    op = lp.assemble_convdiff(grid, 1e-2, wind)
    lam_min = np.linalg.eigvals(op.L.toarray()).real.min()
    for shift in (-1.5 * lam_min, np.nan):
        with pytest.raises(lp.NumericalError, match="not positive definite and finite"):
            lp.forward.StepSolver(op, shift, 1.0)


@pytest.mark.parametrize("n_side", [15, 63])
@pytest.mark.parametrize("w", [1.0, -1.0])
def test_upwind_factor_symmetrizer_is_the_closed_form(n_side, w):
    # ν·(1-D Laplacian) + upwind w·d/dx has constant off-diagonals: with
    # p = ν/h² and q = |w|/h, lo = -(p + q), up = -p for w > 0 and the two
    # swap for w < 0.  So g_i = ρ^(i - (n-1)/2) with ρ = √(lo/up), and the
    # symmetric A_s = G⁻¹·A·G keeps A's diagonal and has off-diagonal -√(lo·up)
    grid = lp.build_grid(n_side)
    A = lp.assemble_convdiff(grid, 1e-2, (0.0, w)).A2
    g, e = lp.forward._symmetrizer(A)
    p, q = 1e-2 / grid.h**2, abs(w) / grid.h
    lo, up = (-(p + q), -p) if w > 0 else (-p, -(p + q))
    rho = np.sqrt(lo / up)
    assert_allclose(g, rho ** (np.arange(n_side) - (n_side - 1) / 2), rtol=1e-13, atol=0)
    assert_allclose(g.max() * g.min(), 1.0, rtol=1e-14)
    assert_allclose(e, np.full(n_side - 1, -np.sqrt(lo * up)), rtol=1e-14)
    dense = A.toarray()
    A_s = dense * g[None, :] / g[:, None]
    scale = np.abs(dense).max()
    assert_allclose(A_s, A_s.T, rtol=0, atol=1e-14 * scale)
    assert_allclose(np.diag(A_s), np.diag(dense), rtol=0, atol=1e-14 * scale)
    assert_allclose(np.diag(A_s, -1), e, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("n_side, nu, separable", [(63, 1e-6, True), (15, 1e-50, False)])
def test_wide_symmetrizer_range_falls_back_to_the_sparse_lu(monkeypatch, n_side, nu, separable):
    # at n_side 63 and ν 1e-6, g spans 130 decades and the symmetrized stack
    # still solves to spsolve's accuracy; at ν 1e-50 it would span over
    # MAX_SCALE_DECADES, so no axis is diagonalized and the step takes the
    # sparse LU, as two-axis wind does
    _refuse_zero_column_solves(monkeypatch)
    eighs = _spy_shapes(monkeypatch, np.linalg, "eigh")
    lus = _spy_shapes(monkeypatch, spla, "splu")
    grid = lp.build_grid(n_side)
    op = lp.assemble_convdiff(grid, nu, (0.0, 1.0))
    assert (lp.forward._symmetrizer(op.A2) is not None) == separable
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(5))
    assert eighs == ([(n_side, n_side)] if separable else [])  # the wind-free x1, or none
    assert lus == ([] if separable else [(grid.n_x, grid.n_x)])
    _assert_solves_match_spsolve(K.solver, K.solve_step, K.step_matrix, grid.n_x)


@pytest.mark.parametrize("n_side", [15, 63])
@pytest.mark.parametrize("nu", [None, 1e-2])  # heat, and convdiff at zero wind
def test_wind_free_step_is_the_closed_form_modal_diagonal(n_side, nu):
    # M_scale·(I + τ·ν·L₀), with L₀ the FD Laplacian, is diagonal in the 2-D
    # eigenbasis: FD mode (m, n) is one modal unit vector, scaled by
    # M_scale·(1 + τ·ν·(μ_m + μ_n)) with μ_m + μ_n = discrete_fd_eig(m, n)
    grid = lp.build_grid(n_side)
    op = lp.assemble_heat(grid) if nu is None else lp.assemble_convdiff(grid, nu, (0.0, 0.0))
    tg = lp.build_time_grid(30)
    K = lp.SpaceTimeOperator(op, tg)
    S, nu = K.solver, nu or 1.0

    def closed_form(m, n):
        return grid.m_scale * (1.0 + tg.tau * nu * lp.discrete_fd_eig(m, n, grid))

    modes = range(1, n_side + 1)
    diagonal = 1.0 / K.solve_step(np.ones((grid.n_x, 1), order="F"))[:, 0]
    want = sorted(closed_form(m, n) for m in modes for n in modes)
    # eigh is backward stable: its eigenvalues err by rounding of the largest
    tol = 1e-14 * want[-1]
    assert_allclose(np.sort(diagonal), want, rtol=0, atol=tol)
    for m, n in ((1, 1), (1, 2), (n_side // 2, 3), (n_side, n_side)):
        v = lp.eigvec_dense(m, n, grid)[:, None]
        z = S.to_modal(v)[:, 0]
        at = np.argmax(np.abs(z))
        assert_allclose(np.abs(z), np.arange(grid.n_x) == at, rtol=0, atol=1e-12)
        assert_allclose(diagonal[at], closed_form(m, n), rtol=0, atol=tol)
        got = S.from_modal(K.solve_step(S.to_modal(v)))
        assert_allclose(got, v / closed_form(m, n), rtol=0, atol=1e-12 * np.abs(got).max())
    # under the nine-patch mask the restricted transforms on the 2-D basis
    # are the kept rows of the full ones
    rng = np.random.default_rng(23)
    keep = np.flatnonzero(lp.make_sensor_layout_3x3(grid).mask)
    part = S.restrict(keep)
    W = S.to_modal(rng.standard_normal((grid.n_x, 3)))
    full = S.from_modal(W)
    assert_allclose(S.from_modal(W, part), full[keep], rtol=0, atol=1e-14 * np.abs(full).max())
    B = rng.standard_normal((len(keep), 3))
    embedded = np.zeros((grid.n_x, 3))
    embedded[keep] = B
    want = S.to_modal(embedded)
    assert_allclose(S.to_modal(B, part), want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_wind_free_factors_share_one_eigh_only_when_they_are_one(monkeypatch):
    # heat and zero-wind convdiff pass one object as A1 and A2, so one eigh
    # serves both axes; unequal symmetric factors (A2 = 2·A1, an anisotropic
    # diffusion) are diagonalized each, and the 2-D modal diagonal pairs
    # their eigenvalues along the right axes
    calls = _spy_shapes(monkeypatch, np.linalg, "eigh")
    grid = lp.build_grid(15)
    heat = lp.assemble_heat(grid)
    anisotropic = lp.SpatialOperator(kind="convdiff", grid=grid, A1=heat.A1, A2=2.0 * heat.A1)
    for op, n_eigh in ((heat, 1), (lp.assemble_convdiff(grid, 1e-2, (0.0, 0.0)), 1),
                       (anisotropic, 2)):
        calls.clear()
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(5))
        assert calls == [(grid.n_side, grid.n_side)] * n_eigh
        _assert_solves_match_spsolve(K.solver, K.solve_step, K.step_matrix, grid.n_x)


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_only_wind_along_both_axes_builds_a_sparse_lu(monkeypatch, wind):
    # neither factor is symmetric, so no axis is diagonalized and the LU is
    # the one factorization; any other wind diagonalizes an axis and builds none
    eighs = _spy_shapes(monkeypatch, np.linalg, "eigh")
    lus = _spy_shapes(monkeypatch, spla, "splu")
    grid = lp.build_grid(15)
    lp.SpaceTimeOperator(_spatial(grid, wind), lp.build_time_grid(5))
    two_axis = wind is not None and 0.0 not in wind
    assert lus == ([(grid.n_x, grid.n_x)] if two_axis else [])
    assert (eighs == []) == two_axis


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("compress_every", [3, 4])
def test_flush_truncates_only_the_small_coefficient_field(monkeypatch, adjoint, compress_every):
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(20)
    K = lp.SpaceTimeOperator(lp.assemble_heat(grid), tg)
    calls = []

    def spy(A, pol):
        out = lp.lr_truncate(A, pol)
        calls.append((A.shape[0], out.r))
        assert np.array_equal(A.W2, np.eye(A.r))  # the core alone, not its n_t columns
        return out

    monkeypatch.setattr(lp.forward, "lr_truncate", spy)
    rhs = _rand_lr(np.random.default_rng(9), grid.n_x, tg.n_t, 3)
    lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every)
    assert len(calls) == -(-tg.n_t // compress_every)  # one truncation per flush
    # the first flush meets an empty pane (r_prev = 0) and truncates its k × c core, k ≤ c
    r_prevs = [0] + [r for _, r in calls[:-1]]
    for r_prev, (rows, _) in zip(r_prevs, calls):
        assert rows <= r_prev + compress_every < grid.n_x


def test_step_lu_uses_symmetric_fill_reducing_ordering():
    # wind along both axes is the only step matrix still factored by a sparse LU
    grid = lp.build_grid(63)
    K = lp.SpaceTimeOperator(lp.assemble_convdiff(grid, 1e-2, (0.3, -0.7)),
                             lp.build_time_grid(30))
    lu = K.solver.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)  # no pivoting off the diagonal
    colamd = spla.splu(K.step_matrix, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("compress_every", [3, 4])
def test_restricted_flushes_see_only_the_observed_rows(monkeypatch, adjoint, compress_every):
    # a forward sweep's flushes see the observed rows only; an adjoint sweep
    # reads an rhs of the observed rows and flushes panes of every row
    grid = lp.build_grid(31)
    tg = lp.build_time_grid(20)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, tg)
    mask = lp.make_sensor_layout_3x3(grid).mask
    flushes, truncations = [], []

    def spy_flush(pane, W, idx, pol):
        flushes.append((pane.shape[0], W.shape[0]))
        return extend(pane, W, idx, pol)

    def spy_truncate(A, pol):
        truncations.append(A.shape[0])
        return lp.lr_truncate(A, pol)

    extend = lp.forward._extend_pane
    monkeypatch.setattr(lp.forward, "_extend_pane", spy_flush)
    monkeypatch.setattr(lp.forward, "lr_truncate", spy_truncate)
    full = _rand_lr(np.random.default_rng(12), grid.n_x, tg.n_t, 3)
    rhs = lp.LowRankMat(full.W1[mask], full.W2) if adjoint else full
    Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every,
                          rows=mask)
    n_flushes = -(-tg.n_t // compress_every)
    n_rows = grid.n_x if adjoint else int(mask.sum())
    assert flushes == [(n_rows, n_rows)] * n_flushes
    assert len(truncations) == n_flushes  # one truncation per flush
    F = _embedded(rhs, mask) if adjoint else lp.lr_to_dense(rhs)
    ref = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, F, adjoint=adjoint)
    want = ref if adjoint else ref[mask]
    assert Y.shape == want.shape
    err = np.linalg.norm(lp.lr_to_dense(Y) - want)
    assert err <= n_flushes * POL.eps0 * np.linalg.norm(want)


@pytest.mark.parametrize("wind", STEP_WINDS)
def test_a_flushed_chunk_meets_a_pane_that_is_zero_at_its_times(monkeypatch, wind):
    # A flush's ‖A‖² adds the squares of the pane and of the chunk with no
    # cross term: the march reaches each time once, so the pane is zero at
    # the chunk's times up to the rounding of its time factor's QR.  Both
    # directions, on every row and on the nine observed patches, in chunks of
    # 1, 2, 5 and 16 steps.
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(20)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), tg)
    mask = lp.make_sensor_layout_3x3(grid).mask
    full = _rand_lr(np.random.default_rng(35), grid.n_x, tg.n_t, 3)
    widths = (1, 2, 5, 16)
    ratios = []

    def spy_flush(pane, W, idx, pol):
        if pane.r:
            ratios.append(np.abs(pane.W2[idx]).max() / np.abs(pane.W2).max())
        return extend(pane, W, idx, pol)

    extend = lp.forward._extend_pane
    monkeypatch.setattr(lp.forward, "_extend_pane", spy_flush)
    for adjoint in (False, True):
        for rows in (None, mask):
            rhs = lp.LowRankMat(full.W1[mask], full.W2) if adjoint and rows is not None else full
            for compress_every in widths:
                lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every,
                                  rows=rows)
    assert len(ratios) == 4 * sum(-(-tg.n_t // width) - 1 for width in widths)
    assert max(ratios) <= 1e-14


@pytest.mark.parametrize("wind", [None, (1.0, 0.0), (0.3, -0.7)])
def test_adjoint_sweep_of_observed_rows_is_the_sweep_of_their_embedding(wind):
    # the adjoint sweep embeds an rhs of the observed rows itself, so the
    # result is the full-row sweep of that embedding, bit for bit
    grid = lp.build_grid(15)
    tg = lp.build_time_grid(10)
    K = lp.SpaceTimeOperator(_spatial(grid, wind), tg)
    mask = lp.make_sensor_layout_3x3(grid).mask
    full = _rand_lr(np.random.default_rng(22), grid.n_x, tg.n_t, 3)
    rhs = lp.LowRankMat(full.W1[mask], full.W2)
    W1 = np.zeros((grid.n_x, rhs.r))
    W1[mask] = rhs.W1
    Q = lp.st_solve_adjoint_sweep(K, rhs, POL, rows=mask)
    ref = lp.st_solve_adjoint_sweep(K, lp.LowRankMat(W1, rhs.W2), POL)
    assert Q.shape == (grid.n_x, tg.n_t)
    assert np.array_equal(Q.W1, ref.W1) and np.array_equal(Q.W2, ref.W2)
    with pytest.raises(ValueError, match="rhs shape"):  # an n_x-row rhs is not the observed rows
        lp.st_solve_adjoint_sweep(K, lp.LowRankMat(W1, rhs.W2), POL, rows=mask)


def test_a_tiny_field_sweeps_like_a_unit_one():
    # the sweep is linear, so scaling the rhs by s scales the pane by s: the
    # flush core carries the pane's σ, so its noise test scales with the field
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(lp.assemble_heat(grid), lp.build_time_grid(10))
    u = np.random.default_rng(0).standard_normal(grid.n_x)

    def sweep(s):  # two flushes, so the second one's core carries σ
        Y = lp.st_solve_sweep(K, lp.LowRankMat.from_column(K.m_scale * s * u, K.n_t, 0), POL,
                              compress_every=8)
        return Y.r, lp.lr_norm(Y) / s

    r_unit, norm_unit = sweep(1.0)
    assert (r_unit, round(norm_unit, 5)) == (6, 0.46806)
    r_tiny, norm_tiny = sweep(1e-16)
    assert r_tiny == r_unit
    assert norm_tiny == pytest.approx(norm_unit, rel=1e-6)
