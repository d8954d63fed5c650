import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import oracle

POL = lp.TruncationPolicy(eps0=1e-8)


@pytest.fixture(scope="module")
def heat7():
    grid = lp.build_grid(7)
    op = lp.assemble_heat(grid)
    tg = lp.build_time_grid(5)
    return grid, op, tg, lp.SpaceTimeOperator(op, tg)


def _rand_lr(rng, n_x, n_t, r):
    return lp.lr_truncate(
        lp.LowRankMat(rng.standard_normal((n_x, r)), rng.standard_normal((n_t, r))), POL
    )


def test_pure_mass_limit_keeps_initial_condition():
    # tau -> 0 surrogate: every step is y_k = y_{k-1}
    grid = lp.build_grid(5)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(5, T=5e-12))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n_x)
    Y = lp.st_solve_sweep(K, lp.InitInjection(K).rhs(u), POL)
    assert Y.r == 1
    dense = lp.lr_to_dense(Y)
    for k in range(5):
        assert_allclose(dense[:, k], u, rtol=1e-6)


def test_eigvec_injection_rank1_geometric_decay(heat7):
    grid, op, tg, K = heat7
    v = lp.eigvec_dense(1, 1, grid)
    lam = lp.discrete_fd_eig(1, 1, grid)
    Y = lp.st_solve_sweep(K, lp.InitInjection(K).rhs(v), POL)
    assert Y.r == 1
    theta = 1.0 / (1.0 + tg.tau * lam)  # scalar recursion in the eigenbasis
    expect = np.column_stack([theta**k * v for k in range(1, tg.n_t + 1)])
    assert np.abs(lp.lr_to_dense(Y) - expect).max() <= 1e-10


def test_forward_matches_dense_oracle(heat7):
    grid, op, tg, K = heat7
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.n_x)
    u /= np.linalg.norm(u)
    Y = lp.st_solve_sweep(K, lp.InitInjection(K).rhs(u), POL)
    F = np.zeros((grid.n_x, tg.n_t))
    F[:, 0] = grid.m_scale * u
    Yd = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, F)
    assert np.linalg.norm(lp.lr_to_dense(Y) - Yd) <= 1e-8 * np.linalg.norm(Yd)
    # a bare spatial vector is accepted as an injected initial condition
    Y2 = lp.st_solve_sweep(K, u, POL)
    assert np.abs(lp.lr_to_dense(Y2) - lp.lr_to_dense(Y)).max() == 0.0


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
    assert np.abs(lp.lr_to_dense(K.apply(Y)) - ref).max() < 1e-12 * np.abs(ref).max()
    ref_t = A.T @ Yd
    ref_t[:, :-1] -= grid.m_scale * Yd[:, 1:]
    got_t = lp.lr_to_dense(K.apply_adjoint(Y))
    assert np.abs(got_t - ref_t).max() < 1e-12 * np.abs(ref_t).max()


def test_injection_adjoint_identity(heat7):
    grid, op, tg, K = heat7
    rng = np.random.default_rng(5)
    inj = lp.InitInjection(K)
    u = rng.standard_normal(grid.n_x)
    Y = _rand_lr(rng, grid.n_x, tg.n_t, 2)
    lhs = lp.lr_dot(inj.rhs(u), Y)
    rhs = float(u @ inj.extract(Y))
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
        Y = lp.st_solve_sweep(K, rhs, POL)
        resid = np.linalg.norm(lp.lr_to_dense(K.apply(Y)) - lp.lr_to_dense(rhs))
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
        trace = []
        lp.st_solve_sweep(K, lp.InitInjection(K).rhs(u), POL, trace=trace)
        max_ranks.append(max(trace))
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


def test_step_matrix_symmetric_part_positive_definite():
    tg = lp.build_time_grid(6)
    for op in (lp.assemble_heat(lp.build_grid(6)),
               lp.assemble_convdiff(lp.build_grid(6), 1e-2, (0.3, 1.0))):
        S = lp.SpaceTimeOperator(op, tg).step_matrix.toarray()
        assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] > 0
