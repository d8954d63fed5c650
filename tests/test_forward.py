import numpy as np
import pytest
import scipy.sparse.linalg as spla
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


def _ic_rhs(K, u):
    """Forward rhs of an initial condition u: M_scale·u at time index 0."""
    return lp.LowRankMat.from_column(K.m_scale * u, K.n_t, 0)


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
    assert np.abs(lp.lr_to_dense(K.apply(Y)) - ref).max() < 1e-12 * np.abs(ref).max()
    ref_t = A.T @ Yd
    ref_t[:, :-1] -= grid.m_scale * Yd[:, 1:]
    got_t = lp.lr_to_dense(K.apply_adjoint(Y))
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


def test_step_matrix_symmetric_part_positive_definite():
    tg = lp.build_time_grid(6)
    for op in (lp.assemble_heat(lp.build_grid(6)),
               lp.assemble_convdiff(lp.build_grid(6), 1e-2, (0.3, 1.0))):
        S = lp.SpaceTimeOperator(op, tg).step_matrix.toarray()
        assert np.linalg.eigvalsh(0.5 * (S + S.T))[0] > 0


def _orth_defect(Y):
    return np.abs(Y.W1.T @ Y.W1 - np.eye(Y.r)).max()


@pytest.mark.parametrize("case", ["heat-ic-grid3x3", "convdiff-ic-full", "heat-source"])
def test_sweeps_keep_canonical_pane_and_match_oracle(case):
    # forward sweep, observation weight, adjoint sweep: the Hessian apply's path
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
    cov = lp.CovarianceSpec.from_gamma(1.0, 1e4, grid)
    Y = lp.st_solve_sweep(K, rhs, POL, rows=layout.mask)
    Z = lp.apply_obs_weight(Y, layout, cov, tg, grid.m_scale)
    Q = lp.st_solve_adjoint_sweep(K, Z, POL)
    assert _orth_defect(Z) <= 1e-12  # the weighted, embedded pane stays canonical
    L = op.L.toarray()
    for out, F, adjoint, rows in ((Y, rhs, False, layout.mask), (Q, Z, True, slice(None))):
        assert _orth_defect(out) <= 1e-12
        ref = oracle.dense_forward(L, grid.m_scale, tg.tau, lp.lr_to_dense(F),
                                   adjoint=adjoint)[rows]
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
    flushes = -(-tg.n_t // 4)
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
    # the weak 1e-7 mode it couples to would carry it into the basis
    # (7e-12 forward, 4e-11 adjoint) without the second projection of the
    # remainder basis.
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
    Y = lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint)
    assert Y.r == 3
    assert _orth_defect(Y) <= 1e-12
    ref = oracle.dense_forward(op.L.toarray(), grid.m_scale, tg.tau, lp.lr_to_dense(rhs),
                               adjoint=adjoint)
    assert np.linalg.norm(lp.lr_to_dense(Y) - ref) <= 1e-12 * np.linalg.norm(ref)


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
        return out

    monkeypatch.setattr(lp.forward, "lr_truncate", spy)
    rhs = _rand_lr(np.random.default_rng(9), grid.n_x, tg.n_t, 3)
    lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every)
    assert len(calls) == -(-tg.n_t // compress_every)  # one truncation per flush
    assert calls[0][0] == grid.n_x  # the first flush meets an empty pane
    for (_, r_prev), (rows, _) in zip(calls, calls[1:]):
        assert rows <= r_prev + compress_every < grid.n_x


@pytest.mark.parametrize("problem", ["heat", "convdiff"])
def test_step_lu_uses_symmetric_fill_reducing_ordering(problem):
    grid = lp.build_grid(63)
    op = (lp.assemble_heat(grid) if problem == "heat"
          else lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0)))
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(30))
    lu = K._lu
    assert np.array_equal(lu.perm_r, lu.perm_c)  # no pivoting off the diagonal
    colamd = spla.splu(K.step_matrix, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("compress_every", [3, 4])
def test_restricted_flushes_see_only_the_observed_rows(monkeypatch, adjoint, compress_every):
    grid = lp.build_grid(31)
    tg = lp.build_time_grid(20)
    K = lp.SpaceTimeOperator(lp.assemble_heat(grid), tg)
    mask = lp.make_sensor_layout_3x3(grid).mask
    calls = []

    def spy(A, pol):
        calls.append(A.shape[0])
        return lp.lr_truncate(A, pol)

    monkeypatch.setattr(lp.forward, "lr_truncate", spy)
    rhs = _rand_lr(np.random.default_rng(12), grid.n_x, tg.n_t, 3)
    lp.st_solve_sweep(K, rhs, POL, adjoint=adjoint, compress_every=compress_every, rows=mask)
    assert len(calls) == -(-tg.n_t // compress_every)  # one truncation per flush
    assert calls[0] == mask.sum() and max(calls) <= mask.sum()
