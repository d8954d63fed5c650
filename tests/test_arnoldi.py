import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import arnoldi, cli
from lrpostcov import hessian as hs
from lrpostcov import lowrank, oracle
from lrpostcov.arnoldi import StopRule, lr_arnoldi, rank_one_check, ritz_pairs

POL = lp.TruncationPolicy(eps0=1e-8)


def _steady_ctx(n_side):
    op = lp.assemble_heat(lp.build_grid(n_side))
    cov = hs.CovarianceSpec(beta_noise=1e4, beta_prior=1.0, gamma_prior=1.0)
    return hs.HessianContext(mode=hs.MODE_STEADY, operator=None, layout=None,
                             cov=cov, pol=POL, spatial=op)


def _heat_ic_ctx(n_side, n_t):
    grid = lp.build_grid(n_side)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    return grid, K, hs.HessianContext(mode=hs.MODE_IC, operator=K,
                                      layout=hs.full_observation(grid),
                                      cov=cov, pol=POL)


def test_identity_operator_breaks_down_at_step_one():
    v = np.ones(6) / np.sqrt(6)
    res = lr_arnoldi(lambda x: x.copy(), v, POL, StopRule(m_a=10))
    assert res.breakdown and res.iterations == 1
    assert_allclose(res.H[0, 0], 1.0, atol=1e-14)
    assert_allclose(res.ritz_values[0], 1.0, atol=1e-12)


def test_diagonal_operator_exact_krylov_termination():
    d = np.array([3.0, 2.0, 1.0, 0.5, 0.25])
    v = np.ones(5) / np.sqrt(5)
    res = lr_arnoldi(lambda x: d * x, v, POL,
                     StopRule(m_a=5, eps_eig=1e-12, exhaustive=True))
    assert_allclose(np.sort(res.ritz_values)[::-1], d, rtol=1e-10)


def test_heat_ic_ritz_match_dense_top40():
    grid, K, ctx = _heat_ic_ctx(7, 5)
    Hd, _ = oracle.dense_misfit_ic(K.spatial.L.toarray(), grid.m_scale, K.time.tau,
                                   K.n_t, ctx.layout.mask, ctx.cov.beta_noise,
                                   ctx.cov.gamma_prior)
    dn_vals, _ = oracle.dense_eig_top(Hd, 40)
    v1 = np.ones(grid.n_x) / np.sqrt(grid.n_x)
    res = lr_arnoldi(ctx.apply, v1, POL,
                     StopRule(m_a=55, eps_eig=1e-12, exhaustive=True))
    got = res.ritz_values[:40]
    assert np.max(np.abs(got - dn_vals) / dn_vals) <= 1e-6


def test_ritz_single_column():
    v = np.array([1.0, 0.0, 0.0])
    H = np.array([[2.5], [0.0]])
    pairs = ritz_pairs(H, [v])
    assert pairs[0][0] == pytest.approx(2.5)
    assert_allclose(pairs[0][1], v)


def _ritz_coefficients(H):
    m = H.shape[1]
    vals, Y = np.linalg.eigh(0.5 * (H[:m, :m] + H[:m, :m].T))
    return vals[::-1], Y[:, ::-1]


@pytest.mark.parametrize("n_x, n_t", [(30, 6), (6, 30)])
def test_low_rank_ritz_vectors_are_the_dense_basis_combinations(n_x, n_t):
    # every combination has full rank min(n_x, n_t), so truncation keeps it
    rng = np.random.default_rng(40)
    m = 2 * lowrank.SUMS_BLOCK + 4
    basis = [lp.LowRankMat(rng.standard_normal((n_x, 3)), rng.standard_normal((n_t, 3)))
             for _ in range(m + 1)]
    H = rng.standard_normal((m + 1, m))
    vals, Y = _ritz_coefficients(H)
    dense = np.array([lp.lr_to_dense(v) for v in basis[:m]])
    pairs = ritz_pairs(H, basis, POL)
    assert [p[0] for p in pairs] == [float(v) for v in vals]
    for (_, v), y in zip(pairs, Y.T):
        ref = np.tensordot(y, dense, axes=1)
        ref /= np.linalg.norm(ref)
        assert np.linalg.norm(lp.lr_to_dense(v) - ref) <= 1e-12


def test_dense_ritz_vectors_are_bitwise_the_per_column_loop():
    rng = np.random.default_rng(41)
    m = 2 * lowrank.SUMS_BLOCK + 4
    basis = list(rng.standard_normal((m + 1, 50)))
    H = rng.standard_normal((m + 1, m))
    _, Y = _ritz_coefficients(H)
    for (_, v), y in zip(ritz_pairs(H, basis), Y.T):
        ref = np.zeros(50)
        for b, c in zip(basis, y):
            ref += float(c) * b
        assert np.array_equal(v, np.multiply(ref, 1.0 / np.linalg.norm(ref)))


def test_ritz_extraction_holds_one_block_of_exact_sums_not_one_per_vector():
    # The spatial factors share a 2-D subspace, so each Ritz vector truncates
    # to rank 2 while its exact combination is n_x x n_t.  Above its inputs
    # and outputs the extraction may hold one block of exact combinations
    # (SUMS_BLOCK = 8), one product buffer and a truncation's work arrays:
    # 11 exact combinations, against the m = 40 of a buffer per vector.
    rng = np.random.default_rng(42)
    n_x, n_t, m = 3000, 16, 40
    U = np.linalg.qr(rng.standard_normal((n_x, 2)))[0]
    basis = [lp.LowRankMat(U @ rng.standard_normal((2, 4)), rng.standard_normal((n_t, 4)))
             for _ in range(m)]
    H = rng.standard_normal((m + 1, m))
    tracemalloc.start()
    try:
        pairs = ritz_pairs(H, basis, POL)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {v.r for _, v in pairs} == {2}
    assert peak - held <= 11 * n_x * n_t * 8


def test_ritz_symmetric_tridiagonal_real():
    rng = np.random.default_rng(0)
    m = 12
    alpha, beta = rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1
    H = np.zeros((m + 1, m))
    H[:m, :m] = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    basis = [col for col in np.eye(m).T]
    pairs = ritz_pairs(H, basis)
    lams = np.array([lam for lam, _ in pairs])
    assert_allclose(lams, np.linalg.eigvalsh(H[:m])[::-1], rtol=0, atol=1e-13)
    for lam, v in pairs:  # the identity basis makes each vector its coefficients
        assert np.linalg.norm(H[:m] @ v - lam * v) <= 1e-13


def test_ritz_pairs_of_a_skewed_exact_pair_are_real():
    # a general eigensolve turns this pair into 1 ± 1e-10i; the values must be
    # those of the symmetric part, from the solve that gives the vectors
    H = np.zeros((4, 3))
    H[:3] = np.diag([2.0, 1.0, 1.0])
    H[1, 2], H[2, 1] = 1e-10, -1e-10
    pairs = ritz_pairs(H, list(np.eye(3)))
    lams = np.array([lam for lam, _ in pairs])
    assert np.isrealobj(lams)
    assert_allclose(lams, np.linalg.eigvalsh(0.5 * (H[:3] + H[:3].T))[::-1], rtol=0, atol=1e-15)
    V = np.column_stack([v for _, v in pairs])
    assert_allclose(V.T @ V, np.eye(3), atol=1e-14)


def test_asymmetry_measures_the_leading_block():
    res = lr_arnoldi(np.zeros_like, np.ones(3) / np.sqrt(3), POL, StopRule(m_a=3))
    assert res.breakdown and res.asymmetry() == 0.0
    # v1 = (1, 1)/√2 under [[2, 1], [0, 1]] gives the block [[2, 0], [1, 1]]
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    res = lr_arnoldi(lambda x: A @ x, np.ones(2) / np.sqrt(2), POL, StopRule(m_a=2))
    assert res.asymmetry() == pytest.approx(0.5, rel=1e-12)


def test_misfit_run_hessenberg_block_is_symmetric():
    grid, K, ctx = _heat_ic_ctx(7, 4)
    v1 = np.ones(grid.n_x) / np.sqrt(grid.n_x)
    res = lr_arnoldi(ctx.apply, v1, POL, StopRule(m_a=30, eps_eig=1e-10, exhaustive=True))
    assert 0.0 < res.asymmetry() <= 1e-8


def test_orthogonality_and_normalization_dense_mode():
    grid, K, ctx = _heat_ic_ctx(9, 6)
    v1 = np.ones(grid.n_x) / np.sqrt(grid.n_x)
    res = lr_arnoldi(ctx.apply, v1, POL, StopRule(m_a=25, eps_eig=1e-10, exhaustive=True))
    assert res.gram_defect() <= 1e-6
    for v in res.basis:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-8


def test_hessenberg_below_first_subdiagonal_exactly_zero():
    grid, K, ctx = _heat_ic_ctx(7, 4)
    v1 = np.ones(grid.n_x) / np.sqrt(grid.n_x)
    res = lr_arnoldi(ctx.apply, v1, POL, StopRule(m_a=12, eps_eig=1e-10, exhaustive=True))
    H = res.H
    for j in range(H.shape[1]):
        assert (H[j + 2:, j] == 0.0).all()


def test_orthogonality_low_rank_mode():
    grid = lp.build_grid(9)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(6))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    v1 = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((6, 1)))
    res = lr_arnoldi(ctx.apply, v1, POL,
                     StopRule(m_a=15, eps_eig=1e-14, exhaustive=True))
    assert res.gram_defect() <= 1e-6
    for v in res.basis:
        assert abs(lp.lr_norm(v) - 1.0) <= 1e-7
    assert len(ctx.rank_trace) == res.iterations  # one apply per iteration


def test_arnoldi_relation_low_rank_mode():
    grid = lp.build_grid(7)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(4))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    v1 = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((4, 1)))
    res = lr_arnoldi(ctx.apply, v1, POL,
                     StopRule(m_a=8, eps_eig=1e-14, exhaustive=True))
    Vd = [lp.lr_to_dense(v).ravel() for v in res.basis]
    H = res.H
    h_scale = np.linalg.norm(H)
    for j in range(res.iterations):
        w = lp.lr_to_dense(ctx.apply(res.basis[j])).ravel()
        recon = sum(H[i, j] * Vd[i] for i in range(min(j + 2, len(Vd))))
        assert np.linalg.norm(w - recon) <= 10 * POL.eps0 * h_scale


def test_top_ritz_value_monotone_in_subspace_size():
    ctx = _steady_ctx(15)
    v1 = np.ones(ctx.n_param) / np.sqrt(ctx.n_param)
    tops = []
    for m_a in (4, 8, 16, 32):
        res = lr_arnoldi(ctx.apply, v1, POL,
                         StopRule(m_a=m_a, eps_eig=1e-14, exhaustive=True))
        tops.append(res.ritz_values[0])
    slack = 10 * POL.eps0 * tops[-1]
    assert all(tops[i + 1] >= tops[i] - slack for i in range(len(tops) - 1))


def test_degenerate_pair_subspace_angle():
    ctx = _steady_ctx(15)
    grid = lp.build_grid(15)
    v1 = np.ones(ctx.n_param) / np.sqrt(ctx.n_param)
    res = lr_arnoldi(ctx.apply, v1, POL,
                     StopRule(m_a=80, eps_eig=1e-14, exhaustive=True))
    vals = res.ritz_values
    # modes (1,2)/(2,1) share the second-largest eigenvalue
    assert_allclose(vals[1], vals[2], rtol=1e-10)
    Vr = np.column_stack([np.asarray(res.ritz_vectors[1]),
                          np.asarray(res.ritz_vectors[2])])
    Va = np.column_stack([lp.eigvec_dense(1, 2, grid), lp.eigvec_dense(2, 1, grid)])
    assert la.subspace_angles(Vr, Va).max() <= 1e-5


def test_breakdown_restart_recovers_full_multiplicity():
    grid, K, ctx = _heat_ic_ctx(7, 5)
    Hd, _ = oracle.dense_misfit_ic(K.spatial.L.toarray(), grid.m_scale, K.time.tau,
                                   K.n_t, ctx.layout.mask, ctx.cov.beta_noise,
                                   ctx.cov.gamma_prior)
    dense_vals = np.linalg.eigvalsh(Hd)[::-1]
    v1 = np.ones(grid.n_x) / np.sqrt(grid.n_x)
    res = lr_arnoldi(ctx.apply, v1, POL,
                     StopRule(m_a=57, eps_eig=1e-12, exhaustive=True))
    assert res.restarts >= 1
    got = np.sort(res.ritz_values)[::-1][: len(dense_vals)]
    assert np.max(np.abs(got - dense_vals) / dense_vals) <= 1e-6


def test_breakdown_restart_low_rank_mode():
    # P ⊗ I with P = U·diag(2, 1)·Uᵀ: each eigenvalue has multiplicity n_t,
    # but one Krylov sequence holds a single copy of each and closes at step 3
    rng = np.random.default_rng(0)
    n_x, n_t = 12, 3
    U = np.linalg.qr(rng.standard_normal((n_x, 2)))[0]
    P = U @ np.diag([2.0, 1.0]) @ U.T
    v1 = lp.LowRankMat(rng.standard_normal((n_x, 1)), rng.standard_normal((n_t, 1)))
    res = lr_arnoldi(lambda X: lp.LowRankMat(P @ X.W1, X.W2), v1, POL,
                     StopRule(m_a=12, eps_eig=1e-12, exhaustive=True))
    assert res.restarts >= 1
    assert res.gram_defect() <= 1e-6
    vals = res.ritz_values
    assert_allclose(vals[:2 * n_t], [2.0] * n_t + [1.0] * n_t, rtol=1e-10)
    assert np.abs(vals[2 * n_t:]).max() <= 1e-10


def test_truncations_per_iteration_and_ritz_vector(monkeypatch):
    calls = []

    def counting_truncate(A, pol):
        calls.append(A.r)
        return lp.lr_truncate(A, pol)

    monkeypatch.setattr(arnoldi, "lr_truncate", counting_truncate)
    grid = lp.build_grid(9)
    K = lp.SpaceTimeOperator(lp.assemble_heat(grid), lp.build_time_grid(12))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    v1 = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((12, 1)))
    res = lr_arnoldi(ctx.apply, v1, POL, StopRule(m_a=12, eps_eig=1e-14, exhaustive=True))
    assert res.iterations == 12 and res.restarts == 0
    # one per Gram-Schmidt pass, one per Ritz vector, one for the start vector
    assert len(calls) <= 2 * res.iterations + len(res.ritz_vectors) + 1


def _heat_top10(beta_ratio):
    run = cli.run_eigs(cli.RunConfig(n_side=15, nt=3, beta_ratio=beta_ratio))
    return run.result.ritz_values[:10]


@pytest.fixture(scope="module")
def unit_ratio_top10():
    return _heat_top10(1.0)


@pytest.mark.parametrize("beta_ratio", [1e-12, 1.0, 1e4, 1e20, 1e50])
def test_breakdown_test_is_scale_invariant(beta_ratio, unit_ratio_top10):
    # the misfit Hessian is linear in beta_ratio, so its spectrum must be too;
    # an absolute breakdown tolerance stopped at step 1 for 1e-12 and iterated
    # on rounding noise for 1e50
    vals = _heat_top10(beta_ratio)
    assert len(vals) == 10 and np.isrealobj(vals)
    ref = unit_ratio_top10
    assert np.abs(vals / beta_ratio - ref).max() <= 1e-10 * ref[0]


def _count_above(res, stop):
    above = int(np.sum(res.ritz_values >= stop.eps_eig))
    assert 0 < above < res.iterations
    return above


def test_stopping_rule_fires_before_cap():
    ctx = _steady_ctx(15)
    v1 = np.ones(ctx.n_param) / np.sqrt(ctx.n_param)
    stop = StopRule(m_a=200, eps_eig=1e-9)
    res = lr_arnoldi(ctx.apply, v1, POL, stop)
    assert res.iterations < 200 and not res.breakdown
    assert res.converged_count == _count_above(res, stop)


@pytest.mark.parametrize("why", ["cap", "breakdown"])
def test_converged_count_is_final_ritz_values_above_threshold(why):
    # the count is taken once, from the final Ritz values, whatever ends the
    # run; test_stopping_rule_fires_before_cap covers a run the rule stops
    if why == "breakdown":
        d = np.array([3.0, 2.0, 1.0, 0.5, 0.25])
        apply, v1 = (lambda x: d * x), np.ones(5) / np.sqrt(5)
        stop = StopRule(m_a=10, eps_eig=0.4)
    else:
        ctx = _steady_ctx(15)
        apply, v1 = ctx.apply, np.ones(ctx.n_param) / np.sqrt(ctx.n_param)
        stop = StopRule(m_a=6, eps_eig=1e-9)
    res = lr_arnoldi(apply, v1, POL, stop)
    assert res.breakdown == (why == "breakdown")
    assert (res.iterations == stop.m_a) == (why == "cap")
    assert res.converged_count == _count_above(res, stop)


@pytest.mark.parametrize("spectrum, stop, reason", [
    # well-separated values above eps_eig agree between the refreshes at 10 and 20
    (2.0 ** -np.arange(60.0), StopRule(m_a=50), "stable"),
    (2.0 ** -np.arange(60.0), StopRule(m_a=5), "cap"),
    # five distinct values: the Krylov space closes at step 5
    ([3.0, 2.0, 1.0, 0.5, 0.25], StopRule(m_a=10), "breakdown"),
    # exhaustive: a restart past the first invariant subspace, then the cap
    ([2.0, 2.0, 1.0, 1.0, 0.5, 0.5], StopRule(m_a=5, exhaustive=True), "cap"),
    # exhaustive: the second invariant subspace leaves no complement to restart in
    ([2.0, 2.0, 1.0, 1.0], StopRule(m_a=12, exhaustive=True), "breakdown"),
])
def test_stop_reason_names_what_ended_the_run(spectrum, stop, reason):
    d = np.asarray(spectrum)
    res = lr_arnoldi(lambda x: d * x, np.ones(len(d)) / np.sqrt(len(d)), POL, stop)
    assert res.stop_reason == reason
    assert (res.iterations == stop.m_a) == (reason == "cap")


RTOL = arnoldi.STABILITY_RTOL


@pytest.mark.parametrize("vals, prev, ready", [
    ([5.0, 2.0, 0.05], None, False),                          # first refresh
    ([5.0, 2.0, 0.09999], [5.0, 2.0, 0.10001], False),        # count above eps_eig changed
    ([5.0, 2.0 * (1 + 2 * RTOL), 0.05], [5.0, 2.0, 0.05], False),  # drift above the bound
    ([5.0, 2.0 * (1 + RTOL / 2), 0.05], [5.0, 2.0, 0.02], True),   # stable above eps_eig
    ([0.05, 0.01], [0.05 * (1 + RTOL / 2), 0.02], True),      # none above: the leading
    ([0.05, 0.01], [0.05 * (1 + 2 * RTOL), 0.01], False),     # value decides
])
def test_stop_ready_table(vals, prev, ready):
    prev = None if prev is None else np.array(prev)
    got = arnoldi._stop_ready(np.array(vals), prev, StopRule(m_a=10, eps_eig=0.1))
    assert got is ready


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(m_a=0)
    for m_a in (5.5, True, "5"):  # not rounded down, and a bool is not a count
        with pytest.raises(lp.InvalidConfigError, match="m_a must be an integer"):
            StopRule(m_a=m_a)
    assert type(StopRule(m_a=5.0).m_a) is int
    with pytest.raises(ValueError):
        StopRule(m_a=5, eps_eig=0.0)
    with pytest.raises(ValueError):
        lr_arnoldi(lambda x: x, np.zeros(4), POL, StopRule(m_a=3))


class TestRankOneCheck:
    def test_separable_eigvec_is_rank_one(self):
        grid = lp.build_grid(15)
        v = lp.eigvec_dense(2, 3, grid)
        r, ratio = rank_one_check(v, reshape=(grid.n_side, grid.n_side))
        assert r == 1 and ratio <= 1e-6

    def test_two_mode_sum_is_rank_two(self):
        grid = lp.build_grid(15)
        v = lp.eigvec_dense(1, 1, grid) + lp.eigvec_dense(2, 2, grid)
        r, ratio = rank_one_check(v, reshape=(grid.n_side, grid.n_side))
        assert r == 2 and ratio > 0.1

    def test_random_vector_is_full_rank(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(15 * 15)
        r, _ = rank_one_check(v, reshape=(15, 15))
        assert r >= 13

    def test_low_rank_input_uses_own_factorization(self):
        rng = np.random.default_rng(2)
        A = lp.LowRankMat(rng.standard_normal((20, 2)), rng.standard_normal((9, 2)))
        r, ratio = rank_one_check(A)
        assert r == 2 and ratio > 0

    def test_dense_requires_reshape(self):
        with pytest.raises(ValueError):
            rank_one_check(np.ones(9))


@pytest.mark.parametrize("low_rank", [False, True])
def test_non_finite_operator_output_raises_numerical_error(low_rank):
    rng = np.random.default_rng(1)
    D = np.diag(np.arange(1.0, 9.0))
    calls = []

    def apply(x):  # a clean first application, NaN from the second on
        calls.append(1)
        bad = np.nan if len(calls) >= 2 else 1.0
        if low_rank:
            return lp.LowRankMat(D @ x.W1 * bad, x.W2)
        return D @ x * bad

    v1 = (lp.LowRankMat(rng.standard_normal((8, 1)), rng.standard_normal((5, 1)))
          if low_rank else rng.standard_normal(8))
    with pytest.raises(lp.NumericalError, match="iteration 2"):
        lr_arnoldi(apply, v1, POL, StopRule(m_a=6, eps_eig=1e-12))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_subdiagonal_raises_numerical_error():
    # finite entries whose squared norm overflows: h_{j+1,j} comes out inf
    v1 = np.array([1.0, 0.0])
    with pytest.raises(lp.NumericalError, match=r"iteration 1: h_\(j\+1,j\) = inf"):
        lr_arnoldi(lambda x: np.array([0.0, 1e200]) * x.sum(), v1, POL, StopRule(m_a=2))


def test_non_finite_start_vector_raises_numerical_error():
    with pytest.raises(lp.NumericalError, match="start vector"):
        lr_arnoldi(lambda x: x, np.array([1.0, np.inf]), POL, StopRule(m_a=2))
