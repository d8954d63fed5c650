import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import hessian as hs
from lrpostcov import oracle, posterior
from lrpostcov.errors import NumericalError

POL = lp.TruncationPolicy(eps0=1e-8)


def test_lambda_tilde_values():
    assert posterior.lambda_tilde(0.0) == 0.0
    assert posterior.lambda_tilde(1.0) == 0.5
    assert_allclose(posterior.lambda_tilde(1e6), 0.999999, rtol=1e-12)


def test_lambda_tilde_rejects_negative():
    with pytest.raises(NumericalError):
        posterior.lambda_tilde(-1e-3)


def _orthonormal(rng, n, k):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def _variance(lams, V, gamma_prior):
    """The variance diagonal that build_summary forms from the pairs (lams, V)."""
    return posterior.build_summary(np.asarray(lams, dtype=float), list(V.T),
                                   gamma_prior).variance_field


def test_empty_retention_gives_prior_field():
    # one pair below the threshold: nothing is retained, the dimension stays
    summary = posterior.build_summary(np.array([0.05]), [np.eye(25)[0]], gamma_prior=10.0,
                                      eps_eig=0.1)
    assert summary.k == 0 and summary.V.shape == (25, 0)
    assert_allclose(summary.variance_field, 10.0)


def test_huge_eigenvalue_localizes_variance():
    n = 16
    V = np.eye(n)[:, [0]]
    var = _variance(np.array([1e12]), V, gamma_prior=10.0)
    assert var[0] <= 1e-9
    assert_allclose(var[1:], 10.0)


def test_variance_matches_dense_posterior_inversion():
    grid = lp.build_grid(7)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(5))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    w, V = np.linalg.eigh(Hd)
    summary = posterior.build_summary(w[::-1], list(V[:, ::-1].T),
                                      gamma_prior=10.0, eps_eig=1e-8)
    dense_diag = oracle.dense_posterior_diag(Hd, 10.0)
    assert np.max(np.abs(summary.variance_field - dense_diag) / dense_diag) <= 1e-4


def test_posterior_apply_cases():
    rng = np.random.default_rng(0)
    n = 30
    empty = posterior.build_summary(np.array([0.05]), [np.eye(n)[0]], gamma_prior=7.0,
                                    eps_eig=0.1)
    v = rng.standard_normal(n)
    assert_allclose(posterior.posterior_apply(v, empty), 7.0 * v)

    V = _orthonormal(rng, n, 3)
    lams = np.array([4.0, 2.0, 1.0])
    summary = posterior.build_summary(lams, list(V.T), gamma_prior=7.0)
    out = posterior.posterior_apply(V[:, 0], summary)
    assert_allclose(out, 7.0 * (1 - 4.0 / 5.0) * V[:, 0], atol=1e-12)


def test_posterior_apply_matches_dense():
    grid = lp.build_grid(5)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(4))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 4,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    w, V = np.linalg.eigh(Hd)
    summary = posterior.build_summary(w[::-1], list(V[:, ::-1].T),
                                      gamma_prior=10.0, eps_eig=1e-8)
    import scipy.linalg as la
    post = la.inv(Hd / 10.0 + np.eye(grid.n_x) / 10.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(grid.n_x)
        ref = post @ v
        got = posterior.posterior_apply(v, summary)
        assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref)


def test_variance_bounded_by_prior_and_positive():
    rng = np.random.default_rng(2)
    V = _orthonormal(rng, 40, 6)
    lams = np.sort(rng.uniform(0.01, 50.0, 6))[::-1]
    var = _variance(lams, V, gamma_prior=10.0)
    assert (var <= 10.0 + 1e-12).all() and (var > 0).all()


def test_adding_retained_pair_never_increases_variance():
    rng = np.random.default_rng(3)
    V = _orthonormal(rng, 40, 6)
    lams = np.sort(rng.uniform(0.1, 20.0, 6))[::-1]
    prev = _variance(lams[:3], V[:, :3], gamma_prior=10.0)
    more = _variance(lams[:5], V[:, :5], gamma_prior=10.0)
    assert (more <= prev + 1e-12).all()


def test_noise_weight_scaling_shrinks_variance_entrywise():
    # scaling beta_noise up scales every eigenvalue up, hence variance down
    rng = np.random.default_rng(4)
    V = _orthonormal(rng, 30, 4)
    lams = np.sort(rng.uniform(0.05, 5.0, 4))[::-1]
    base = _variance(lams, V, gamma_prior=10.0)
    scaled = _variance(100.0 * lams, V, gamma_prior=10.0)
    affected = (V**2).sum(axis=1) > 1e-12
    assert (scaled[affected] < base[affected]).all()


def test_retention_threshold_filters():
    rng = np.random.default_rng(5)
    V = _orthonormal(rng, 20, 4)
    vals = np.array([5.0, 0.5, 0.05, 0.005])
    summary = posterior.build_summary(vals, list(V.T), gamma_prior=1.0, eps_eig=0.1)
    assert summary.k == 2
    assert_allclose(summary.eigenvalues, [5.0, 0.5])
    assert (np.diff(summary.filters) <= 0).all()


def test_nonorthogonal_input_is_cleaned():
    # duplicated eigenvector direction must not double-count the reduction
    rng = np.random.default_rng(6)
    v = _orthonormal(rng, 25, 1)[:, 0]
    V = np.column_stack([v, v + 1e-7 * rng.standard_normal(25)])
    var = _variance(np.array([10.0, 10.0]), V, gamma_prior=1.0)
    assert var.min() > 0  # would go negative without reorthonormalization


def test_summary_holds_one_block_and_forms_the_exact_variance():
    # 120 retained pairs on the 63 × 63 grid, the size of the ic-full workload
    n, k, gamma = 3969, 120, 10.0
    V = _orthonormal(np.random.default_rng(8), n, k)
    vecs = [V[:, j].copy() for j in range(k)]
    lams = np.geomspace(1e4, 0.2, k)
    tracemalloc.start()
    try:
        summary = posterior.build_summary(lams, vecs, gamma_prior=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V is re-orthonormalized in its own buffer and squared without a copy
    assert peak <= 1.2 * V.nbytes
    reference = gamma * (1.0 - (summary.V**2) @ summary.filters)
    assert np.abs(summary.variance_field - reference).max() <= 1e-15 * gamma


def test_variance_strictly_reduced_at_every_sensor_dof():
    from lrpostcov import cli
    cfg = cli.RunConfig(problem="heat", n_side=31, nt=10, sensors="grid3x3",
                        beta_ratio=1e4, gamma_prior=10.0, m_a=25, eps_eig=1e-1)
    run, summary = cli.run_variance(cfg)
    assert summary.k >= 1
    mask = run.problem.layout.mask
    assert (summary.variance_field[mask] < 10.0).all()
    assert (summary.variance_field <= 10.0 + 1e-12).all()


def test_run_variance_rejects_source_mode():
    from lrpostcov import cli
    # grid3x3 cannot resolve at n_side 7, and a RunConfig checks that when built
    cfg = cli.RunConfig(problem="heat", n_side=7, nt=4, mode="source", m_a=5, sensors="none")
    with pytest.raises(lp.InvalidConfigError):
        cli.run_variance(cfg)
