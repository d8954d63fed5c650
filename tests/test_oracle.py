import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import cli, forward, oracle
from lrpostcov import hessian as hs
from lrpostcov.errors import InvalidConfigError

POL = lp.TruncationPolicy(eps0=1e-8)


def _tiny_heat(n_side=7, n_t=5):
    grid = lp.build_grid(n_side)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K,
                            layout=hs.full_observation(grid), cov=cov, pol=POL)
    return grid, op, K, cov, ctx


def test_zero_sensors_give_zero_matrix():
    grid, op, K, cov, _ = _tiny_heat(5, 3)
    Hd, defect = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 3,
                                        np.zeros(grid.n_x, dtype=bool),
                                        cov.beta_noise, cov.gamma_prior)
    assert np.abs(Hd).max() == 0.0 and defect == 0.0


def test_symmetry_defect_small():
    grid, op, K, cov, _ = _tiny_heat()
    _, defect = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                       np.ones(grid.n_x, dtype=bool),
                                       cov.beta_noise, cov.gamma_prior)
    assert defect <= 1e-10


def test_trace_matches_matrix_free_diagonal():
    grid, op, K, cov, ctx = _tiny_heat()
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    diag_sum = 0.0
    for i in range(grid.n_x):
        e = np.zeros(grid.n_x)
        e[i] = 1.0
        diag_sum += float(e @ ctx.apply(e))
    assert abs(np.trace(Hd) - diag_sum) <= 1e-10 * abs(diag_sum)


def test_hv_agreement_gate():
    grid, op, K, cov, ctx = _tiny_heat()
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    assert oracle.hv_agreement(ctx.apply, Hd, n_probe=20, seed=0) <= 1e-8


def test_dense_misfit_is_positive_semidefinite():
    grid, op, K, cov, ctx = _tiny_heat()
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    w = np.linalg.eigvalsh(Hd)
    assert w.min() >= -1e-12 * w.max()


def test_dense_forward_matches_kron_system():
    # independent check of the oracle itself: assemble the full space-time
    # matrix and solve it directly
    grid = lp.build_grid(5)
    op = lp.assemble_heat(grid)
    n_t, tau = 3, 1.0 / 3.0
    A = grid.m_scale * (np.eye(grid.n_x) + tau * op.L.toarray())
    Kfull = np.kron(np.eye(n_t), A)
    sub = np.diag(np.ones(n_t - 1), -1)
    Kfull -= grid.m_scale * np.kron(sub, np.eye(grid.n_x))
    rng = np.random.default_rng(0)
    F = rng.standard_normal((grid.n_x, n_t))
    Y = oracle.dense_forward(op.L.toarray(), grid.m_scale, tau, F)
    y_direct = np.linalg.solve(Kfull, F.reshape(-1, order="F"))
    assert_allclose(Y.reshape(-1, order="F"), y_direct, rtol=1e-10)
    Z = oracle.dense_forward(op.L.toarray(), grid.m_scale, tau, F, adjoint=True)
    z_direct = np.linalg.solve(Kfull.T, F.reshape(-1, order="F"))
    assert_allclose(Z.reshape(-1, order="F"), z_direct, rtol=1e-10)


def _kron_misfit(n_side, n_t, mask):
    """Dense misfit core w·K⁻ᵀ·P·K⁻¹ from the assembled space-time matrix."""
    grid = lp.build_grid(n_side)
    op = lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0))
    cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
    tau, m = 1.0 / n_t, grid.m_scale
    A = m * (np.eye(grid.n_x) + tau * op.L.toarray())
    Kfull = np.kron(np.eye(n_t), A)
    Kfull -= m * np.kron(np.diag(np.ones(n_t - 1), -1), np.eye(grid.n_x))
    Kinv = np.linalg.inv(Kfull)
    P = np.diag(np.tile(mask, n_t).astype(float))
    core = cov.beta_noise * tau * m * (Kinv.T @ P @ Kinv)
    return op.L.toarray(), m, tau, cov, core


def _rel_err(H, ref):
    return np.abs(H - ref).max() / np.abs(ref).max()


def test_misfit_builders_match_kron_system():
    # both dense builders against the inverse of the assembled space-time
    # matrix, with a partial mask and a nonsymmetric operator
    n_side, n_t = 4, 3
    mask = np.zeros(n_side**2, dtype=bool)
    mask[[1, 2, 5, 6, 11]] = True
    L, m, tau, cov, core = _kron_misfit(n_side, n_t, mask)
    sqrt_g = np.sqrt(cov.gamma_prior)
    Hs, _ = oracle.dense_misfit_source(L, m, tau, n_t, mask,
                                       cov.beta_noise, cov.gamma_prior)
    assert _rel_err(Hs, (sqrt_g * tau * m) ** 2 * core) <= 1e-12
    Hic, _ = oracle.dense_misfit_ic(L, m, tau, n_t, mask, cov.beta_noise, cov.gamma_prior)
    n_x = n_side**2
    assert _rel_err(Hic, (sqrt_g * m) ** 2 * core[:n_x, :n_x]) <= 1e-12


def test_ic_builder_blocks_match_one_block(monkeypatch):
    grid, op, K, cov, ctx = _tiny_heat(5, 3)
    args = (op.L.toarray(), grid.m_scale, K.time.tau, 3, ctx.layout.mask,
            cov.beta_noise, cov.gamma_prior)
    H_one, _ = oracle.dense_misfit_ic(*args)
    widths = []
    sweeps = oracle._misfit_sweeps

    def counting(L, m, tau, F, mask, beta_noise):
        widths.append(F.shape[2])
        return sweeps(L, m, tau, F, mask, beta_noise)

    monkeypatch.setattr(oracle, "_misfit_sweeps", counting)
    monkeypatch.setattr(oracle, "DENSE_DIM_CAP", 30)  # blocks of 30² // (25·3) = 12
    H_blocks, _ = oracle.dense_misfit_ic(*args)
    assert widths == [12, 12, 1]
    assert _rel_err(H_blocks, H_one) <= 1e-14


def test_oracle_imports_only_errors():
    # the dense path shares no code with the low-rank modules it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == ["errors"]
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [name for name in absolute if name.split(".")[0] == "lrpostcov"]


def test_dense_eig_top_diagonal_matrix():
    vals, vecs = oracle.dense_eig_top(np.diag([3.0, 2.0, 1.0]), 2)
    assert_allclose(vals, [3.0, 2.0])
    assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-14)


def test_dense_eig_top_matches_fd_formula():
    grid = lp.build_grid(3)
    L = lp.assemble_heat(grid).L.toarray()
    vals, _ = oracle.dense_eig_top(L, 9)
    formula = np.sort([lp.discrete_fd_eig(m, n, grid)
                       for m in range(1, 4) for n in range(1, 4)])[::-1]
    assert_allclose(vals, formula, rtol=1e-12)


def test_dense_eig_top_rejects_nonsymmetric():
    with pytest.raises(InvalidConfigError):
        oracle.dense_eig_top(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_posterior_diag_bounded_by_prior():
    grid, op, K, cov, ctx = _tiny_heat()
    Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau, 5,
                                   ctx.layout.mask, cov.beta_noise, cov.gamma_prior)
    diag = oracle.dense_posterior_diag(Hd, cov.gamma_prior)
    assert (diag <= cov.gamma_prior + 1e-12).all() and (diag > 0).all()


def test_size_cap_refusal():
    n = 50  # 50^2 = 2500 > cap
    with pytest.raises(InvalidConfigError):
        oracle.dense_misfit_ic(np.eye(n * n), 1.0, 0.1, 3,
                               np.ones(n * n, dtype=bool), 1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        oracle.dense_misfit_source(np.eye(30 * 30), 1.0, 0.1, 3,
                                   np.ones(900, dtype=bool), 1.0, 1.0)


def test_compare_with_itself_reports_zero_errors():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 12))
    Hd = A @ A.T
    vals, vecs = oracle.dense_eig_top(Hd, 5)
    diag = oracle.dense_posterior_diag(Hd, 1.0)
    report = oracle.compare(vals, vecs, vals, vecs, Hd=Hd,
                            lr_variance=diag, dense_variance=diag,
                            hv_rel_error=0.0)
    assert report.passed
    assert report.max_eig_rel_error == 0.0
    assert report.max_principal_angle <= 1e-7
    assert report.variance_rel_error == 0.0


def test_compare_detects_eigenvalue_error():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 10))
    Hd = A @ A.T
    vals, vecs = oracle.dense_eig_top(Hd, 4)
    wrong = vals * (1 + 1e-3)
    report = oracle.compare(wrong, vecs, vals, vecs)
    assert not report.passed
    assert report.max_eig_rel_error >= 1e-3 * 0.99


def test_compare_clusters_degenerate_groups():
    # two exactly equal eigenvalues: any rotation of the pair must pass
    vals = np.array([2.0, 1.0, 1.0, 0.5])
    V = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 4)))[0]
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.eye(4)
    R[1:3, 1:3] = [[c, -s], [s, c]]
    report = oracle.compare(vals, V @ R, vals, V)
    assert report.max_principal_angle <= 1e-10


def test_compare_needs_the_whole_cluster_at_the_k_boundary():
    # dense eigenvalues k and k+1 are equal: a top-k that cuts the pair
    # compares one vector of a 2-D eigenspace with another, an arbitrary angle
    vals = np.array([3.0, 2.0, 1.0, 1.0])
    V = np.linalg.qr(np.random.default_rng(4).standard_normal((8, 4)))[0]
    c, s = np.cos(0.7), np.sin(0.7)
    W = V.copy()
    W[:, 2:] = V[:, 2:] @ np.array([[c, -s], [s, c]])
    cut = oracle.compare(vals[:3], W[:, :3], vals[:3], V[:, :3])
    assert not cut.passed and cut.max_principal_angle == pytest.approx(0.7)
    whole = oracle.compare(vals, W, vals, V)
    assert whole.passed and whole.max_principal_angle <= 1e-10
    # dense vectors that end before the pair leave it out of the angle check
    # only; its eigenvalue still counts
    left_out = oracle.compare(vals[:3], W[:, :3], vals[:3], V[:, :2])
    assert left_out.passed and left_out.eig_rel_errors.size == 3


def test_report_text_roundtrip():
    report = oracle.OracleReport(
        eig_rel_errors=np.array([1e-9]), max_eig_rel_error=1e-9,
        max_principal_angle=2e-7, max_pair_residual=3e-9,
        variance_rel_error=4e-6, hv_rel_error=5e-10, asymmetry=4.3e-17,
        tolerances={"eig_rel": 1e-6}, passed=True,
    )
    text = report.as_text()
    assert "result=PASS" in text
    parsed = dict(line.split("=") for line in text.strip().splitlines())
    # measurements first, then the pass thresholds as tol_* lines only
    assert list(parsed) == [
        "max_eig_rel_error", "max_principal_angle", "max_pair_residual",
        "variance_rel_error", "hv_rel_error", "asymmetry", "tol_eig_rel", "result",
    ]
    assert float(parsed["asymmetry"]) == pytest.approx(4.3e-17)
    assert float(parsed["max_eig_rel_error"]) == pytest.approx(1e-9)
    assert float(parsed["variance_rel_error"]) == pytest.approx(4e-6)


def test_steady_dense_matches_formula():
    grid = lp.build_grid(5)
    op = lp.assemble_heat(grid)
    Hd, defect = oracle.dense_misfit_steady(op.L.toarray(), 1e4, 1.0)
    assert defect <= 1e-12
    v = lp.eigvec_dense(1, 1, grid)
    mu = 1e-4 / lp.discrete_fd_eig(1, 1, grid) ** 2
    assert np.linalg.norm(Hd @ v - mu * v) <= 1e-10 * mu


def test_every_flush_of_the_eps15_oracle_run_keeps_an_orthonormal_basis(monkeypatch):
    # oracle.compare cannot see a pane basis that has lost orthonormality, so
    # this runs the CI line oracle-sensors-eps15 (singular values down to
    # rounding level, where flushes need the second projection) and checks
    # the basis every flush returns
    defects = []
    extend = forward._extend_pane

    def spy(*args):
        pane = extend(*args)
        defects.append(np.abs(pane.W1.T @ pane.W1 - np.eye(pane.r)).max(initial=0.0))
        return pane

    monkeypatch.setattr(forward, "_extend_pane", spy)
    cfg = cli.RunConfig(problem="heat", n_side=15, nt=20, sensors="grid3x3", m_a=100,
                        eps0=1e-15)
    _, _, report = cli.run_oracle(cfg)
    assert defects and max(defects) <= 1e-12
    assert report.passed
