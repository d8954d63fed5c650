import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrpostcov as lp
from lrpostcov import hessian as hs
from lrpostcov import oracle
from lrpostcov.errors import InvalidConfigError

POL = lp.TruncationPolicy(eps0=1e-8)


def _heat_ctx(n_side, n_t, layout=None, cov=None, gamma=10.0, ratio=1e4):
    grid = lp.build_grid(n_side)
    op = lp.assemble_heat(grid)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
    layout = layout if layout is not None else hs.full_observation(grid)
    cov = cov if cov is not None else hs.CovarianceSpec.from_gamma(gamma, ratio, grid)
    ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K, layout=layout, cov=cov, pol=POL)
    return grid, op, K, ctx


class TestCovarianceSpec:
    def test_presets_implement_the_same_identity(self):
        grid = lp.build_grid(31)
        a = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        b = hs.CovarianceSpec.from_beta(a.beta_prior, 1e4, grid)
        assert_allclose(a.gamma_prior * a.beta_prior * grid.m_scale, 1.0, rtol=1e-14)
        assert_allclose(b.gamma_prior, a.gamma_prior, rtol=1e-14)
        assert_allclose(a.beta_noise, 1e4 * a.beta_prior, rtol=1e-14)

    def test_rejects_nonpositive(self):
        for bad in [dict(beta_noise=0, beta_prior=1, gamma_prior=1),
                    dict(beta_noise=1, beta_prior=-1, gamma_prior=1),
                    dict(beta_noise=1, beta_prior=1, gamma_prior=0)]:
            with pytest.raises(InvalidConfigError):
                hs.CovarianceSpec(**bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        grid = lp.build_grid(7)
        with pytest.raises(InvalidConfigError):
            hs.CovarianceSpec(beta_noise=1.0, beta_prior=1.0, gamma_prior=bad)
        with pytest.raises(InvalidConfigError):
            hs.CovarianceSpec.from_gamma(bad, 1e4, grid)
        with pytest.raises(InvalidConfigError):
            hs.CovarianceSpec.from_gamma(10.0, bad, grid)
        with pytest.raises(InvalidConfigError):
            hs.CovarianceSpec.from_beta(bad, 1e4, grid)


class TestSensorLayout:
    def test_3x3_counts_at_63(self):
        layout = hs.make_sensor_layout_3x3(lp.build_grid(63))
        assert layout.n_active == 144  # nine 4x4 dof blocks

    def test_3x3_counts_at_31(self):
        layout = hs.make_sensor_layout_3x3(lp.build_grid(31))
        assert layout.n_active == 36  # nine 2x2 dof blocks

    def test_patches_disjoint(self):
        for n_side in (15, 31, 63):
            grid = lp.build_grid(n_side)
            total = 0
            for patch in hs.make_sensor_layout_3x3(grid).patches:
                total += hs.make_sensor_layout([patch], grid).n_active
            assert total == hs.make_sensor_layout_3x3(grid).n_active

    def test_too_coarse_raises(self):
        with pytest.raises(InvalidConfigError):
            hs.make_sensor_layout_3x3(lp.build_grid(7))
        with pytest.raises(InvalidConfigError):
            hs.make_sensor_layout([(0.5, 0.5, 1e-3)], lp.build_grid(4))

    def test_patch_outside_domain_raises(self):
        with pytest.raises(InvalidConfigError):
            hs.make_sensor_layout([(1.2, 0.5, 0.1)], lp.build_grid(15))


class TestObsWeight:
    # the field holds the observed rows only; the output has n_x rows
    def test_empty_layout_gives_zero_field(self):
        grid = lp.build_grid(5)
        tg = lp.build_time_grid(4)
        cov = hs.CovarianceSpec(1.0, 1.0, 1.0)
        empty = hs.SensorLayout(patches=(), mask=np.zeros(grid.n_x, bool))
        out = hs.apply_obs_weight(lp.LowRankMat.zeros(0, 4), empty, cov, tg, grid.m_scale)
        assert out.r == 0 and out.shape == (grid.n_x, 4)

    def test_unit_weight_full_domain_is_identity(self):
        grid = lp.build_grid(5)
        tg = lp.build_time_grid(4)
        # pick beta_noise so that beta_noise * tau * m_scale = 1
        cov = hs.CovarianceSpec(1.0 / (tg.tau * grid.m_scale), 1.0, 1.0)
        rng = np.random.default_rng(1)
        Y = lp.lr_from_dense(rng.standard_normal((grid.n_x, 4)), POL)
        out = hs.apply_obs_weight(Y, hs.full_observation(grid), cov, tg, grid.m_scale)
        assert np.abs(lp.lr_to_dense(out) - lp.lr_to_dense(Y)).max() < 1e-13

    def test_masking_preserves_rank(self):
        grid = lp.build_grid(15)
        tg = lp.build_time_grid(6)
        cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        layout = hs.make_sensor_layout_3x3(grid)
        rng = np.random.default_rng(2)
        Y = lp.LowRankMat(rng.standard_normal((layout.n_active, 1)),
                          rng.standard_normal((6, 1)))
        out = hs.apply_obs_weight(Y, layout, cov, tg, grid.m_scale)
        assert out.r <= 1
        dense = lp.lr_to_dense(out)
        assert not dense[~layout.mask].any()  # zero off the mask
        w = cov.beta_noise * tg.tau * grid.m_scale
        assert_allclose(dense[layout.mask], w * lp.lr_to_dense(Y), rtol=1e-12)

    def test_rejects_a_field_with_unobserved_rows(self):
        grid = lp.build_grid(15)
        tg = lp.build_time_grid(6)
        cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        Y = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((6, 1)))
        with pytest.raises(ValueError):
            hs.apply_obs_weight(Y, hs.make_sensor_layout_3x3(grid), cov, tg, grid.m_scale)


class TestMisfitInitialCondition:
    def test_zero_maps_to_zero(self):
        grid, op, K, ctx = _heat_ctx(5, 3)
        assert np.linalg.norm(ctx.apply(np.zeros(grid.n_x))) == 0.0

    def test_beta_noise_linearity_is_exact(self):
        grid, op, K, ctx = _heat_ctx(5, 3)
        cov2 = hs.CovarianceSpec(2 * ctx.cov.beta_noise, ctx.cov.beta_prior,
                                 ctx.cov.gamma_prior)
        ctx2 = hs.HessianContext(mode=hs.MODE_IC, operator=K, layout=ctx.layout,
                                 cov=cov2, pol=POL)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(grid.n_x)
        assert_allclose(ctx2.apply(v), 2 * ctx.apply(v), rtol=1e-13)

    def test_matches_dense_oracle_gamma_one(self):
        cov = None  # construct explicitly with gamma_prior = 1
        grid = lp.build_grid(7)
        op = lp.assemble_heat(grid)
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(5))
        cov = hs.CovarianceSpec(beta_noise=1e4, beta_prior=1.0, gamma_prior=1.0)
        ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K,
                                layout=hs.full_observation(grid), cov=cov, pol=POL)
        Hd, _ = oracle.dense_misfit_ic(op.L.toarray(), grid.m_scale, K.time.tau,
                                       5, ctx.layout.mask, 1e4, 1.0)
        assert oracle.hv_agreement(ctx.apply, Hd, n_probe=20, seed=0) <= 1e-8

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 3)])
    def test_analytic_eigenpairs_full_observation(self, m, n):
        # scalar recursion in the eigenbasis: mu = g*bn*tau*M * sum theta^{2k}
        grid, op, K, ctx = _heat_ctx(7, 5)
        lam = lp.discrete_fd_eig(m, n, grid)
        theta = 1.0 / (1.0 + K.time.tau * lam)
        mu = (ctx.cov.gamma_prior * ctx.cov.beta_noise * K.time.tau * grid.m_scale
              * sum(theta ** (2 * k) for k in range(1, K.n_t + 1)))
        v = lp.eigvec_dense(m, n, grid)
        out = ctx.apply(v)
        assert np.linalg.norm(out - mu * v) <= 1e-8 * mu

    def test_rank_trace_bounded_across_nt(self):
        rng = np.random.default_rng(4)
        grid = lp.build_grid(15)
        v = rng.standard_normal(grid.n_x)
        maxima = []
        for n_t in (30, 60, 90):
            grid_, op, K, ctx = _heat_ctx(15, n_t,
                                          layout=hs.make_sensor_layout_3x3(grid))
            ctx.apply(v)
            maxima.append(ctx.rank_trace[0])
        assert max(maxima) <= 40
        assert max(maxima) - min(maxima) <= 5


class TestMisfitSpaceTimeSource:
    def _ctx(self, n_side=5, n_t=4):
        grid = lp.build_grid(n_side)
        op = lp.assemble_heat(grid)
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(n_t))
        cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                                layout=hs.full_observation(grid), cov=cov, pol=POL)
        return grid, K, ctx

    def test_zero_maps_to_rank_zero(self):
        grid, K, ctx = self._ctx()
        out = ctx.apply(lp.LowRankMat.zeros(grid.n_x, K.n_t))
        assert out.r == 0

    def test_symmetry_probe(self):
        grid = lp.build_grid(15)
        op = lp.assemble_heat(grid)
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(10))
        cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                                layout=hs.make_sensor_layout_3x3(grid),
                                cov=cov, pol=POL)
        rng = np.random.default_rng(5)
        a = lp.lr_truncate(lp.LowRankMat(rng.standard_normal((grid.n_x, 2)),
                                         rng.standard_normal((10, 2))), POL)
        b = lp.lr_truncate(lp.LowRankMat(rng.standard_normal((grid.n_x, 2)),
                                         rng.standard_normal((10, 2))), POL)
        Ha_b = lp.lr_dot(ctx.apply(a), b)
        a_Hb = lp.lr_dot(a, ctx.apply(b))
        scale = abs(Ha_b) + abs(a_Hb)
        assert abs(Ha_b - a_Hb) <= 1e-6 * scale

    def test_matches_dense_oracle(self):
        grid, K, ctx = self._ctx(5, 4)
        Hd, _ = oracle.dense_misfit_source(
            ctx.operator.spatial.L.toarray(), grid.m_scale, K.time.tau, 4,
            ctx.layout.mask, ctx.cov.beta_noise, ctx.cov.gamma_prior,
        )

        def apply_stacked(v):
            X = v.reshape((grid.n_x, K.n_t), order="F")
            out = ctx.apply(lp.lr_from_dense(X, POL))
            return lp.lr_to_dense(out).reshape(-1, order="F")

        assert oracle.hv_agreement(apply_stacked, Hd, n_probe=10, seed=1) <= 1e-7


class TestSteadyPoisson:
    def test_eigenpair_identity(self):
        grid = lp.build_grid(15)
        op = lp.assemble_heat(grid)
        cov = hs.CovarianceSpec(beta_noise=1e4, beta_prior=1.0, gamma_prior=1.0)
        for m, n in [(1, 1), (3, 2)]:
            v = lp.eigvec_dense(m, n, grid)
            mu = 1e-4 / lp.discrete_fd_eig(m, n, grid) ** 2
            out = hs.steady_poisson_apply(v, cov, op)
            assert np.linalg.norm(out - mu * v) <= 1e-10 * mu

    def test_continuum_value(self):
        # mu -> (beta_prior/beta_noise) / (2 pi^2)^2 = 2.56649e-7 as h -> 0
        target = 1e-4 / (2 * np.pi**2) ** 2
        assert_allclose(target, 2.5665e-7, rtol=1e-4)
        grid = lp.build_grid(127)
        mu_h = 1e-4 / lp.discrete_fd_eig(1, 1, grid) ** 2
        assert abs(mu_h - target) / target < 5e-3

    def test_zero_maps_to_zero(self):
        grid = lp.build_grid(9)
        op = lp.assemble_heat(grid)
        cov = hs.CovarianceSpec(1e4, 1.0, 1.0)
        assert np.linalg.norm(hs.steady_poisson_apply(np.zeros(grid.n_x), cov, op)) == 0.0

    def test_eigen_decay_ratio_squares(self):
        grid = lp.build_grid(15)
        lam1 = lp.discrete_fd_eig(1, 1, grid)
        for m, n in [(2, 2), (4, 1)]:
            lam = lp.discrete_fd_eig(m, n, grid)
            mu_ratio = (1e-4 / lam1**2) / (1e-4 / lam**2)
            assert_allclose(mu_ratio, (lam / lam1) ** 2, rtol=1e-8)

    def test_steady_mode_requires_heat(self):
        grid = lp.build_grid(5)
        cd = lp.assemble_convdiff(grid, 1e-2, (0.0, 1.0))
        cov = hs.CovarianceSpec(1e4, 1.0, 1.0)
        with pytest.raises(InvalidConfigError):
            hs.HessianContext(mode=hs.MODE_STEADY, operator=None, layout=None,
                              cov=cov, pol=POL, spatial=cd)


class TestOperatorProperties:
    def _contexts(self):
        grid, op, K, ctx_ic = _heat_ctx(7, 4, layout=None)
        steady = hs.HessianContext(
            mode=hs.MODE_STEADY, operator=None, layout=None,
            cov=hs.CovarianceSpec(1e4, 1.0, 1.0), pol=POL,
            spatial=lp.assemble_heat(lp.build_grid(7)),
        )
        return {"ic": (ctx_ic, grid.n_x), "steady": (steady, grid.n_x)}

    def test_self_adjointness(self):
        rng = np.random.default_rng(6)
        for name, (ctx, n) in self._contexts().items():
            for _ in range(5):
                u = rng.standard_normal(n)
                w = rng.standard_normal(n)
                Hu = ctx.apply(u)
                Hw = ctx.apply(w)
                gap = abs(float(Hu @ w) - float(u @ Hw))
                assert gap <= 1e-6 * np.linalg.norm(Hu) * np.linalg.norm(w), name

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for name, (ctx, n) in self._contexts().items():
            for _ in range(5):
                v = rng.standard_normal(n)
                assert float(v @ ctx.apply(v)) >= -1e-10 * float(v @ v), name

    @pytest.mark.parametrize("mode", [hs.MODE_IC, hs.MODE_SOURCE])
    def test_rank_trace_recorded_per_apply(self, mode):
        grid, op, K, ic_ctx = _heat_ctx(7, 5)
        ctx = hs.HessianContext(mode=mode, operator=K, layout=ic_ctx.layout,
                                cov=ic_ctx.cov, pol=POL)
        if mode == hs.MODE_IC:
            v = np.ones(grid.n_x)
        else:
            v = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((K.n_t, 1)))
        ctx.apply(v)
        ctx.apply(v)
        assert len(ctx.rank_trace) == 2 and all(r >= 1 for r in ctx.rank_trace)

    def _spied_apply(self, monkeypatch, mode):
        """One apply on the nine-patch layout; returns the context, the panes
        the two sweeps returned and the shapes passed to hessian.lr_truncate."""
        grid = lp.build_grid(15)
        K = lp.SpaceTimeOperator(lp.assemble_heat(grid), lp.build_time_grid(12))
        ctx = hs.HessianContext(mode=mode, operator=K, layout=hs.make_sensor_layout_3x3(grid),
                                cov=hs.CovarianceSpec.from_gamma(10.0, 1e4, grid), pol=POL)
        panes, truncations = [], []

        def keep_pane(fn):
            def spy(*args, **kwargs):
                panes.append(fn(*args, **kwargs))
                return panes[-1]
            return spy

        def count(A, pol):
            truncations.append(A.shape)
            return lp.lr_truncate(A, pol)

        monkeypatch.setattr(hs, "st_solve_sweep", keep_pane(hs.st_solve_sweep))
        monkeypatch.setattr(hs, "st_solve_adjoint_sweep", keep_pane(hs.st_solve_adjoint_sweep))
        monkeypatch.setattr(hs, "lr_truncate", count)
        rng = np.random.default_rng(13)
        if mode == hs.MODE_IC:
            ctx.apply(rng.standard_normal(grid.n_x))
        else:
            ctx.apply(lp.LowRankMat(rng.standard_normal((grid.n_x, 2)),
                                    rng.standard_normal((K.n_t, 2))))
        return ctx, panes, truncations

    @pytest.mark.parametrize("mode", [hs.MODE_IC, hs.MODE_SOURCE])
    def test_apply_recompresses_no_canonical_field(self, monkeypatch, mode):
        # the sweeps return canonical panes; only their flushes truncate
        _, panes, truncations = self._spied_apply(monkeypatch, mode)
        assert len(panes) == 2 and truncations == []

    @pytest.mark.parametrize("mode", [hs.MODE_IC, hs.MODE_SOURCE])
    def test_rank_trace_is_the_larger_stored_pane_rank(self, monkeypatch, mode):
        ctx, (Y, Q), _ = self._spied_apply(monkeypatch, mode)
        assert Y.r >= 1 and Q.r >= 1
        assert ctx.rank_trace == [max(Y.r, Q.r)]

    @pytest.mark.parametrize("mode", [hs.MODE_IC, hs.MODE_SOURCE])
    def test_empty_mask_gives_zero_apply(self, mode):
        grid, op, K, _ = _heat_ctx(7, 5)
        empty = hs.SensorLayout(patches=(), mask=np.zeros(grid.n_x, bool))
        ctx = hs.HessianContext(mode=mode, operator=K, layout=empty,
                                cov=hs.CovarianceSpec(1e4, 1.0, 1.0), pol=POL)
        if mode == hs.MODE_IC:
            out = ctx.apply(np.ones(grid.n_x))
            assert out.shape == (grid.n_x,) and not out.any()
        else:
            out = ctx.apply(lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((K.n_t, 1))))
            assert out.r == 0 and out.shape == (grid.n_x, K.n_t)
        assert ctx.rank_trace == [0]

    def test_n_param_is_the_parameter_dimension(self):
        grid, op, K, ic_ctx = _heat_ctx(7, 5)
        source = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K, layout=ic_ctx.layout,
                                   cov=ic_ctx.cov, pol=POL)
        steady = self._contexts()["steady"][0]
        assert (ic_ctx.n_param, source.n_param, steady.n_param) == \
            (grid.n_x, grid.n_x * K.n_t, grid.n_x)
