import numpy as np
import pytest
import scipy.sparse.linalg as spla
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
    def test_from_gamma_implements_the_identity(self):
        grid = lp.build_grid(31)
        a = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        assert a.gamma_prior == 10.0
        assert_allclose(a.gamma_prior * a.beta_prior * grid.m_scale, 1.0, rtol=1e-14)
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


DATA_SIDE_PROBLEMS = {"heat": None, "convdiff-x1": (1.0, 0.0)}


class TestDataSide:
    """Source mode under a strict-subset layout: D = c·S·K⁻¹·K⁻ᵀ·Sᵀ on the observed rows."""

    @pytest.fixture(params=sorted(DATA_SIDE_PROBLEMS))
    def setup(self, request):
        wind = DATA_SIDE_PROBLEMS[request.param]
        grid = lp.build_grid(7)
        op = lp.assemble_heat(grid) if wind is None else lp.assemble_convdiff(grid, 1e-2, wind)
        K = lp.SpaceTimeOperator(op, lp.build_time_grid(4))
        layout = hs.make_sensor_layout([(0.3, 0.4, 0.3), (0.75, 0.7, 0.15)], grid)
        cov = hs.CovarianceSpec.from_gamma(10.0, 1e4, grid)
        ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K, layout=layout, cov=cov,
                                pol=POL)
        scale = K.time.tau * grid.m_scale
        a = np.sqrt(cov.gamma_prior * scale**2 * cov.beta_noise * scale)
        return ctx, op.L.toarray(), a

    @staticmethod
    def _dense(ctx, L, F, adjoint):
        return oracle.dense_forward(L, ctx.operator.m_scale, ctx.operator.time.tau, F,
                                    adjoint=adjoint)

    def _embed(self, ctx, U):
        """Sᵀ: data-side fields (n_active, n_t, ...) as zero-embedded n_x-row fields."""
        F = np.zeros((ctx.operator.n_x, *U.shape[1:]))
        F[ctx.layout.mask] = U
        return F

    def test_the_context_runs_on_the_data_side(self, setup):
        ctx, _, _ = setup
        n_active, n_t = ctx.layout.n_active, ctx.operator.n_t
        assert ctx.data_side and 0 < n_active < ctx.operator.n_x
        assert ctx.krylov_dim == n_active * n_t and ctx.n_param == ctx.operator.n_x * n_t

    def test_apply_matches_the_dense_data_side_operator(self, setup):
        ctx, L, a = setup
        n_active, n_t = ctx.layout.n_active, ctx.operator.n_t
        dim = n_active * n_t
        E = np.eye(dim).reshape((n_active, n_t, dim), order="F")
        Y = self._dense(ctx, L, self._dense(ctx, L, self._embed(ctx, E), True), False)
        D = a**2 * Y[ctx.layout.mask].reshape((dim, dim), order="F")
        assert np.abs(D - D.T).max() <= 1e-12 * np.abs(D).max()
        assert oracle.hv_agreement(ctx.apply, D, n_probe=10, seed=2) <= 1e-7
        assert len(ctx.rank_trace) == 10 and min(ctx.rank_trace) >= 1

    def test_each_recorded_image_is_the_scaled_adjoint_of_its_vector(self, setup):
        ctx, L, a = setup
        n_active, n_t = ctx.layout.n_active, ctx.operator.n_t
        rng = np.random.default_rng(3)
        us = [rng.standard_normal(n_active * n_t) for _ in range(3)]
        images = []
        for u in us:
            ctx.apply(u, images)
        ctx.apply(us[0])  # no list given: nothing recorded
        assert len(images) == 3
        for u, image in zip(us, images):
            U = u.reshape((n_active, n_t), order="F")
            want = a * self._dense(ctx, L, self._embed(ctx, U), True)
            assert isinstance(image, lp.LowRankMat) and image.shape == want.shape
            assert np.linalg.norm(lp.lr_to_dense(image) - want) <= 1e-7 * np.linalg.norm(want)

    def test_a_low_rank_field_still_gets_the_parameter_side_hessian(self, setup):
        ctx, L, _ = setup
        K = ctx.operator
        Hd, _ = oracle.dense_misfit_source(L, K.m_scale, K.time.tau, K.n_t, ctx.layout.mask,
                                           ctx.cov.beta_noise, ctx.cov.gamma_prior)

        def apply_stacked(v):
            X = v.reshape((K.n_x, K.n_t), order="F")
            out = ctx.apply(lp.lr_from_dense(X, POL))
            assert isinstance(out, lp.LowRankMat)
            return lp.lr_to_dense(out).reshape(-1, order="F")

        assert oracle.hv_agreement(apply_stacked, Hd, n_probe=10, seed=4) <= 1e-7

    def test_refuses_a_vector_of_the_wrong_side_or_length(self, setup):
        ctx, _, _ = setup
        K = ctx.operator
        with pytest.raises(ValueError):
            ctx.apply(np.ones(ctx.layout.n_active * K.n_t + 1))
        full = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                                 layout=hs.full_observation(K.spatial.grid), cov=ctx.cov,
                                 pol=POL)
        assert not full.data_side and full.krylov_dim == full.n_param
        with pytest.raises(ValueError):
            full.apply(np.ones(K.n_x * K.n_t))


def _spy_transforms(monkeypatch):
    """Record each StepSolver.to_modal / from_modal call as (direction, columns,
    full-row, sweep), sweep being the hessian sweep it ran inside, or None."""
    calls, inside = [], [None]

    def spy(name):
        original = getattr(hs.StepSolver, name)

        def transform(self, B, restriction=None):
            calls.append((name, B.shape[1], restriction is None, inside[0]))
            return original(self, B, restriction)
        return transform

    def tag(name):
        original = getattr(hs, name)

        def sweep(*args, **kwargs):
            inside[0] = name
            try:
                return original(*args, **kwargs)
            finally:
                inside[0] = None
        return sweep

    for name in ("to_modal", "from_modal"):
        monkeypatch.setattr(hs.StepSolver, name, spy(name))
    for name in ("st_solve_sweep", "st_solve_adjoint_sweep"):
        monkeypatch.setattr(hs, name, tag(name))
    return calls


@pytest.mark.parametrize("wind", [None, (0.0, 1.0), (0.3, -0.7)])
def test_a_full_observation_ic_apply_transforms_one_column_each_way(monkeypatch, wind):
    # the forward pane reaches the adjoint sweep in modal coordinates, and only
    # the adjoint field's column at time 0 is transformed back; passing each
    # full-row pane through the grid would transform 1 + r_Y columns in and
    # r_Y + r_Q out.  Default wind (0, 1) takes the transposed one-axis
    # layout, and (0.3, -0.7) the sparse LU, whose transforms are copies.
    grid = lp.build_grid(15)
    op = lp.assemble_heat(grid) if wind is None else lp.assemble_convdiff(grid, 1e-2, wind)
    K = lp.SpaceTimeOperator(op, lp.build_time_grid(12))
    ctx = hs.HessianContext(mode=hs.MODE_IC, operator=K, layout=hs.full_observation(grid),
                            cov=hs.CovarianceSpec.from_gamma(10.0, 1e4, grid), pol=POL)
    v = np.random.default_rng(14).standard_normal(grid.n_x)
    want = ctx.apply(v)
    calls = _spy_transforms(monkeypatch)
    got = ctx.apply(v)
    assert ctx.rank_trace[-1] >= 2  # both panes hold more than the one column
    assert [c[:3] for c in calls] == [("to_modal", 1, True), ("from_modal", 1, True)]
    assert all(sweep is None for *_, sweep in calls)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("record", [False, True])
def test_a_data_side_apply_hands_its_image_over_in_modal_coordinates(monkeypatch, record):
    # the adjoint sweep transforms its rhs of the observed rows, and its
    # full-row image goes to the forward sweep as it is, which transforms back
    # only the observed rows of its chunks.  The image is transformed back as
    # a whole only when it is recorded.
    grid = lp.build_grid(15)
    K = lp.SpaceTimeOperator(lp.assemble_convdiff(grid, 1e-2, (1.0, 0.0)),
                             lp.build_time_grid(12))
    ctx = hs.HessianContext(mode=hs.MODE_SOURCE, operator=K,
                            layout=hs.make_sensor_layout_3x3(grid),
                            cov=hs.CovarianceSpec.from_gamma(10.0, 1e4, grid), pol=POL)
    u = np.random.default_rng(15).standard_normal(ctx.krylov_dim)
    images = [] if record else None
    calls = _spy_transforms(monkeypatch)
    ctx.apply(u, images)
    to_modal = [c for c in calls if c[0] == "to_modal"]
    assert to_modal == [("to_modal", K.n_t, False, "st_solve_adjoint_sweep")]
    full_rows = [c for c in calls if c[0] == "from_modal" and c[2]]
    if record:
        assert full_rows == [("from_modal", images[0].r, True, None)]
    else:
        assert full_rows == []
    assert all(sweep == "st_solve_sweep" for name, _, full_row, sweep in calls
               if name == "from_modal" and not full_row)


def _steady_ctx(grid):
    cov = hs.CovarianceSpec(beta_noise=1e4, beta_prior=1.0, gamma_prior=1.0)
    return hs.HessianContext(mode=hs.MODE_STEADY, operator=None, layout=None, cov=cov,
                             pol=POL, spatial=lp.assemble_heat(grid))


class TestSteadyPoisson:
    def test_eigenpair_identity(self):
        grid = lp.build_grid(15)
        ctx = _steady_ctx(grid)
        for m, n in [(1, 1), (3, 2)]:
            v = lp.eigvec_dense(m, n, grid)
            mu = 1e-4 / lp.discrete_fd_eig(m, n, grid) ** 2
            out = ctx.apply(v)
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
        assert np.linalg.norm(_steady_ctx(grid).apply(np.zeros(grid.n_x))) == 0.0

    def test_eigen_decay_ratio_squares(self):
        grid = lp.build_grid(15)
        lam1 = lp.discrete_fd_eig(1, 1, grid)
        for m, n in [(2, 2), (4, 1)]:
            lam = lp.discrete_fd_eig(m, n, grid)
            mu_ratio = (1e-4 / lam1**2) / (1e-4 / lam**2)
            assert_allclose(mu_ratio, (lam / lam1) ** 2, rtol=1e-8)

    def test_apply_matches_two_sparse_solves(self, monkeypatch):
        grid = lp.build_grid(31)
        monkeypatch.setattr(spla, "splu", None)  # the diagonal kernel builds no LU
        ctx = _steady_ctx(grid)
        v = np.random.default_rng(30).standard_normal(grid.n_x)
        L = ctx.spatial.L.tocsc()
        want = 1e-4 * spla.spsolve(L, spla.spsolve(L, v))
        assert_allclose(ctx.apply(v), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_context_without_its_operators_is_refused(self):
        grid, _, K, ctx = _heat_ctx(5, 3)
        cov = hs.CovarianceSpec(1e4, 1.0, 1.0)
        with pytest.raises(InvalidConfigError, match="steady mode needs a spatial operator"):
            hs.HessianContext(mode=hs.MODE_STEADY, operator=None, layout=None,
                              cov=cov, pol=POL, spatial=None)
        for operator, layout in [(None, ctx.layout), (K, None)]:
            with pytest.raises(InvalidConfigError, match="needs operator and layout"):
                hs.HessianContext(mode=hs.MODE_IC, operator=operator, layout=layout,
                                  cov=cov, pol=POL)

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

    @pytest.mark.parametrize("mode", [hs.MODE_IC, hs.MODE_SOURCE, hs.MODE_STEADY])
    def test_rank_trace_recorded_per_apply(self, mode):
        grid, op, K, ic_ctx = _heat_ctx(7, 5)
        ctx = hs.HessianContext(mode=mode, operator=K, layout=ic_ctx.layout,
                                cov=ic_ctx.cov, pol=POL, spatial=op)
        if mode == hs.MODE_SOURCE:
            v = lp.LowRankMat(np.ones((grid.n_x, 1)), np.ones((K.n_t, 1)))
        else:
            v = np.ones(grid.n_x)
        ctx.apply(v)
        ctx.apply(v)
        if mode == hs.MODE_STEADY:  # stores no pane, but still counts the apply
            assert ctx.rank_trace == [0, 0]
        else:
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
