import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrpostcov import discretize as dz
from lrpostcov.errors import InvalidConfigError


def test_build_grid_mesh_sizes():
    g = dz.build_grid(3)
    assert g.h == 0.25 and g.n_x == 9
    assert dz.build_grid(63).h == 1 / 64 and dz.build_grid(63).n_x == 3969
    assert dz.build_grid(31).h == 1 / 32 and dz.build_grid(31).n_x == 961


def test_build_grid_rejects_degenerate():
    with pytest.raises(InvalidConfigError):
        dz.build_grid(1)


@pytest.mark.parametrize("bad", [31.5, 5.5, 2.0000001, float("nan"), float("inf"), "31", None])
def test_builders_refuse_a_size_that_is_not_a_whole_number(bad):
    # int() would round 31.5 down to a 31-side grid with h = 1/32.5, and a
    # 5.5-step grid to 5 steps of T/5.5, so tau·n_t != T
    for build in (dz.build_grid, dz.build_time_grid):
        with pytest.raises(InvalidConfigError, match="must be an integer"):
            build(bad)


@pytest.mark.parametrize("wind", [(0.5,), (0.0, 1.0, 5.0)])
def test_convdiff_refuses_a_wind_that_is_not_two_components(wind):
    # a third component used to be dropped, and a single one raised IndexError
    with pytest.raises(InvalidConfigError, match="wind must be two finite numbers"):
        dz.assemble_convdiff(dz.build_grid(5), 0.01, wind)


def test_builders_take_an_integral_float_or_a_numpy_integer_as_the_int():
    assert dz.build_grid(31.0) == dz.build_grid(np.int64(31)) == dz.build_grid(31)
    assert type(dz.build_grid(np.int64(31)).n_side) is int
    assert dz.build_time_grid(5.0, 2.0) == dz.build_time_grid(np.int32(5), 2.0) \
        == dz.build_time_grid(5, 2.0)


def test_grid_coords_match_indexing():
    g = dz.build_grid(4)
    x1, x2 = g.coords()
    k = 1 * g.n_side + 2  # dof (i, j) = (2, 1): x1 runs fastest
    assert_allclose([x1[k], x2[k]], [3 * g.h, 2 * g.h])


def test_heat_diagonal_entries():
    op = dz.assemble_heat(dz.build_grid(3))
    assert_allclose(op.L.diagonal(), 64.0)  # 4/h² at h = 1/4


def test_heat_exactly_symmetric():
    op = dz.assemble_heat(dz.build_grid(6))
    assert (op.L - op.L.T).nnz == 0


def test_heat_smallest_eigenvalue_matches_dense():
    g = dz.build_grid(3)
    dense_eigs = np.linalg.eigvalsh(dz.assemble_heat(g).L.toarray())
    assert_allclose(dense_eigs[0], dz.discrete_fd_eig(1, 1, g), rtol=1e-12)
    assert_allclose(dense_eigs[0], 18.745, atol=5e-4)


def test_heat_action_on_ones_vanishes_in_interior():
    g = dz.build_grid(5)
    r = dz.assemble_heat(g).L @ np.ones(g.n_x)
    for k in range(g.n_x):
        j, i = divmod(k, g.n_side)  # x1 runs fastest
        near_boundary = i in (0, g.n_side - 1) or j in (0, g.n_side - 1)
        if near_boundary:
            assert r[k] > 0
        else:
            assert r[k] == 0.0


def test_convdiff_zero_wind_is_scaled_laplacian():
    g = dz.build_grid(4)
    heat = dz.assemble_heat(g)
    assert (dz.assemble_convdiff(g, 1.0, (0.0, 0.0)).L - heat.L).nnz == 0
    diff = dz.assemble_convdiff(g, 0.37, (0.0, 0.0)).L - 0.37 * heat.L
    assert np.abs(diff.toarray()).max() < 1e-14


def test_convdiff_rejects_nonpositive_nu():
    g = dz.build_grid(4)
    for nu in (0.0, -1.0):
        with pytest.raises(InvalidConfigError):
            dz.assemble_convdiff(g, nu, (0.0, 1.0))


@pytest.mark.parametrize("wind", [(0.0, 1.0), (1.0, 0.0), (-1.0, 0.5), (0.3, -0.7)])
def test_upwind_convection_row_sums_nonnegative(wind):
    g = dz.build_grid(3)
    conv = dz.assemble_convdiff(g, 1e-2, wind).L - 1e-2 * dz.assemble_heat(g).L
    assert np.asarray(conv.sum(axis=1)).ravel().min() >= -1e-12


def test_convdiff_symmetric_part_positive_definite():
    g = dz.build_grid(15)
    L = dz.assemble_convdiff(g, 1e-2, (0.0, 1.0)).L.toarray()
    assert np.linalg.eigvalsh(0.5 * (L + L.T))[0] > 0


def test_convdiff_bandwidth():
    op = dz.assemble_convdiff(dz.build_grid(8), 1e-2, (0.4, 1.0))
    assert np.diff(op.L.indptr).max() <= 5  # 5-point coupling pattern


def test_analytic_poisson_eig_values():
    assert_allclose(dz.analytic_poisson_eig(1, 1), 2 * np.pi**2, rtol=1e-15)
    assert_allclose(dz.analytic_poisson_eig(2, 1), 5 * np.pi**2, rtol=1e-15)
    for m, n in [(0, 1), (1, 0)]:
        with pytest.raises(InvalidConfigError, match="need m, n >= 1"):
            dz.analytic_poisson_eig(m, n)


def test_discrete_eig_matches_dense_eigensolve():
    g = dz.build_grid(3)
    dense = np.sort(np.linalg.eigvalsh(dz.assemble_heat(g).L.toarray()))
    formula = np.sort([dz.discrete_fd_eig(m, n, g)
                       for m in range(1, 4) for n in range(1, 4)])
    assert_allclose(formula, dense, rtol=1e-12)


def test_discrete_eig_continuum_limit():
    g = dz.build_grid(255)
    assert abs(dz.discrete_fd_eig(1, 1, g) - 2 * np.pi**2) / (2 * np.pi**2) < 1e-3


def test_discrete_eig_strictly_increasing():
    g = dz.build_grid(9)
    for m in range(1, 9):
        assert dz.discrete_fd_eig(m + 1, 3, g) > dz.discrete_fd_eig(m, 3, g)
        assert dz.discrete_fd_eig(3, m + 1, g) > dz.discrete_fd_eig(3, m, g)


def test_discrete_eig_index_bounds():
    g = dz.build_grid(4)
    for m, n in [(0, 1), (1, 0), (5, 1), (1, 5)]:
        with pytest.raises(InvalidConfigError):
            dz.discrete_fd_eig(m, n, g)


def test_separable_eigvec_first_mode_positive():
    g = dz.build_grid(7)
    assert (dz.eigvec_dense(1, 1, g) > 0).all()


def test_separable_eigvec_reflection_antisymmetry():
    g = dz.build_grid(7)
    v = dz.eigvec_dense(2, 1, g).reshape(g.n_side, g.n_side)
    # mode index 2 along x1 flips sign under the lattice reflection i -> n-1-i
    assert_allclose(v, -v[:, ::-1], atol=1e-14)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 5), (7, 1)])
def test_eigvec_is_exact_eigenpair(m, n):
    g = dz.build_grid(7)
    op = dz.assemble_heat(g)
    v = dz.eigvec_dense(m, n, g)
    lam = dz.discrete_fd_eig(m, n, g)
    assert np.linalg.norm(op.L @ v - lam * v) / lam <= 1e-12
    assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-13)

