import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrpostcov.errors import NumericalError
from lrpostcov.lowrank import (
    LowRankMat,
    TruncationPolicy,
    lr_add,
    lr_dot,
    lr_from_dense,
    lr_norm,
    lr_scale,
    lr_singular_values,
    lr_sum,
    lr_to_dense,
    lr_truncate,
)

POL = TruncationPolicy(eps0=1e-8)


def _random_lowrank(rng, n, m, r):
    return LowRankMat(rng.standard_normal((n, r)), rng.standard_normal((m, r)))


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(eps0=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(eps0=1.5)
    with pytest.raises(ValueError):
        TruncationPolicy(eps0=1e-8, r_max=-1)


def test_factor_shape_validation():
    with pytest.raises(ValueError):
        LowRankMat(np.zeros((4, 2)), np.zeros((5, 3)))


def test_truncate_rank1_is_exact():
    rng = np.random.default_rng(0)
    A = _random_lowrank(rng, 30, 20, 1)
    out = lr_truncate(A, POL)
    assert out.r == 1
    assert np.abs(lr_to_dense(out) - lr_to_dense(A)).max() < 1e-13 * lr_norm(A)


def test_truncate_discards_constructed_tail():
    # u·vᵀ + 1e-12·p·qᵀ with orthogonal unit factors: exactly one survivor
    n, m = 12, 9
    u = np.zeros(n); u[0] = 1.0
    p = np.zeros(n); p[1] = 1.0
    v = np.zeros(m); v[0] = 1.0
    q = np.zeros(m); q[1] = 1.0
    A = LowRankMat(np.column_stack([u, 1e-12 * p]), np.column_stack([v, q]))
    out = lr_truncate(A, POL)
    assert out.r == 1
    assert abs(np.linalg.norm(lr_to_dense(A) - lr_to_dense(out)) - 1e-12) < 1e-18


def test_from_dense_roundtrip_rank20():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 20)) @ rng.standard_normal((20, 40))
    A = lr_from_dense(X, POL)
    assert A.r == 20
    assert np.linalg.norm(lr_to_dense(A) - X) <= 1e-8 * np.linalg.norm(X)


@pytest.mark.parametrize("eps0", [1e-2, 1e-5, 1e-8])
def test_truncation_contract_random_instances(eps0):
    rng = np.random.default_rng(2)
    pol = TruncationPolicy(eps0=eps0)
    for n, m, r in [(200, 150, 40), (60, 200, 25), (35, 35, 35)]:
        A = _random_lowrank(rng, n, m, r)
        # give the spectrum some decay so truncation has work to do
        A = LowRankMat(A.W1 * np.logspace(0, -9, r), A.W2)
        out = lr_truncate(A, pol)
        err = np.linalg.norm(lr_to_dense(A) - lr_to_dense(out))
        assert err <= eps0 * lr_norm(A) * (1 + 1e-12)


def test_canonical_form():
    rng = np.random.default_rng(3)
    out = lr_truncate(_random_lowrank(rng, 40, 30, 8), POL)
    assert_allclose(out.W1.T @ out.W1, np.eye(out.r), atol=1e-13)
    s = np.linalg.norm(out.W2, axis=0)
    assert (np.diff(s) <= 1e-13 * s[0]).all() and (s > 0).all()
    gram = out.W2.T @ out.W2
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-12 * s[0] ** 2


def test_canonical_idempotence():
    rng = np.random.default_rng(4)
    A = lr_truncate(_random_lowrank(rng, 50, 45, 12), POL)
    B = lr_truncate(A, POL)
    assert B.r == A.r
    assert np.abs(B.W1 - A.W1).max() < 1e-14
    assert np.abs(B.W2 - A.W2).max() < 1e-14 * np.linalg.norm(A.W2, axis=0)[0]


def test_truncate_zero_matrix():
    A = LowRankMat(np.zeros((10, 2)), np.zeros((8, 2)))
    assert lr_truncate(A, POL).r == 0
    assert lr_truncate(LowRankMat.zeros(10, 8), POL).r == 0


def test_rank_cap():
    rng = np.random.default_rng(5)
    A = _random_lowrank(rng, 30, 30, 10)
    out = lr_truncate(A, TruncationPolicy(eps0=1e-12, r_max=4))
    assert out.r == 4


def test_add_is_exact_concatenation():
    rng = np.random.default_rng(6)
    A = _random_lowrank(rng, 25, 18, 3)
    B = _random_lowrank(rng, 25, 18, 3)
    C = lr_add(A, B)
    assert C.r == 6
    assert np.abs(lr_to_dense(C) - (lr_to_dense(A) + lr_to_dense(B))).max() < 1e-14


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        lr_add(LowRankMat.zeros(4, 5), LowRankMat.zeros(4, 6))


def test_add_cancellation_truncates_to_zero():
    rng = np.random.default_rng(7)
    A = _random_lowrank(rng, 20, 15, 2)
    assert lr_truncate(lr_add(A, lr_scale(A, -1.0)), POL).r == 0


def test_add_shared_spatial_factor_truncates_to_rank1():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((20, 1))
    A = LowRankMat(w, rng.standard_normal((15, 1)))
    B = LowRankMat(w, rng.standard_normal((15, 1)))
    assert lr_truncate(lr_add(A, B), POL).r == 1


def _assert_sum_exact(terms, coeffs):
    S = lr_sum(terms, coeffs)
    ref = sum(c * lr_to_dense(A) for A, c in zip(terms, coeffs))
    assert np.linalg.norm(lr_to_dense(S) - ref) <= 1e-12 * np.linalg.norm(ref)
    return S


@pytest.mark.parametrize("n, m, ranks", [
    (40, 12, (5, 6, 7)),    # sum of ranks above n_t: capped at n_t
    (40, 30, (2, 3)),       # sum of ranks below n_t: rank is the sum
    (9, 25, (4, 4, 4)),     # n_x < n_t: the spatial factors are the ones stacked
])
def test_sum_matches_dense_in_bounded_rank(n, m, ranks):
    rng = np.random.default_rng(15)
    terms = [_random_lowrank(rng, n, m, r) for r in ranks]
    S = _assert_sum_exact(terms, rng.standard_normal(len(terms)))
    assert S.r == min(n, m, sum(ranks))
    Q = S.W2 if m <= n else S.W1  # the stacked side comes out orthonormal
    assert_allclose(Q.T @ Q, np.eye(S.r), atol=1e-13)


def test_sum_skips_zero_rank_terms_and_zero_coefficients():
    rng = np.random.default_rng(16)
    A, B = _random_lowrank(rng, 20, 15, 2), _random_lowrank(rng, 20, 15, 3)
    Z = LowRankMat.zeros(20, 15)
    S = _assert_sum_exact([Z, A, B, Z], [1.0, 0.5, 0.0, -2.0])
    assert S.r == 2
    assert lr_sum([Z, B], [1.0, 0.0]).r == 0


def test_sum_exact_cancellation_truncates_to_zero():
    rng = np.random.default_rng(17)
    for v in (_random_lowrank(rng, 20, 15, 4), lr_truncate(_random_lowrank(rng, 20, 15, 4), POL)):
        assert lr_truncate(lr_sum([v, v], [1.0, -1.0]), POL).r == 0


def test_sum_validation():
    with pytest.raises(ValueError):
        lr_sum([LowRankMat.zeros(4, 5), LowRankMat.zeros(4, 6)], [1.0, 1.0])
    with pytest.raises(ValueError):
        lr_sum([LowRankMat.zeros(4, 5)], [1.0, 2.0])


def test_dot_unit_cases():
    e = lambda n, i: np.eye(n)[:, [i]]
    A = LowRankMat(e(5, 0), e(4, 0))
    B = LowRankMat(e(5, 0), e(4, 0))
    C = LowRankMat(e(5, 1), e(4, 0))
    assert lr_dot(A, B) == 1.0
    assert lr_dot(A, C) == 0.0


def test_dot_matches_dense():
    rng = np.random.default_rng(9)
    A = _random_lowrank(rng, 30, 22, 2)
    B = _random_lowrank(rng, 30, 22, 2)
    ref = float(np.sum(lr_to_dense(A) * lr_to_dense(B)))
    assert abs(lr_dot(A, B) - ref) <= 1e-13 * abs(ref)


def test_dot_bilinear_and_symmetric():
    rng = np.random.default_rng(10)
    for _ in range(10):
        A = _random_lowrank(rng, 15, 12, 3)
        B = _random_lowrank(rng, 15, 12, 2)
        C = _random_lowrank(rng, 15, 12, 2)
        a, b = rng.standard_normal(2)
        lhs = lr_dot(A, lr_add(lr_scale(B, a), lr_scale(C, b)))
        rhs = a * lr_dot(A, B) + b * lr_dot(A, C)
        scale = abs(lhs) + abs(rhs) + 1e-30
        assert abs(lhs - rhs) / scale < 1e-13
        assert abs(lr_dot(A, B) - lr_dot(B, A)) <= 1e-13 * (abs(lr_dot(A, B)) + 1e-30)


def test_norm_and_scale_edge_cases():
    assert lr_norm(LowRankMat.zeros(7, 6)) == 0.0
    rng = np.random.default_rng(11)
    A = _random_lowrank(rng, 7, 6, 2)
    assert lr_scale(A, 0.0).r == 0
    assert_allclose(lr_norm(lr_scale(A, -2.0)), 2 * lr_norm(A), rtol=1e-13)
    assert_allclose(lr_norm(A), np.linalg.norm(lr_to_dense(A)), rtol=1e-12)


def test_from_dense_to_dense_roundtrip_within_eps():
    rng = np.random.default_rng(12)
    A = lr_truncate(_random_lowrank(rng, 40, 28, 6), POL)
    X = lr_to_dense(A)
    B = lr_from_dense(X, POL)
    assert np.linalg.norm(lr_to_dense(B) - X) <= 1e-8 * np.linalg.norm(X)


def test_singular_values_match_dense():
    rng = np.random.default_rng(13)
    A = _random_lowrank(rng, 26, 19, 5)
    assert_allclose(
        lr_singular_values(A),
        np.linalg.svd(lr_to_dense(A), compute_uv=False)[:5],
        rtol=1e-11,
    )


def test_column_extraction():
    rng = np.random.default_rng(14)
    A = _random_lowrank(rng, 9, 7, 3)
    assert_allclose(A.column(4), lr_to_dense(A)[:, 4], rtol=1e-13)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [1e200, np.nan])
def test_overflowing_or_nan_factors_raise_numerical_error(bad):
    # an overflowing norm product would pass the noise-floor test and turn
    # the field into zero
    A = LowRankMat(np.array([[bad], [1.0]]), np.array([[1e200], [1.0]]))
    with pytest.raises(NumericalError):
        lr_truncate(A, TruncationPolicy())
    with pytest.raises(NumericalError):
        lr_sum([A, A], [1.0, 2.0])
