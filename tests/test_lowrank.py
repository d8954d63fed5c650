import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrpostcov import lowrank
from lrpostcov.errors import NumericalError
from lrpostcov.lowrank import (
    NOISE_FLOOR,
    LowRankMat,
    TruncationPolicy,
    _qr,
    _rank_cut,
    lr_add,
    lr_dot,
    lr_from_dense,
    lr_norm,
    lr_scale,
    lr_singular_values,
    lr_sums,
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


def test_factor_shape_validation():
    # factors must be matrices: promoting 1-D factors to rows would read two
    # length-5 vectors as a 1 x 1 field of rank 5
    for W1, W2 in [(np.zeros((4, 2)), np.zeros((5, 3))), (np.ones(5), np.ones(5)),
                   (np.ones((5, 1)), np.ones(5)), (np.ones(5), np.ones((5, 1))), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="inconsistent"):
            LowRankMat(W1, W2)


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


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("eps0", [1e-8, 1e-13])
@pytest.mark.parametrize("n, m", [(60, 20), (20, 60), (24, 24)], ids=["tall", "wide", "square"])
def test_truncate_agrees_with_a_dense_svd_on_graded_spectra(n, m, eps0, scale):
    # singular values graded from 1 down to 1e-14, on a tall, a wide and a
    # square field whose factors are square or tall (so one, the other or
    # neither takes a QR), scaled far from 1: the rank, the singular values
    # and the field are those of numpy's SVD of the dense field cut by the
    # same rule, up to rounding of σ₁
    rng = np.random.default_rng(40)
    p = min(n, m)
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    V = np.linalg.qr(rng.standard_normal((m, p)))[0]
    A = LowRankMat(scale * U * np.logspace(0, -14, p), V)
    pol = TruncationPolicy(eps0=eps0)
    out = lr_truncate(A, pol)
    X = lr_to_dense(A)
    Ur, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = _rank_cut(s, pol)
    assert out.r == r
    s = s / scale  # compared at unit scale, where numpy's norms square nothing to 0
    assert_allclose(np.linalg.norm(out.W2 / scale, axis=0), s[:r], rtol=0, atol=1e-13 * s[0])
    assert_allclose(out.W1.T @ out.W1, np.eye(r), rtol=0, atol=1e-13)
    ref = (Ur[:, :r] * s[:r]) @ Vt[:r]
    assert np.linalg.norm(lr_to_dense(out) / scale - ref) <= 1e-13 * s[0]


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_truncate_of_a_field_with_no_rows_or_times_is_zero(shape):
    # an empty-mask apply truncates fields of no rows: gesdd refuses an
    # empty core (info -5), and such a field is zero at any rank
    A = LowRankMat(np.ones((shape[0], 3)), np.ones((shape[1], 3)))
    out = lr_truncate(A, POL)
    assert out.r == 0 and out.shape == shape


def test_truncate_raises_numerical_error_when_the_svd_fails(monkeypatch):
    def failing(a, *args, **kwargs):
        return np.zeros((len(a), 0)), np.zeros(0), np.zeros((0, a.shape[1])), 3

    monkeypatch.setattr(lowrank.lapack, "dgesdd", failing)
    with pytest.raises(NumericalError, match="gesdd info=3"):
        lr_truncate(_random_lowrank(np.random.default_rng(41), 20, 10, 4), POL)


def _rank_cut_reference(s, eps0):
    """The rank cut over the whole spectrum with σ < NOISE_FLOOR·σ₁ set to zero.

    A searchsorted of eps0·‖σ‖ in the descending tail norms, capped at the
    count of nonzero σ.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0
    s = s / s[0]
    s = np.where(s < NOISE_FLOOR, 0.0, s)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    keep = int(np.searchsorted(-tail, -eps0 * tail[0], side="left"))
    return min(keep, int(np.count_nonzero(s)))


RANK_CUT_SPECTRA = [
    [], [0.0], [0.0, 0.0], [1.0], [1.0, 1.0, 1.0], [1.0, 0.1, 0.0, 0.0],
    [1.0, 1e-16, 1e-17], [1.0, 1e-15], [1.0, 0.999e-15, 0.5e-15], [3.0, 3e-15, 1e-15],
    [1.0, 1e-8], [2.0, 2e-8], [1.0, np.nextafter(1e-8, 1.0)], [1.0, np.nextafter(1e-8, 0.0)],
    [1.0, 1e-2, 1e-2], [1e160, 1e150, 1e140], [1e-300, 1e-305, 1e-310],
    list(np.logspace(0, -20, 40)), list(np.sort(np.random.default_rng(42).random(30))[::-1]),
]


@pytest.mark.parametrize("eps0", [1e-15, 1e-13, 1e-8, 1e-2, 0.5])
def test_rank_cut_is_the_cut_over_the_whole_zeroed_spectrum(eps0):
    # the noise floor and the eps0 boundary included: a tail equal to
    # eps0·‖σ‖ is discarded, one a rounding step above it is kept
    pol = TruncationPolicy(eps0=eps0)
    for s in RANK_CUT_SPECTRA:
        s = np.array(s, dtype=float)
        assert _rank_cut(s, pol) == _rank_cut_reference(s, eps0), s
    assert _rank_cut(np.array([1.0, 1e-8]), TruncationPolicy(eps0=1e-8)) == 1
    assert _rank_cut(np.array([1.0, np.nextafter(1e-8, 1.0)]), TruncationPolicy(eps0=1e-8)) == 2


def test_rank_cut_keeps_a_field_whose_squared_singular_values_overflow():
    # σ₁² overflows past σ₁ ~ 1.3e154; a cut on σ² would read every tail as
    # inf and keep no term, though the factor norms of the 1e77 pair are finite
    rng = np.random.default_rng(15)
    W1, W2 = rng.standard_normal((50, 3)), rng.standard_normal((20, 3))
    X = W1 @ W2.T
    for A, scale in [(lr_from_dense(1e160 * X, POL), 1e160),
                     (lr_truncate(LowRankMat(1e77 * W1, 1e77 * W2), POL), 1e154)]:
        assert A.r == 3
        assert np.linalg.norm(lr_to_dense(A) / scale - X) <= 1e-14 * np.linalg.norm(X)


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


def _sum(terms, coeffs):
    """The one exact sum Σ c_i·A_i: the one-column case of lr_sums."""
    (S,) = lr_sums(terms, np.asarray(coeffs, dtype=float)[:, None])
    return S


def _assert_sum_exact(terms, coeffs):
    S = _sum(terms, coeffs)
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
    assert _sum([Z, B], [1.0, 0.0]).r == 0


def test_sum_exact_cancellation_truncates_to_zero():
    rng = np.random.default_rng(17)
    for v in (_random_lowrank(rng, 20, 15, 4), lr_truncate(_random_lowrank(rng, 20, 15, 4), POL)):
        assert lr_truncate(_sum([v, v], [1.0, -1.0]), POL).r == 0


def test_sum_validation():
    with pytest.raises(ValueError):
        _sum([LowRankMat.zeros(4, 5), LowRankMat.zeros(4, 6)], [1.0, 1.0])
    with pytest.raises(ValueError):
        _sum([LowRankMat.zeros(4, 5)], [1.0, 2.0])


def _dense_sums(terms, C):
    return [sum(c * lr_to_dense(A) for A, c in zip(terms, col)) for col in C.T]


@pytest.mark.parametrize("n, m", [(40, 12), (9, 25)])  # n_t <= n_x, and n_t > n_x
def test_sums_match_dense_and_per_column_sums(n, m):
    # a zero-rank term, an all-zero coefficient row, and more columns than one block
    rng = np.random.default_rng(18)
    terms = [_random_lowrank(rng, n, m, r) for r in (3, 0, 5, 4, 2)]
    C = rng.standard_normal((len(terms), 2 * lowrank.SUMS_BLOCK + 3))
    C[3] = 0.0
    C[2, 5] = 0.0  # a term one column of a block leaves out
    outs = list(lr_sums(terms, C))
    assert len(outs) == C.shape[1]
    for S, ref, col in zip(outs, _dense_sums(terms, C), C.T):
        assert S.r == min(n, m, 3 + 5 + 2)  # the zero row's term is not stacked
        assert np.linalg.norm(lr_to_dense(S) - ref) <= 1e-12 * np.linalg.norm(ref)
        one = lr_to_dense(_sum(terms, col))
        assert np.linalg.norm(lr_to_dense(S) - one) <= 1e-13 * np.linalg.norm(ref)


def test_sums_form_each_long_side_product_once_per_block(monkeypatch):
    calls = []
    gemm = lowrank._gemm

    def counting_gemm(*args):
        calls.append(args[0])
        return gemm(*args)

    monkeypatch.setattr(lowrank, "_gemm", counting_gemm)
    rng = np.random.default_rng(19)
    terms = [_random_lowrank(rng, 30, 8, 2) for _ in range(5)]
    n_cols = 2 * lowrank.SUMS_BLOCK + 1
    list(lr_sums(terms, rng.standard_normal((5, n_cols))))
    assert len(calls) == 5 * 3  # three blocks, the last of one column
    calls.clear()
    _sum(terms, rng.standard_normal(5))  # one column: one product per term
    assert len(calls) == 5


def test_sums_with_no_live_term_are_zero_fields():
    A = _random_lowrank(np.random.default_rng(20), 7, 5, 2)
    outs = list(lr_sums([LowRankMat.zeros(7, 5), A], np.array([[1.0, 2.0, 3.0], [0.0] * 3])))
    assert [(S.shape, S.r) for S in outs] == [((7, 5), 0)] * 3


def test_sums_one_column_cancels_to_zero_while_the_others_do_not():
    rng = np.random.default_rng(21)
    v, w = _random_lowrank(rng, 20, 15, 4), _random_lowrank(rng, 20, 15, 3)
    C = np.array([[1.0, 1.0, 2.0], [-1.0, 0.5, 1.0], [0.0, 1.0, -1.0]])
    outs = list(lr_sums([v, v, w], C))
    assert outs[0].r == 0
    for S, ref in zip(outs[1:], _dense_sums([v, v, w], C)[1:]):
        assert S.r > 0
        assert np.linalg.norm(lr_to_dense(S) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [1e200, np.nan])
def test_sums_raise_numerical_error_at_the_first_column_that_overflows(bad):
    A = _random_lowrank(np.random.default_rng(22), 2, 2, 1)
    B = LowRankMat(np.array([[bad], [1.0]]), np.array([[1e200], [1.0]]))
    outs = lr_sums([A, B], np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert_allclose(lr_to_dense(next(outs)), lr_to_dense(A), rtol=1e-12)  # B is not in it
    with pytest.raises(NumericalError):
        next(outs)


def test_sums_validation():
    A = LowRankMat.zeros(4, 5)
    for C in (np.ones(2), np.ones((3, 1)), np.ones((2, 1, 1))):
        with pytest.raises(ValueError):
            list(lr_sums([A, A], C))
    with pytest.raises(ValueError):
        list(lr_sums([], np.ones((0, 1))))


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


def test_norm_of_a_field_whose_gram_product_overflows():
    # the entries reach 1e200, so the Gram product overflows: the norm comes
    # from the factors' R instead, and past the float range it is inf
    A = LowRankMat(np.array([[1e100], [1e100]]), np.array([[1e100], [0.0]]))
    assert_allclose(lr_norm(A), np.sqrt(2.0) * 1e200, rtol=1e-15)
    assert lr_norm(lr_scale(A, 1e109)) == np.inf
    assert np.isnan(lr_norm(LowRankMat(np.array([[np.nan], [1.0]]), np.ones((2, 1)))))


@pytest.mark.parametrize("bad", [1e200, np.nan])
def test_overflowing_or_nan_factors_raise_numerical_error(bad):
    # an overflowing norm product would pass the noise-floor test and turn
    # the field into zero
    A = LowRankMat(np.array([[bad], [1.0]]), np.array([[1e200], [1.0]]))
    with pytest.raises(NumericalError):
        lr_truncate(A, TruncationPolicy())
    with pytest.raises(NumericalError):
        _sum([A, A], [1.0, 2.0])


def _qr_input(rng, shape):
    if shape == "repeated":  # rank-deficient: one column three times
        c = rng.standard_normal((50, 1))
        return np.hstack([c, rng.standard_normal((50, 2)), c, c])
    return rng.standard_normal(shape)


def _assert_thin_qr(A, Q, R):
    """Q m × k orthonormal and R k × n upper triangular with Q·R = A, to 10·k·eps."""
    (m, n), k = A.shape, min(A.shape)
    assert Q.shape == (m, k) and R.shape == (k, n)
    assert np.array_equal(R, np.triu(R))
    tol = 10 * k * np.finfo(float).eps
    assert np.linalg.norm(Q.T @ Q - np.eye(k)) <= tol
    assert np.linalg.norm(Q @ R - A) <= tol * np.linalg.norm(A)


@pytest.mark.parametrize("shape", [(3969, 4), (144, 4), (24, 24), (30, 1200), "repeated",
                                   (0, 4), (5, 0)])
def test_qr_kernel_is_numpy_qr_bitwise(shape):
    # a flush's pane and remainder, a square core, lr_sums' wide stacked time
    # factors, a dependent block and the empty blocks of an empty-mask apply:
    # numpy's thin QR shapes, and a thin QR to rounding; the geqrt kernel
    # need not round as numpy's geqrf does
    A = _qr_input(np.random.default_rng(15), shape)
    A0 = A.copy()
    Q, R = _qr(A)
    Qn, Rn = np.linalg.qr(A)
    assert Q.shape == Qn.shape and R.shape == Rn.shape
    _assert_thin_qr(A, Q, R)
    assert np.array_equal(A, A0)  # the caller's array is never written


def test_qr_kernel_in_place_reuses_a_fortran_buffer():
    A = np.asfortranarray(np.random.default_rng(16).standard_normal((200, 12)))
    A0 = A.copy()
    Q, R = _qr(A, overwrite_a=True)
    assert np.shares_memory(Q, A)
    _assert_thin_qr(A0, Q, R)
    # a wide block's square Q is copied out and does not pin the wide buffer
    W = np.asfortranarray(np.random.default_rng(17).standard_normal((6, 40)))
    W0 = W.copy()
    Q, R = _qr(W, overwrite_a=True)
    assert Q.shape == (6, 6) and not np.shares_memory(Q, W)
    _assert_thin_qr(W0, Q, R)


def test_in_place_qr_of_the_posterior_block_holds_two_small_squares():
    # the ic-full posterior's 3969 × 120 block, whose QR sets that workload's
    # peak: Q takes the block's memory, and beside it the kernel holds R, S
    # or T and geqrt's workspace, k × k each, two at a time
    n, k = 3969, 120
    A = np.asfortranarray(np.random.default_rng(18).standard_normal((n, k)))
    A0 = A.copy()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        Q, R = _qr(A, overwrite_a=True)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.shares_memory(Q, A)
    assert peak <= 2.5 * k * k * 8
    _assert_thin_qr(A0, Q, R)


def test_geqrt_is_the_one_qr_routine(monkeypatch):
    # the LAPACK names lowrank and forward look up while an IC variance run
    # re-orthonormalizes its posterior basis, and while a full-observation
    # source run truncates its low-rank Arnoldi basis and Ritz vectors
    from lrpostcov import cli, forward

    class Recorder:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            seen.add(name)
            return getattr(self.module, name)

    seen = set()
    for module in (lowrank, forward):
        monkeypatch.setattr(module, "lapack", Recorder(module.lapack))
    cli.run_variance(cli.RunConfig(problem="heat", n_side=7, nt=5, sensors="none", m_a=20))
    cli.run_eigs(cli.RunConfig(problem="heat", mode="source", n_side=7, nt=5, sensors="none",
                               m_a=20))
    assert {name for name in seen if "qr" in name} == {"dgeqrt"}
    assert not seen & {"dgeqrf", "dorgqr"}


@pytest.mark.parametrize("n, m, r", [(12, 30, 12), (6, 40, 10), (40, 6, 10), (50, 40, 6)])
def test_truncation_skips_the_qr_of_a_factor_with_no_more_rows_than_columns(monkeypatch,
                                                                           n, m, r):
    # a square spatial factor, a wide spatial and a wide time factor, tall ones;
    # a factor with no more rows than columns is its own R, with Q = I
    A = _random_lowrank(np.random.default_rng(23), n, m, r)
    seen = []

    def spy(B, *args, **kwargs):
        seen.append(B.shape)
        return qr(B, *args, **kwargs)

    qr = lowrank._qr
    monkeypatch.setattr(lowrank, "_qr", spy)
    out = lr_truncate(A, POL)
    assert seen == [B.shape for B in (A.W1, A.W2) if B.shape[0] > B.shape[1]]
    monkeypatch.setattr(lowrank, "_qr_tall", qr)  # the QR of every factor
    ref = lr_truncate(A, POL)
    assert out.r == ref.r
    scale = np.linalg.norm(ref.W2)
    assert_allclose(out.W1, ref.W1, rtol=0, atol=1e-13)
    assert_allclose(out.W2, ref.W2, rtol=0, atol=1e-13 * scale)


def test_singular_values_read_only_the_factors_r(monkeypatch):
    # the Q of neither factor is formed, and the values are those of the R
    # factors _qr returns, bit for bit
    A = _random_lowrank(np.random.default_rng(26), 961, 30, 12)
    want = np.linalg.svd(_qr(A.W1)[1] @ _qr(A.W2)[1].T, compute_uv=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a Q was formed")

    monkeypatch.setattr(lowrank, "_reflector_q", refuse)
    assert np.array_equal(lr_singular_values(A), want)


def test_qr_of_an_upper_triangular_factor_is_the_identity_bitwise():
    # a flush core is upper triangular, so skipping its QR changes no bit
    for shape in ((14, 14), (10, 14)):
        T = np.triu(np.random.default_rng(24).standard_normal(shape))
        Q, R = _qr(T)
        assert np.array_equal(Q, np.eye(shape[0])) and np.array_equal(R, T)
