import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockgs.blockcore import (
    BlockMatrix,
    all_finite,
    cond_2,
    spectral_norm,
    tri_solve_left_transposed,
    tri_solve_right,
)
from blockgs.metrics import loo, rel_chol_res, rel_res
from blockgs.muscles import chol_qr, givens_qr, house_qr, mgs_qr

EPS = 2.0**-53


def test_block_matrix_partition():
    x = BlockMatrix(np.arange(24.0).reshape(6, 4), block_width=2)
    assert x.block_count == 2
    assert x.m == 6
    assert x.cols == 4
    assert_allclose(x.block(1), x.data[:, :2])
    assert_allclose(x.block(2), x.data[:, 2:])


def test_block_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BlockMatrix(np.ones((6, 4)), block_width=3)  # 4 not divisible by 3
    with pytest.raises(ValueError):
        BlockMatrix(np.ones((3, 4)), block_width=2)  # wide, not tall
    with pytest.raises(ValueError):
        BlockMatrix(np.ones((6, 4)), block_width=0)
    with pytest.raises(ValueError):
        BlockMatrix(np.ones(6), block_width=1)  # 1-d
    with pytest.raises(IndexError):
        BlockMatrix(np.ones((6, 4)), 2).block(3)
    with pytest.raises(IndexError):
        BlockMatrix(np.ones((6, 4)), 2).block(0)


def test_block_matrix_blocks_are_views():
    x = BlockMatrix(np.zeros((4, 4)), block_width=2)
    x.block(2)[:] = 7.0
    assert np.all(x.data[:, 2:] == 7.0)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)


def test_spectral_norm_cross_checked_against_bidiagonalization_oracle():
    # Independent SVD path: scipy's gesvd driver (Golub-Kahan
    # bidiagonalization + QR iteration) vs the divide-and-conquer default.
    rng = np.random.default_rng(123)
    a = rng.standard_normal((50, 5))
    oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
    assert spectral_norm(a) == pytest.approx(oracle[0], rel=1e-13)


def test_norms_of_a_non_finite_matrix_are_nan():
    # pytest turns warnings into errors, so each NaN also comes unwarned.
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    assert math.isnan(spectral_norm(bad))
    assert math.isnan(cond_2(bad))


_POSITIONS = {
    "first": lambda a: (0, 0),
    "middle": lambda a: (a.shape[0] // 2, a.shape[1] // 2),
    "last": lambda a: (-1, -1),
}


def _planted(a, value, where):
    """A copy of ``a`` with ``value`` at position ``where``."""
    a = a.copy()
    a[_POSITIONS[where](a)] = value
    return a


@pytest.mark.parametrize("shape", [(6, 3), (1, 1)], ids=["6x3", "1x1"])
@pytest.mark.parametrize("where", list(_POSITIONS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_keep_each_documented_outcome(value, where, shape):
    # all_finite reads max and min, not a mask; every caller must still see
    # a non-finite entry wherever it sits, in blocks of any size.
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) + 3.0 * np.eye(*shape)
    r = np.triu(rng.standard_normal((shape[1], shape[1]))) + 3.0 * np.eye(
        shape[1]
    )
    assert all_finite(x) and all_finite(r) and all_finite(np.empty((0, 2)))
    for fn in (house_qr, givens_qr, mgs_qr, chol_qr):
        out = fn(x)
        assert not out.failed and all_finite(out.q), fn.__name__
    assert math.isfinite(loo(x)) and math.isfinite(cond_2(x))
    assert math.isfinite(rel_res(x, x, r))
    assert math.isfinite(rel_chol_res(x, r))

    bad_x, bad_r = _planted(x, value, where), _planted(r, value, where)
    assert not all_finite(bad_x) and not all_finite(bad_r)
    for fn in (house_qr, givens_qr, mgs_qr, chol_qr):
        out = fn(bad_x)
        assert out.failed and np.isnan(out.q).all(), fn.__name__
    assert math.isnan(loo(bad_x))
    assert math.isnan(rel_res(x, bad_x, r))
    assert math.isnan(rel_res(x, x, bad_r))
    assert math.isnan(rel_chol_res(x, bad_r))
    assert math.isnan(cond_2(bad_x))


def test_cond_2_trivial():
    assert cond_2(np.eye(4)) == pytest.approx(1.0)
    assert cond_2(np.diag([10.0, 0.1])) == pytest.approx(100.0)


def test_cond_2_singular():
    assert math.isnan(cond_2(np.zeros((3, 2))))


def test_cond_2_never_returns_an_infinity():
    # A sweep writes kappa_actual with %.16e, which spells an infinity
    # "inf", a cell read_csv rejects; so an overflowing ratio is
    # unmeasurable conditioning, NaN like a singular matrix.
    assert math.isnan(cond_2(np.diag([1e200, 1e-200])))
    assert cond_2(np.diag([1e300, 1e-7])) == pytest.approx(1e307)


def test_tri_solve_left_transposed_trivial():
    b = np.arange(6.0).reshape(3, 2)
    assert_allclose(tri_solve_left_transposed(np.eye(3), b), b)
    assert_allclose(
        tri_solve_left_transposed(np.array([[2.0]]), np.array([[4.0]])),
        np.array([[2.0]]),
    )


def test_tri_solve_right_trivial():
    b = np.arange(8.0).reshape(2, 4)
    assert_allclose(tri_solve_right(b, np.eye(4)), b)
    r = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert_allclose(
        tri_solve_right(np.array([[2.0, 4.0]]), r), np.array([[1.0, 1.0]])
    )


def test_tri_solves_reject_zero_diagonal():
    r = np.triu(np.ones((3, 3)))
    r[1, 1] = 0.0
    with pytest.raises(ValueError, match="singular triangular factor"):
        tri_solve_left_transposed(r, np.ones((3, 1)))
    with pytest.raises(ValueError, match="singular triangular factor"):
        tri_solve_right(np.ones((1, 3)), r)


def test_tri_solves_propagate_nan_payload():
    r = np.eye(2)
    b = np.array([[np.nan, 1.0], [0.0, 1.0]])
    z = tri_solve_left_transposed(r, b)
    assert np.isnan(z[0, 0]) and z[1, 1] == 1.0


def _laid_out(a, layout, rng):
    """``a`` in C order, in F order or as a strided view into a larger
    array."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "view":
        rows, cols = a.shape
        big = rng.standard_normal((2 * rows + 1, cols + 3))
        big[1::2, 2 : cols + 2] = a
        return big[1::2, 2 : cols + 2]
    return np.ascontiguousarray(a)


@st.composite
def _tri_systems(draw):
    """An s-by-s upper triangular factor, with junk below its diagonal, an
    m-by-s right-hand side for the right solve and an s-by-q one for the
    left solve; optional NaN entries, each array in any layout."""
    s = draw(st.integers(1, 12))
    m = draw(st.integers(1, 300))
    q = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = rng.standard_normal((s, s))
    r[np.diag_indices(s)] += np.where(r.diagonal() < 0.0, -1.0, 1.0)
    r *= draw(st.sampled_from((1.0, 1e-8, 1e8)))
    b_right = rng.standard_normal((m, s))
    b_left = rng.standard_normal((s, q))
    if draw(st.booleans()):
        for a in (r, b_right, b_left):
            a.flat[rng.integers(a.size)] = np.nan
    layouts = st.sampled_from(("C", "F", "view"))
    return tuple(
        _laid_out(a, draw(layouts), rng) for a in (r, b_right, b_left)
    )


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


@given(system=_tri_systems())
@settings(max_examples=200, deadline=None)
def test_tri_solves_match_solve_triangular_bit_for_bit(system):
    r, b_right, b_left = system
    inputs = [a.copy() for a in system]
    z = tri_solve_right(b_right, r)
    want = scipy.linalg.solve_triangular(
        r, b_right.T, trans="T", lower=False, check_finite=False
    ).T
    assert z.flags.c_contiguous and _same_bits(z, want)
    z = tri_solve_left_transposed(r, b_left)
    want = scipy.linalg.solve_triangular(
        r, b_left, trans="T", lower=False, check_finite=False
    )
    assert _same_bits(z, want)
    assert all(_same_bits(a, b) for a, b in zip(system, inputs))


def test_tri_solves_reject_mismatched_shapes():
    r = np.eye(3)
    with pytest.raises(ValueError, match="incompatible"):
        tri_solve_left_transposed(r, np.ones((2, 1)))
    with pytest.raises(ValueError, match="incompatible"):
        tri_solve_right(np.ones((1, 2)), r)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tri_solve_residuals_random(seed):
    rng = np.random.default_rng(seed)
    # Well-conditioned upper triangular factor: dominant diagonal.
    r = np.triu(rng.standard_normal((5, 5))) + 5.0 * np.eye(5)
    b = rng.standard_normal((5, 3))
    z = tri_solve_left_transposed(r, b)
    assert spectral_norm(r.T @ z - b) <= 1e-13 * spectral_norm(b)
    b2 = rng.standard_normal((3, 5))
    z2 = tri_solve_right(b2, r)
    assert spectral_norm(z2 @ r - b2) <= 1e-13 * spectral_norm(b2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_order_and_transpose_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 5))
    sv = np.linalg.svd(a, compute_uv=False)
    smax, smin = spectral_norm(a), float(sv[-1])
    assert smin <= smax
    assert cond_2(a) >= 1.0
    assert spectral_norm(a.T) == pytest.approx(smax, rel=1e-14)


def test_tri_solve_reconstruction_envelope():
    rng = np.random.default_rng(7)
    r = np.triu(rng.standard_normal((6, 6))) + 4.0 * np.eye(6)
    b = rng.standard_normal((6, 2))
    z = tri_solve_left_transposed(r, b)
    bound = 100.0 * EPS * cond_2(r) * spectral_norm(b)
    assert spectral_norm(r.T @ z - b) <= bound
