import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockgs import blockcore
from blockgs.blockcore import (
    BlockMatrix,
    all_finite,
    cond_2,
    project_out,
    spectral_norm,
    tri_solve_left_transposed,
    tri_solve_right,
)
from blockgs.matgen import make_rng, standard_normal, uniform_open
from blockgs.metrics import _scale_and_gram, loo, rel_chol_res, rel_res
from blockgs.muscles import chol_qr, givens_qr, house_qr, mgs_qr
from blockgs.syncmodel import SyncLedger

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


def test_only_blockcore_knows_openblas():
    # Finding the loaded OpenBLAS libraries, reading their thread counts
    # and pinning them while a sweep runs happen in blockcore alone.
    pattern = r"\bctypes\b|/proc/self/maps|openblas_\w*num_threads"
    package = Path(blockcore.__file__).parent
    named = {
        path.name: sorted(set(re.findall(pattern, path.read_text())))
        for path in sorted(package.glob("*.py"))
        if path.name != "blockcore.py"
    }
    assert not any(named.values()), named


# ---------------------------------------------------------------------------
# The tall products and full-matrix scans at sweep sizes, with the bits of
# the plain numpy expression or within its rounding
# ---------------------------------------------------------------------------

# m-by-n Q against an m-by-s block, as in a sweep's later blocks.
_TALL_SHAPES = [(3072, 192, 24), (2048, 96, 24), (1024, 64, 32)]


def _ids(shape):
    return "x".join(map(str, shape))


def _tall_operands(m, n, s, order="F"):
    rng = np.random.default_rng(4)
    q = np.asarray(rng.standard_normal((m, n)), order=order)
    x = np.asfortranarray(rng.standard_normal((m, s)))
    return q, x, rng.standard_normal((n, s))


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("shape", _TALL_SHAPES, ids=_ids)
def test_project_out_keeps_the_bits_of_the_plain_expression(shape, order):
    q, x, c = _tall_operands(*shape, order=order)
    got = project_out(x, q, c)
    want = x - q @ c
    assert got.tobytes() == want.tobytes()
    assert got.flags.f_contiguous


def _assert_project_out_within_rounding(q, x, c):
    # The two agree to the rounding bound of an n-term sum.
    got = project_out(x, q, c)
    scale = np.abs(x) + np.abs(q) @ np.abs(c)
    assert np.all(np.abs(got - (x - q @ c)) <= 1e-14 * scale)


@pytest.mark.parametrize("s", [1, 4])
def test_project_out_of_a_narrow_block_is_within_rounding(s):
    # Below five columns the s-by-m product may take another kernel than
    # ``q @ c``.
    _assert_project_out_within_rounding(*_tall_operands(3072, 192, s))


@pytest.mark.parametrize("shape", [(772, 64, 24), (772, 192, 16)], ids=_ids)
def test_project_out_at_772_rows_is_within_rounding(shape):
    # Wide blocks too may round apart from ``q @ c``: at these shapes the
    # two differ by up to 2.8e-14 on one BLAS thread.
    _assert_project_out_within_rounding(*_tall_operands(*shape))


def test_project_out_leaves_its_operands_as_they_were():
    q, x, c = _tall_operands(3072, 192, 24)
    before = [a.copy() for a in (q, x, c)]
    out = project_out(x, q, c)
    assert not any(np.shares_memory(out, a) for a in (q, x, c))
    assert all(np.array_equal(a, b) for a, b in zip((q, x, c), before))


@pytest.mark.parametrize(
    "shape", [(1000, 24, 24), (3072, 64, 5), (1000, 10, 5)], ids=_ids
)
def test_reduce_bits_do_not_depend_on_the_layout_of_right(shape):
    # ``right`` is copied to C order before the product, so a column-major
    # block, a row-major one and a strided view give one result.  At these
    # shapes, a sweep's first reductions, an uncopied column-major block
    # moves the last bits.
    m, n, w = shape
    rng = np.random.default_rng(6)
    left = np.asfortranarray(rng.standard_normal((m, n)))
    right = rng.standard_normal((m, w))
    wide = np.empty((m, 2 * w), order="F")
    wide[:, ::2] = right
    got = [
        SyncLedger().reduce(1, "proj", left, r)
        for r in (np.asfortranarray(right), right, wide[:, ::2])
    ]
    assert all(g.flags.c_contiguous for g in got)
    assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()
    assert_allclose(got[0], left.T @ right, rtol=1e-12, atol=1e-12)


# 4.8 MB, on the order of the matrices a sweep's metrics scan.
_SCAN_SHAPE = (1000, 600)


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
def test_extrema_read_one_non_finite_entry_wherever_it_is(value, order):
    a = np.asarray(
        np.random.default_rng(2).standard_normal(_SCAN_SHAPE), order=order
    )
    flat = a.ravel(order="K")  # a view, in memory order
    for where in (0, a.size // 2, a.size - 1):
        b = a.copy(order="K")
        b.ravel(order="K")[where] = value
        top, bottom = blockcore._extrema(b)
        if math.isnan(value):
            assert math.isnan(top) and math.isnan(bottom)
        else:
            assert (top, bottom) == (
                (value, flat.min()) if value > 0 else (flat.max(), value)
            )
        assert not all_finite(b)
    assert all_finite(a)


def test_extrema_of_an_empty_array_are_zero():
    for shape in [(0, 3), (3, 0), (0,)]:
        assert blockcore._extrema(np.empty(shape)) == (0.0, 0.0)
        assert all_finite(np.empty(shape))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_extrema_start_from_zero(sign):
    # A scale is read as max(top, -bottom), so entries of one sign still
    # give the largest magnitude.
    a = sign * (1.0 + np.random.default_rng(3).random(_SCAN_SHAPE))
    top, bottom = blockcore._extrema(a)
    if sign > 0:
        assert (top, bottom) == (a.max(), 0.0)
    else:
        assert (top, bottom) == (0.0, a.min())


@pytest.mark.parametrize("shape", [(100,), (3072, 192)], ids=str)
def test_standard_normal_is_ndtri_of_the_open_uniform_draws(shape):
    want = scipy.special.ndtri(uniform_open(make_rng(9), shape))
    got = standard_normal(make_rng(9), shape)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_scaling_in_place_keeps_the_bits_of_scaling_into_a_copy():
    # rel_res scales its residual in its own storage.
    a = np.asfortranarray(
        1e3 * np.random.default_rng(8).standard_normal(_SCAN_SHAPE)
    )
    out = np.empty_like(a)
    e, gram, lam = _scale_and_gram(a, out)
    e2, gram2, lam2 = _scale_and_gram(a, a)
    assert (e2, lam2) == (e, lam)
    assert gram2.tobytes() == gram.tobytes()
    assert a.tobytes() == out.tobytes()


def test_threads_calling_the_tall_kernels_keep_every_bit():
    # The kernels are pure: callers on six threads, switching every
    # microsecond, each get the bits of one call on this thread.
    q, x, c = _tall_operands(2048, 192, 24)
    q[1000, 150] = math.nan
    sites = (
        lambda: project_out(x, q, c),
        lambda: SyncLedger().reduce(1, "proj", q, x),
        lambda: all_finite(q),
        lambda: blockcore._extrema(x),
    )

    def bits():
        return [np.asarray(site()).tobytes() for site in sites]

    want, results, errors = bits(), [], []

    def caller():
        try:
            for _ in range(5):
                results.append(bits())
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == 30
    assert all(got == want for got in results)
