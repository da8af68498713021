import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockgs import muscles
from blockgs.blockcore import cond_2, spectral_norm
from blockgs.harness import SweepConfig, make_combo, run_sweep, write_csv
from blockgs.matgen import (
    gen_default,
    gen_monomial,
    make_rng,
    standard_normal,
    svd_with_cond,
)
from blockgs.metrics import EPS, loo, rel_res
from blockgs.muscles import (
    CHOL_QR,
    GIVENS_QR,
    HOUSE_QR,
    IO_BY_NAME,
    MGS,
    IOSpec,
    QROutput,
    _fix_signs,
    _givens_stages,
    apply_io,
    chol_free,
    chol_qr,
    givens_qr,
    house_qr,
    mgs_qr,
)
from blockgs.syncmodel import SyncLedger

ALL_IOS = (HOUSE_QR, GIVENS_QR, MGS, CHOL_QR)
FACTORIZERS = {
    "houseqr": house_qr,
    "givensqr": givens_qr,
    "mgs": mgs_qr,
    "cholqr": chol_qr,
}


def test_io_spec_registry():
    assert IO_BY_NAME["houseqr"] is HOUSE_QR
    assert IO_BY_NAME["givensqr"] is GIVENS_QR
    assert IO_BY_NAME["mgs"] is MGS
    assert IO_BY_NAME["cholqr"] is CHOL_QR
    assert HOUSE_QR.alpha == 0
    assert GIVENS_QR.alpha == 0
    assert MGS.alpha == 1
    assert CHOL_QR.alpha == 2


def test_io_sync_costs():
    # One global reduction per column for column-at-a-time methods,
    # a single Gram-matrix reduction for Cholesky-based QR.
    for spec in (HOUSE_QR, GIVENS_QR, MGS):
        assert spec.sync_cost(5) == 5
        assert spec.sync_cost(1) == 1
    assert CHOL_QR.sync_cost(5) == 1
    assert CHOL_QR.sync_cost(1) == 1


@pytest.mark.parametrize("name", sorted(FACTORIZERS))
def test_identity_input(name):
    out = FACTORIZERS[name](np.eye(4))
    assert not out.failed
    assert_allclose(out.q, np.eye(4), atol=1e-15)
    assert_allclose(out.r, np.eye(4), atol=1e-15)


@pytest.mark.parametrize("name", sorted(FACTORIZERS))
def test_scaled_identity_input(name):
    out = FACTORIZERS[name](2.0 * np.eye(3))
    assert not out.failed
    assert_allclose(out.q, np.eye(3), atol=1e-15)
    assert_allclose(out.r, 2.0 * np.eye(3), atol=1e-15)


def test_givens_three_four_five():
    out = givens_qr(np.array([[3.0], [0.0], [4.0]]))
    assert_allclose(out.r, np.array([[5.0]]))
    assert_allclose(out.q, np.array([[0.6], [0.0], [0.8]]))


def test_givens_upper_triangular_output():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 4))
    out = givens_qr(x)
    assert_allclose(out.r, np.triu(out.r))
    assert np.all(np.diag(out.r) >= 0.0)


def test_house_rejects_wide_blocks():
    with pytest.raises(ValueError, match="block wider than tall"):
        house_qr(np.ones((2, 3)))


def test_house_sign_convention():
    # Nonnegative diagonal makes the factorization unique, so two
    # rotation-based routes must agree on R exactly (up to roundoff).
    rng = np.random.default_rng(42)
    x = rng.standard_normal((20, 5))
    h = house_qr(x)
    g = givens_qr(x)
    assert np.all(np.diag(h.r) >= 0.0)
    assert np.all(np.diag(g.r) >= 0.0)
    assert_allclose(h.r, g.r, atol=1e-13 * spectral_norm(x))
    assert_allclose(h.q, g.q, atol=1e-13)


@pytest.mark.parametrize("name", sorted(FACTORIZERS))
def test_muscles_never_write_to_their_input(name):
    # The sign fix flips the fresh Q and R in place; the caller's X (a
    # whole array, or a block view of a column-major matrix as the
    # skeletons pass it) stays bitwise as it was and shares no memory
    # with the output.
    rng = np.random.default_rng(5)
    whole = rng.standard_normal((30, 4))
    parent = np.asfortranarray(rng.standard_normal((30, 12)))
    for x in (whole, -whole, parent[:, 4:8]):
        assert np.any(np.diag(np.linalg.qr(x)[1]) < 0.0)  # flips happen
        before = x.copy()
        out = FACTORIZERS[name](x)
        assert not out.failed
        assert x.tobytes() == before.tobytes()
        assert np.all(np.diag(out.r) >= 0.0)
        for a in (out.q, out.r):
            assert not np.shares_memory(a, x)
            assert not np.shares_memory(a, parent)


def test_non_finite_input_yields_failed_output():
    x = np.ones((4, 2))
    x[2, 1] = np.nan
    for name, fn in FACTORIZERS.items():
        out = fn(x)
        assert out.failed, name
        assert np.isnan(out.q).all(), name


def test_chol_free_worked_example():
    g = np.array([[4.0, 2.0], [2.0, 2.0]])
    fac = chol_free(g)
    assert not fac.failed
    assert_allclose(fac.r, np.array([[2.0, 1.0], [0.0, 1.0]]))


def test_chol_free_indefinite_runs_to_completion():
    # No exception, no fail-safe: the negative pivot turns into NaN
    # via the square root and the factorization is marked failed.
    g = np.array([[1.0, 2.0], [2.0, 1.0]])
    fac = chol_free(g)
    assert fac.failed
    assert np.isnan(fac.r[1, 1])
    assert fac.r[0, 0] == pytest.approx(1.0)
    assert fac.r[0, 1] == pytest.approx(2.0)


def test_chol_free_reads_the_upper_triangle():
    # dpotrf's uplo='U' convention: the lower triangle is never read, so
    # NaN there changes no bit of the factor of the symmetric G.
    g = np.array([[4.0, 2.0], [-7.0, 2.0]])
    fac = chol_free(g)
    assert not fac.failed
    assert_allclose(fac.r, np.array([[2.0, 1.0], [0.0, 1.0]]))
    x = np.random.default_rng(8).standard_normal((9, 4))
    sym = x.T @ x
    upper = np.where(np.triu(np.ones((4, 4), dtype=bool)), sym, np.nan)
    assert np.array_equal(chol_free(upper).r, chol_free(sym).r)
    assert np.isnan(upper[np.tril_indices(4, -1)]).all()  # left alone


def test_chol_free_factors_a_gram_near_overflow():
    # A diagonal entry above DBL_MAX/2 is no breakdown: R[0,0] = 1e154.
    fac = chol_free(np.diag([1e308, 1.0]))
    assert not fac.failed
    assert np.array_equal(fac.r, np.diag([1e154, 1.0]))


def test_chol_qr_factors_a_column_whose_gram_entry_nears_overflow():
    # Its Gram entry 1.44e308 is finite; pytest turns a RuntimeWarning into
    # an error, so this also checks that none is raised.
    x = np.column_stack([[1.2e154, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
    out = chol_qr(x)
    assert not out.failed
    assert out.r[0, 0] == 1.2e154
    assert_allclose(out.r, [[1.2e154, 1.0], [0.0, np.sqrt(29.0)]])
    assert rel_res(x, out.q, out.r) <= 100.0 * EPS


def test_chol_free_identity_and_diagonal():
    assert_allclose(chol_free(np.eye(3)).r, np.eye(3))
    fac = chol_free(np.diag([9.0, 4.0]))
    assert_allclose(fac.r, np.diag([3.0, 2.0]))


def test_chol_qr_keeps_r_on_failure():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])  # exactly dependent
    out = chol_qr(x)
    assert out.failed
    assert np.isnan(out.q).all()
    assert np.isfinite(out.r[0, 0])  # partial factor retained for forensics


def test_chol_qr_failure_rate_at_severe_conditioning():
    # kappa = 1e9 sits at the edge of Cholesky viability in double
    # precision (kappa^2 * eps ~ 0.1): some Gram matrices lose positive
    # definiteness to rounding and some survive.  Frozen seeded batch.
    failures = 0
    for seed in range(10):
        x = svd_with_cond(60, 6, 1.0e9, rng=make_rng(seed))
        if chol_qr(x).failed:
            failures += 1
    assert 0 < failures < 10  # genuinely on the edge: mixed outcomes
    assert failures == 7  # and bit-reproducible across platforms/runs


def test_mgs_near_dependent_columns():
    x = np.zeros((6, 2))
    x[0, 0] = 1.0
    x[0, 1] = 1.0
    x[1, 1] = 1.0e-8
    kappa = cond_2(x)
    assert kappa == pytest.approx(2.0e8, rel=1e-4)
    out = mgs_qr(x)
    assert not out.failed
    assert loo(out.q) <= 100.0 * EPS * kappa**2
    assert rel_res(x, out.q, out.r) <= 100.0 * EPS


def test_mgs_exact_rank_deficiency_fails_as_data():
    x = np.column_stack([np.ones(4), np.ones(4)])
    out = mgs_qr(x)
    assert out.failed
    assert out.q.shape == (4, 2) and out.r.shape == (2, 2)
    assert np.isnan(out.q).all() and np.isnan(out.r).all()
    # The reductions are charged whether or not the call succeeds.
    ledger = SyncLedger()
    assert apply_io(MGS, x, ledger=ledger, block=3).failed
    assert [(e.block, e.label, e.cost) for e in ledger.events] == [
        (3, "io-cols", 2)
    ]


def _overflowing_block():
    """A finite 6-by-2 block near 2**900, whose column norms' sums of
    squares, and so its Gram matrix, overflow."""
    return np.ldexp(standard_normal(make_rng(0), (6, 2)), 900)


def test_mgs_pivot_norm_overflow_is_a_breakdown():
    # The first pivot norm overflows to inf: without the breakdown, Q's
    # column would be v / inf = 0 beside an infinite R diagonal.
    out = mgs_qr(_overflowing_block())
    assert out.failed
    assert np.isnan(out.q).all() and np.isnan(out.r).all()


@pytest.mark.parametrize("name", ["mgs", "cholqr"])
def test_gram_overflow_is_a_failed_output_not_a_warning(name):
    # pytest turns every RuntimeWarning into an error (pyproject), so an
    # overflow warning from the dot or Gram products would fail this test.
    out = FACTORIZERS[name](_overflowing_block())
    assert out.failed
    assert np.isnan(out.q).all()


# Blocks whose first column norm nears DBL_MAX: hypot(1.5e308, 1.5e308)
# overflows, hypot(1e308, 1e308) = 1.41e308 does not.
_ROTATION_OVERFLOW = np.array([[1.5e308, 1], [1.5e308, 2], [0, 3], [1, 1]])
_NEAR_OVERFLOW = np.array([[1e308, 1], [1e308, 2], [0, 3], [1, 1]])
# Its first rotation is finite, but the row it turns overflows: the second
# column's norm is 2.12e308.
_ROTATED_ROW_OVERFLOW = np.array([[1, 1.5e308], [1, 1.5e308], [0, 1], [0, 2]])


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "apply_io"])
def test_an_overflowing_givens_rotation_is_a_breakdown(direct):
    # An overflowing hypot must not turn into a zero rotation (c = s = 0,
    # an all-zero Q column beside failed=False); pytest turns the overflow
    # warning into an error.
    def factor(x):
        if direct:
            return givens_qr(x)
        return apply_io(GIVENS_QR, x, ledger=SyncLedger(), block=1)

    for x in (_ROTATION_OVERFLOW, _ROTATED_ROW_OVERFLOW):
        out = factor(x)
        assert out.failed
        assert np.isnan(out.q).all() and np.isnan(out.r).all()
    out = factor(_NEAR_OVERFLOW)
    assert not out.failed
    assert_allclose(
        out.r, [[np.sqrt(2.0) * 1e308, 3.0 / np.sqrt(2.0)],
                [0.0, np.sqrt(10.5)]], rtol=1e-15
    )
    assert loo(out.q) <= 10.0 * EPS


def test_house_qr_fails_on_a_finite_block_near_overflow():
    # Documented data, not a goal: LAPACK's reflector overflows forming
    # alpha - beta, so R[0,1] = inf where the true value is 2.12.
    out = house_qr(_NEAR_OVERFLOW)
    assert out.failed
    assert out.r[0, 0] == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    assert out.r[0, 1] == np.inf
    assert house_qr(_ROTATION_OVERFLOW).failed


@pytest.mark.parametrize("name", sorted(FACTORIZERS))
def test_residual_envelope_random(name):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 5))
    out = FACTORIZERS[name](x)
    assert not out.failed
    assert rel_res(x, out.q, out.r) <= 100.0 * EPS
    assert_allclose(out.r, np.triu(out.r), atol=0.0)


def test_orthogonality_envelopes_across_conditioning():
    # Each method's loss of orthogonality tracks eps * kappa^alpha.
    for kappa in (1.0e2, 1.0e5, 1.0e7):
        x = svd_with_cond(80, 8, kappa, rng=make_rng(3))
        for spec, fn in (
            (HOUSE_QR, house_qr),
            (GIVENS_QR, givens_qr),
            (MGS, mgs_qr),
            (CHOL_QR, chol_qr),
        ):
            out = fn(x)
            assert not out.failed, (spec.kind, kappa)
            envelope = 100.0 * EPS * kappa**spec.alpha
            assert loo(out.q) <= envelope, (spec.kind, kappa)


def test_apply_io_records_sync_event():
    x = np.random.default_rng(5).standard_normal((12, 3))
    ledger = SyncLedger()
    apply_io(CHOL_QR, x, ledger=ledger, block=2)
    assert ledger.total == 1
    assert ledger.events[0].label == "io-gram"
    assert ledger.events[0].block == 2

    ledger = SyncLedger()
    apply_io(MGS, x, ledger=ledger, block=1)
    assert ledger.total == 3
    assert all(e.label == "io-cols" for e in ledger.events)


def test_apply_io_records_even_on_failure():
    # The reduction happens before the breakdown is known, so the
    # communication is charged regardless of the outcome.
    x = np.column_stack([np.ones(5), np.ones(5)])
    ledger = SyncLedger()
    out = apply_io(CHOL_QR, x, ledger=ledger, block=1)
    assert out.failed
    assert ledger.total == 1


@pytest.mark.parametrize("spec", ALL_IOS, ids=lambda spec: spec.kind)
@pytest.mark.parametrize(
    "x", [np.ones(5), np.ones((2, 5)), np.ones((5, 0))],
    ids=["1-d", "wide", "no-columns"],
)
def test_apply_io_rejects_a_malformed_block_before_charging(spec, x):
    ledger = SyncLedger()
    with pytest.raises(ValueError):
        apply_io(spec, x, ledger=ledger, block=1)
    assert ledger.events == []


# ---------------------------------------------------------------------------
# The muscle cache behind apply_io
# ---------------------------------------------------------------------------

CACHED_IOS = (HOUSE_QR, GIVENS_QR, MGS)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.strides == b.strides and (
        a.tobytes() == b.tobytes()
    )


def _same_output(a: QROutput, b: QROutput) -> bool:
    return _same_bits(a.q, b.q) and _same_bits(a.r, b.r)


@st.composite
def _cache_blocks(draw):
    """An m-by-s block, m <= 12, in C, Fortran or strided layout, with
    +0 and -0 entries and, sometimes, a NaN."""
    s = draw(st.integers(1, 4))
    m = draw(st.integers(s, 12))
    x = standard_normal(make_rng(draw(st.integers(0, 2**32 - 1))), (m, s))
    signed_zeros = draw(
        st.lists(st.sampled_from((0.0, -0.0)), min_size=m * s, max_size=m * s)
    )
    for i, zero in enumerate(signed_zeros):
        if draw(st.booleans()):
            x.flat[i] = zero
    if draw(st.booleans()):
        x.flat[draw(st.integers(0, m * s - 1))] = np.nan
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        big = np.zeros((2 * m, 3 * s))
        big[::2, ::3] = x
        return big[::2, ::3]
    return x


def _cache_size() -> int:
    return muscles._cached_factor.cache_info().currsize


@given(x=_cache_blocks(), spec=st.sampled_from(CACHED_IOS))
@settings(max_examples=80, deadline=None)
def test_a_cache_hit_equals_a_fresh_call_bit_for_bit(x, spec):
    muscles._cached_factor.cache_clear()
    before = x.tobytes()
    fresh = FACTORIZERS[spec.kind](x)
    ledger = SyncLedger()
    # Keyed by its values alone: a C-order copy fills the entry that the
    # block, in its own layout, then hits.
    miss = apply_io(spec, np.ascontiguousarray(x), ledger=ledger, block=1)
    assert muscles._cached_factor.cache_info()[:2] == (0, 1)
    hit = apply_io(spec, x, ledger=ledger, block=2)
    assert muscles._cached_factor.cache_info()[:2] == (1, 1)
    assert _cache_size() == 1
    assert _same_output(miss, fresh) and _same_output(hit, fresh)
    assert x.tobytes() == before


def test_the_cache_keys_kind_shape_and_signed_zeros_apart():
    muscles._cached_factor.cache_clear()
    x = np.random.default_rng(21).standard_normal((6, 2))
    x[0, 1] = 0.0
    negated_zero = x.copy()
    negated_zero[0, 1] = -0.0
    ledger = SyncLedger()
    calls = [
        (GIVENS_QR, x),
        (MGS, x),
        (HOUSE_QR, x),
        (GIVENS_QR, x.reshape(4, 3)),
        (GIVENS_QR, negated_zero),
    ]
    for spec, block in calls:
        out = apply_io(spec, block, ledger=ledger, block=1)
        assert _same_output(out, FACTORIZERS[spec.kind](block))
    info = muscles._cached_factor.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, len(calls), len(calls))


@pytest.mark.parametrize("spec", CACHED_IOS, ids=lambda spec: spec.kind)
def test_mutating_a_returned_factor_leaves_later_hits_alone(spec):
    muscles._cached_factor.cache_clear()
    x = np.random.default_rng(22).standard_normal((9, 3))
    want = FACTORIZERS[spec.kind](x)
    ledger = SyncLedger()
    first = apply_io(spec, x, ledger=ledger, block=1)
    first.q[...] = 7.0
    first.r[...] = 7.0
    second = apply_io(spec, x, ledger=ledger, block=2)
    assert _same_output(second, want)
    second.q[...] = 8.0
    second.r[...] = 8.0
    third = apply_io(spec, x, ledger=ledger, block=3)
    assert _same_output(third, want)
    assert not np.shares_memory(third.q, second.q)
    assert muscles._cached_factor.cache_info().hits == 2


@pytest.mark.parametrize("spec", ALL_IOS, ids=lambda spec: spec.kind)
def test_a_cache_hit_is_charged_like_a_fresh_call(spec):
    muscles._cached_factor.cache_clear()
    x = np.random.default_rng(23).standard_normal((8, 3))
    ledger = SyncLedger()
    for block in (1, 2, 3):
        apply_io(spec, x, ledger=ledger, block=block)
    assert [e.block for e in ledger.events] == [1, 2, 3]
    assert ledger.total == 3 * spec.sync_cost(3)


def test_only_cholqr_calls_through_apply_io_are_never_cached():
    assert set(ALL_IOS) - set(CACHED_IOS) == {CHOL_QR}
    muscles._cached_factor.cache_clear()
    x = np.random.default_rng(24).standard_normal((8, 3))
    for fn in FACTORIZERS.values():
        fn(x)
    ledger = SyncLedger()
    apply_io(CHOL_QR, x, ledger=ledger, block=1)
    assert muscles._cached_factor.cache_info()[:] == (0, 0, 64, 0)
    for spec in CACHED_IOS:
        apply_io(spec, x, ledger=ledger, block=1)
    assert _cache_size() == len(CACHED_IOS)
    # A repeated cholqr call still factors afresh: no hit, no new entry.
    out = apply_io(CHOL_QR, x, ledger=ledger, block=2)
    assert _same_output(out, chol_qr(x))
    assert muscles._cached_factor.cache_info()[:2] == (0, len(CACHED_IOS))


def test_the_cache_holds_at_most_its_budget(monkeypatch):
    assert muscles._CACHE_ENTRIES == 64
    assert muscles._CACHE_BLOCK_BYTES == 4096
    assert muscles._cached_factor.cache_info().maxsize == muscles._CACHE_ENTRIES
    # Key, Q and R of a block of at most 4 KiB (s*s <= m*s): 768 KiB in all.
    assert 3 * muscles._CACHE_ENTRIES * muscles._CACHE_BLOCK_BYTES <= 768 * 1024
    muscles._cached_factor.cache_clear()
    rng = np.random.default_rng(25)
    blocks = [rng.standard_normal((10, 3)) for _ in range(70)]
    ledger = SyncLedger()
    for i, x in enumerate(blocks):
        out = apply_io(MGS, x, ledger=ledger, block=1)
        assert _same_output(out, mgs_qr(x))
        assert _cache_size() == min(i + 1, 64)
    # The oldest entries were evicted: the first block misses again.
    misses = muscles._cached_factor.cache_info().misses
    apply_io(MGS, blocks[0], ledger=ledger, block=1)
    assert muscles._cached_factor.cache_info().misses == misses + 1
    assert _cache_size() == 64
    # A block of exactly 4 KiB is cached; one row more (4104 bytes) is
    # factored but never hashed or handed to the cached function.
    muscles._cached_factor.cache_clear()
    edge = rng.standard_normal((128, 4))
    apply_io(MGS, edge, ledger=ledger, block=1)
    assert _cache_size() == 1

    def unreachable(*args):
        raise AssertionError("a block above 4 KiB reached the cache")

    monkeypatch.setattr(muscles, "_cached_factor", unreachable)
    tall = rng.standard_normal((171, 3))
    assert tall.nbytes == 4104
    for spec in CACHED_IOS:
        out = apply_io(spec, tall, ledger=ledger, block=1)
        assert _same_output(out, FACTORIZERS[spec.kind](tall))


def test_threads_sharing_a_cache_lose_no_entry_and_keep_every_bit():
    muscles._cached_factor.cache_clear()
    rng = np.random.default_rng(26)
    # More blocks than the cache holds, so the threads also evict.
    blocks = [rng.standard_normal((10, 3)) for _ in range(80)]
    want = [givens_qr(x) for x in blocks]
    calls = 150
    errors = []

    def worker(seed):
        ledger = SyncLedger()
        order = np.random.default_rng(seed).integers(len(blocks), size=calls)
        try:
            for i in order:
                out = apply_io(GIVENS_QR, blocks[i], ledger=ledger, block=1)
                if not _same_output(out, want[i]):
                    errors.append(i)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = muscles._cached_factor.cache_info()
    assert info.hits + info.misses == 6 * calls
    assert info.currsize == muscles._CACHE_ENTRIES


def test_a_sweep_writes_the_same_bytes_with_no_cold_or_warm_cache(
    tmp_path, monkeypatch
):
    config = SweepConfig(
        "monomial",
        tuple(
            make_combo(kind, io, io, io)
            for kind in ("bcgs", "bcgs_a", "bcgsi_plus", "bcgsi_plus_a")
            for io in CACHED_IOS
        ),
        (1.0e2, 1.0e8),
        m=40,
        p=4,
        s=2,
    )
    paths = [tmp_path / f"{name}.csv" for name in ("none", "cold", "warm")]
    muscles._cached_factor.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(muscles, "_CACHE_BLOCK_BYTES", -1)
        write_csv(run_sweep(config), paths[0])
        assert muscles._cached_factor.cache_info()[:] == (0, 0, 64, 0)
    write_csv(run_sweep(config), paths[1])
    assert _cache_size() > 0
    hits = muscles._cached_factor.cache_info().hits
    write_csv(run_sweep(config), paths[2])
    assert muscles._cached_factor.cache_info().hits > hits
    none, cold, warm = (path.read_bytes() for path in paths)
    assert none == cold == warm


def test_io_spec_is_frozen():
    with pytest.raises(AttributeError):
        HOUSE_QR.alpha = 5  # type: ignore[misc]
    assert IOSpec("houseqr", 0) == IOSpec("houseqr", 0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(FACTORIZERS)),
)
@settings(max_examples=40, deadline=None)
def test_factorization_property_random(seed, name):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((25, 4))
    out = FACTORIZERS[name](x)
    assert not out.failed
    assert out.q.shape == x.shape
    assert out.r.shape == (4, 4)
    assert loo(out.q) <= 1e-13
    assert rel_res(x, out.q, out.r) <= 1e-13
    assert np.all(np.diag(out.r) > 0.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(FACTORIZERS)),
    s=st.integers(min_value=1, max_value=4),
    extra_rows=st.sampled_from([0, 3]),
    zero_column=st.booleans(),
    exponent=st.sampled_from([-900, 0, 900]),
)
@settings(max_examples=60, deadline=None)
def test_failed_holds_exactly_when_a_factor_is_non_finite(
    seed, name, s, extra_rows, zero_column, exponent
):
    # Entries near either end of the exponent range, with or without an
    # exactly zero column beside a nonzero one: no warning, ``failed`` is
    # true exactly when Q or R holds a non-finite entry, a failed Q is
    # NaN-filled, and a finished pair factors X.
    data = np.random.default_rng(seed).standard_normal((s + extra_rows, s))
    if zero_column and s > 1:
        data[:, -1] = 0.0
    x = np.ldexp(data, exponent)
    out = FACTORIZERS[name](x)
    finite = np.isfinite(out.q).all() and np.isfinite(out.r).all()
    assert out.failed == (not finite)
    if out.failed:
        assert np.isnan(out.q).all()
    else:
        assert rel_res(x, out.q, out.r) <= 1e-13


def _givens_oracle(x):
    """The two-products-per-rotation Givens loop, kept as the bit-level
    reference for ``givens_qr``."""
    m, s = x.shape
    a = x.copy()
    qt = np.eye(m)
    for j in range(s):
        for i in range(m - 1, j, -1):
            f, g = a[i - 1, j], a[i, j]
            if g == 0.0:
                continue
            h = np.hypot(f, g)
            c, sn = f / h, g / h
            rot = np.array([[c, sn], [-sn, c]])
            a[i - 1 : i + 1, j:] = rot @ a[i - 1 : i + 1, j:]
            a[i, j] = 0.0
            qt[i - 1 : i + 1, :] = rot @ qt[i - 1 : i + 1, :]
    q = qt[:s, :].T.copy()
    r = np.triu(a[:s, :])
    return _fix_signs(q, r)


@st.composite
def _givens_blocks(draw):
    """m-by-s blocks with exact zeros, zero or duplicated columns, 2^±300
    scaling, in C order, F order or as a view into a larger array."""
    m = draw(st.integers(1, 120))
    s = draw(st.integers(1, min(m, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, s))
    x[rng.random((m, s)) < draw(st.sampled_from((0.0, 0.3, 0.8)))] = 0.0
    col, other = rng.integers(s), rng.integers(s)
    edit = draw(st.sampled_from(("none", "zero", "duplicate")))
    if edit == "zero":
        x[:, col] = 0.0
    elif edit == "duplicate":
        x[:, col] = x[:, other]
    x *= draw(st.sampled_from((1.0, 2.0**300, 2.0**-300)))
    layout = draw(st.sampled_from(("C", "F", "view")))
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "view":
        big = rng.standard_normal((m + 3, s + 4))
        big[1 : m + 1, 2 : s + 2] = x
        return big[1 : m + 1, 2 : s + 2]
    return x


def _muscle_grid_block(generator, width=5, **knob):
    """The first ``width`` columns of a muscle-grid matrix (m=100, p=10,
    s=5), a view into its column-major data."""
    return generator(100, 10, 5, 42, **knob).data[:, :width]


def _alternate_zero_rows(m, s):
    """Exact zero rows at even indices.  The first columns' rotations swap
    them downwards, so at 20-by-5 a later stage of three or more rotations
    meets an exactly zero g in its middle and falls back to turning its
    pairs one at a time.  (Zeros in alternate rows of a single column do
    not reach a stage's middle: the earlier columns' rotations fill them.)"""
    x = np.arange(1.0, m * s + 1.0).reshape(m, s)
    x[::2] = 0.0
    return x


@given(x=_givens_blocks())
@example(x=np.array([[-2.0]]))
@example(x=np.array([[3.0], [0.0], [4.0]]))
@example(x=np.triu(np.arange(1.0, 37.0).reshape(6, 6)).T.copy())
@example(x=_muscle_grid_block(gen_default, kappa=1e14))
@example(x=_muscle_grid_block(gen_monomial, t=50))
@example(x=_muscle_grid_block(gen_default, width=1, kappa=1e14))
@example(x=_muscle_grid_block(gen_monomial, width=2, t=50))
@example(x=np.random.default_rng(10).standard_normal((60, 10)))
@example(x=_alternate_zero_rows(20, 5))
@example(x=np.random.default_rng(12).standard_normal((12, 12)))
@example(x=np.random.default_rng(1).standard_normal((40, 1)))
# Taller than one window of 2s+128 rows: the window slides.
@example(x=np.random.default_rng(2).standard_normal((131, 1)))
@example(x=np.random.default_rng(3).standard_normal((300, 5)))
@example(x=np.random.default_rng(4).standard_normal((700, 10)))
@example(x=_alternate_zero_rows(300, 5))
@example(x=gen_default(400, 5, 2, 42, kappa=1e12).data)
@settings(max_examples=300, deadline=None)
def test_givens_matches_the_two_product_loop_bit_for_bit(x):
    want, got = _givens_oracle(x), givens_qr(x)
    assert not got.failed
    for a, b in ((want.q, got.q), (want.r, got.r)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@given(x=_givens_blocks(), slack=st.sampled_from((0, 1, 2, 5)))
@settings(max_examples=200, deadline=None)
def test_givens_keeps_every_bit_in_a_narrow_window(x, slack):
    # A window of 2s+slack rows slides about every slack+1 stages, so
    # these blocks slide it many times.
    default = muscles._GIVENS_SLACK
    muscles._GIVENS_SLACK = slack
    try:
        got = givens_qr(x)
    finally:
        muscles._GIVENS_SLACK = default
    want = _givens_oracle(x)
    for a, b in ((want.q, got.q), (want.r, got.r)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_givens_holds_a_window_not_an_m_by_m_workspace():
    # The window is 2s+128 rows of s+m doubles, 27.6·m·s doubles at
    # m = 4000, s = 5; the stage products and Q add about 3 more.  So the
    # peak stays under c·m·s doubles with c = 40, where an m-by-(s+m)
    # workspace took m/s = 800.
    m, s = 4000, 5
    x = np.random.default_rng(14).standard_normal((m, s))
    givens_qr(x)  # the stage schedule is cached per shape, O(m) objects
    tracemalloc.start()
    try:
        out = givens_qr(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel_res(x, out.q, out.r) <= 100.0 * EPS
    assert peak <= 40 * m * s * 8


def test_givens_stages_reorder_the_bottom_up_rotations():
    # Rotation (j, i) turns rows i-1, i to zero entry (i, j).  The stages
    # hold every rotation of the bottom-up, column-by-column loop once, in
    # disjoint row pairs that tile a contiguous block of rows, and two
    # rotations that share a row keep their order from that loop.
    for m in range(1, 31):
        for s in range(1, m + 1):
            stage_of = {}
            stages = list(_givens_stages(m, s))
            assert len(stages) <= m + 2 * s - 3
            for t, (top, j0, k) in enumerate(stages):
                assert k >= 1
                rows = []
                for r in range(k):
                    j, i = j0 + r, top + 2 * r + 1
                    assert (j, i) not in stage_of
                    stage_of[j, i] = t
                    rows += [i - 1, i]
                assert rows == list(range(top, top + 2 * k))
            bottom_up = [(j, i) for j in range(s) for i in range(m - 1, j, -1)]
            assert sorted(stage_of) == sorted(bottom_up)
            for row in range(m):
                turns = [
                    stage_of[j, i] for j, i in bottom_up if row in (i - 1, i)
                ]
                assert turns == sorted(set(turns)), (m, s, row)


def test_givens_stages_are_one_tuple_per_shape():
    stages = _givens_stages(100, 5)
    assert _givens_stages(100, 5) is stages
    assert isinstance(stages, tuple)
    assert all(type(stage) is tuple for stage in stages)
    assert stages[0] == (98, 0, 1) and len(stages) == 103


def test_givens_turns_each_stage_with_one_product(monkeypatch):
    # Every product of ``givens_qr`` reads its workspace, so marking the
    # workspace counts them all, written as ``@`` or as ``np.matmul``.
    # Turning one row pair at a time takes about m·s of them (580 at
    # 100-by-5, column s-1 taking two per rotation); the staged loop takes
    # one per stage of m+s-2, plus column s-1's one-column product.
    products = []

    class Marked(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            return getattr(ufunc, method)(
                *(np.asarray(a) for a in inputs), **kwargs
            )

    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(
        vars(np), zeros=lambda *a, **k: np.zeros(*a, **k).view(Marked)
    )
    monkeypatch.setattr(muscles, "np", proxy)
    m, s = 100, 5
    x = np.random.default_rng(8).standard_normal((m, s))
    out = givens_qr(x)
    assert rel_res(x, np.asarray(out.q), np.asarray(out.r)) <= 100.0 * EPS
    assert 0 < len(products) <= 2 * (m + s)


def _house_oracle(x) -> QROutput:
    """Householder QR through numpy, the routine ``house_qr`` replaced."""
    q, r = np.linalg.qr(x, mode="reduced")
    return _fix_signs(q, r)


@st.composite
def _house_blocks(draw):
    """m-by-s blocks, m = s included, with columns scaled over 1e±8, an
    optional zero column, in C order, F order or as a strided view."""
    s = draw(st.integers(1, 12))
    m = s + draw(st.sampled_from((0, 1, 2, 7, 30, 200, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, s)) * 10.0 ** rng.uniform(-8.0, 8.0, s)
    if draw(st.booleans()):
        x[:, rng.integers(s)] = 0.0
    layout = draw(st.sampled_from(("C", "F", "view")))
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "view":
        big = rng.standard_normal((m + 3, 2 * s + 1))
        big[1 : m + 1, 1::2] = x
        return big[1 : m + 1, 1::2]
    return x


@given(x=_house_blocks())
@example(x=np.array([[-2.0]]))
@example(x=np.zeros((3, 2)))
# Wide enough for LAPACK's blocked code, where the minimal workspace
# rounds differently from numpy's optimal one.
@example(x=np.random.default_rng(11).standard_normal((300, 140)))
@settings(max_examples=200, deadline=None)
def test_house_matches_numpy_qr_bit_for_bit(x):
    before = x.copy()
    want, got = _house_oracle(x), house_qr(x)
    assert x.tobytes() == before.tobytes()
    assert not got.failed
    assert got.q.flags.f_contiguous
    for a, b in ((want.q, got.q), (want.r, got.r)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    bad = x.copy()
    bad[-1, -1] = np.nan
    out = house_qr(bad)
    assert out.failed
    assert np.isnan(out.q).all() and np.isnan(out.r).all()


def test_house_qr_holds_one_copy_of_its_block():
    # tracemalloc sees numpy's and the LAPACK wrappers' allocations.  The
    # block is factored and turned into Q in one column-major copy; a
    # wrapper copy for the orgqr workspace query, or a gather of the
    # flipped columns in the sign fix, would each add a second one.  The
    # large diagonal makes every entry of LAPACK's diag(R) negative, so
    # the sign fix flips all columns.
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4000, 50))
    x[:50] += 100.0 * np.eye(50)
    assert x.flags.c_contiguous
    assert (np.diagonal(np.linalg.qr(x, mode="r")) < 0.0).all()
    house_qr(x)
    tracemalloc.start()
    try:
        out = house_qr(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (np.diagonal(out.r) > 0.0).all()
    assert peak <= 1.25 * x.nbytes


@pytest.mark.parametrize("name", sorted(FACTORIZERS))
def test_muscles_reject_blocks_without_columns(name):
    with pytest.raises(ValueError, match="block has no columns"):
        FACTORIZERS[name](np.ones((3, 0)))
