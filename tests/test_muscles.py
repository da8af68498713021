import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blockgs.blockcore import cond_2, spectral_norm
from blockgs.matgen import svd_with_cond
from blockgs.metrics import EPS, loo, rel_res
from blockgs.muscles import (
    CHOL_QR,
    GIVENS_QR,
    HOUSE_QR,
    IO_BY_NAME,
    MGS,
    IOSpec,
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


def test_chol_free_symmetrizes_first():
    g = np.array([[4.0, 2.2], [1.8, 2.0]])  # asymmetric; mean is the example
    fac = chol_free(g)
    assert not fac.failed
    assert_allclose(fac.r, np.array([[2.0, 1.0], [0.0, 1.0]]))


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
        x = svd_with_cond(60, 6, 1.0e9, seed=seed)
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
        x = svd_with_cond(80, 8, kappa, seed=3)
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
