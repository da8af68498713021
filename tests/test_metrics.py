import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgs.blockcore import BlockMatrix, spectral_norm
from blockgs.metrics import (
    C_TOL,
    EPS,
    BoundSpec,
    bound_envelope,
    loo,
    rel_chol_res,
    rel_res,
    scaled_gram,
)
from blockgs.harness import ConfigError, make_combo
from blockgs.muscles import CHOL_QR, HOUSE_QR, IO_BY_NAME, MGS, house_qr, mgs_qr
from blockgs.skeletons import SKELETONS, SkeletonKind


def test_machine_constants():
    assert EPS == 2.0**-53
    assert EPS == np.finfo(np.float64).eps / 2.0
    assert C_TOL == 100.0


def test_loo_identity_is_zero():
    assert loo(np.eye(5)) == 0.0
    assert loo(np.eye(8)[:, :3]) == 0.0


def test_loo_duplicated_column_is_one():
    q = np.zeros((4, 2))
    q[0, 0] = 1.0
    q[0, 1] = 1.0
    assert loo(q) == pytest.approx(1.0)


def test_loo_nan_on_failed_run():
    q = np.eye(3)
    q[1, 1] = np.nan
    assert math.isnan(loo(q))


def test_rel_res_worked_example():
    # X = 2I factored as Q = I, R = I: half the mass is unexplained.
    x = 2.0 * np.eye(3)
    assert rel_res(x, np.eye(3), np.eye(3)) == pytest.approx(0.5)
    assert rel_res(x, np.eye(3), x) == 0.0


def test_rel_chol_res_worked_example():
    # X = I with R = 2I: ||I - 4I|| / ||I||^2 = 3.
    assert rel_chol_res(np.eye(4), 2.0 * np.eye(4)) == pytest.approx(3.0)
    assert rel_chol_res(np.eye(4), np.eye(4)) == 0.0


def test_metrics_nan_on_non_finite_factors():
    x = np.eye(3)
    bad = np.full((3, 3), np.nan)
    assert math.isnan(rel_res(x, bad, np.eye(3)))
    assert math.isnan(rel_res(x, np.eye(3), bad))
    assert math.isnan(rel_chol_res(x, bad))


def test_relative_residuals_of_a_zero_x_are_nan():
    # 0/0: a zero X has no relative residual, whatever Q and R are.
    x = np.zeros((6, 4))
    q = np.eye(6)[:, :4]
    assert math.isnan(rel_res(x, q, np.zeros((4, 4))))
    assert math.isnan(rel_res(x, q, np.eye(4)))
    assert math.isnan(rel_chol_res(x, np.zeros((4, 4))))
    assert math.isnan(rel_chol_res(x, np.eye(4)))


@pytest.mark.parametrize("scale", [0, 900, -900])
def test_relative_residuals_take_the_shared_gram_bit_for_bit(scale):
    # A sweep forms scaled_gram(X) once and passes it to every run's
    # residuals; they must read exactly what they compute without it.
    # The factors come from the unscaled X, so none overflows at 2^+-900.
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((40, 6))
    x = BlockMatrix(np.ldexp(x0, scale), 2)
    x_gram = scaled_gram(x)
    for runner in (house_qr, mgs_qr):
        out = runner(x0)
        r = np.ldexp(out.r, scale)
        assert rel_res(x, out.q, r, x_gram) == rel_res(x, out.q, r)
        assert rel_chol_res(x, r, x_gram) == rel_chol_res(x, r)
        assert rel_res(x, out.q, r) > 0.0
    assert 0.5 <= np.abs(np.ldexp(x.data, -x_gram.exponent)).max() < 1.0


def test_shared_gram_of_a_zero_x_gives_nan_residuals():
    x = np.zeros((6, 4))
    x_gram = scaled_gram(x)
    assert x_gram.exponent == 0 and x_gram.lam_max == 0.0
    q = np.eye(6)[:, :4]
    for r in (np.zeros((4, 4)), np.eye(4)):
        assert math.isnan(rel_res(x, q, r, x_gram))
        assert math.isnan(rel_res(x, q, r))
        assert math.isnan(rel_chol_res(x, r, x_gram))
        assert math.isnan(rel_chol_res(x, r))


def test_metrics_accept_block_matrices():
    x = BlockMatrix(np.eye(6)[:, :4].copy(), block_width=2)
    assert loo(x) == 0.0
    assert rel_res(x, x, np.eye(4)) == 0.0
    assert rel_chol_res(x, np.eye(4)) == 0.0


@pytest.mark.parametrize("order", ["F", "C"])
def test_rel_res_overwriting_q_reads_the_same_bits(order):
    # The copying default leaves Q as it was; overwrite_q=True may form
    # the residual in Q's own storage, and must read the same value.
    rng = np.random.default_rng(17)
    x = np.asfortranarray(rng.standard_normal((300, 12)))
    out = house_qr(x)
    q = np.array(out.q, order=order)
    before = q.copy()
    want = rel_res(x, q, out.r)
    assert np.array_equal(q, before)
    assert want > 0.0
    assert rel_res(x, q, out.r, overwrite_q=True) == want


def test_rel_res_of_a_nan_r_is_nan_before_the_triangle_check():
    x = np.eye(4)
    r = np.eye(4)
    r[3, 0] = np.nan
    assert math.isnan(rel_res(x, np.eye(4), r))
    assert math.isnan(rel_res(x, np.eye(4), r, overwrite_q=True))


def test_rel_res_rejects_a_non_triangular_r():
    # Q R is a triangular product that reads R's upper triangle only, so
    # an entry below the diagonal would be silently dropped.
    x = np.eye(4)
    r = np.eye(4)
    r[2, 1] = 1e-300
    with pytest.raises(ValueError, match="upper triangular"):
        rel_res(x, np.eye(4), r)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    c=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
)
@settings(max_examples=30, deadline=None)
def test_rel_res_scale_invariance(seed, c):
    # Powers of two scale exactly in binary floating point.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((10, 4))
    q = rng.standard_normal((10, 4))
    r = np.triu(rng.standard_normal((4, 4)))
    assert rel_res(c * x, q, c * r) == rel_res(x, q, r)
    assert rel_chol_res(c * x, c * r) == rel_chol_res(x, r)


def _svd_rel_res(x, q, r):
    return spectral_norm(x - q @ r) / spectral_norm(x)


def _svd_rel_chol_res(x, r):
    return spectral_norm(x.T @ x - r.T @ r) / spectral_norm(x) ** 2


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=12),
    extra_rows=st.integers(min_value=0, max_value=60),
    factors=st.sampled_from(["house", "random"]),
    k=st.sampled_from([0, 600, -600]),
)
@settings(max_examples=60, deadline=None)
def test_tall_norms_match_svd_definitions(seed, n, extra_rows, factors, k):
    # The Gram route agrees with the SVD definitions, on roundoff-level
    # residuals too; X scaled by 2**+-600 would overflow or underflow an
    # unscaled Gram, and power-of-two scaling must change nothing.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n + extra_rows, n))
    if factors == "house":
        out = house_qr(x)
        q, r = out.q, out.r
    else:
        q = rng.standard_normal(x.shape)
        r = np.triu(rng.standard_normal((n, n)))
    c = 2.0**k
    res = rel_res(c * x, q, c * r)
    chol = rel_chol_res(c * x, c * r)
    assert res == pytest.approx(_svd_rel_res(x, q, r), rel=1e-12, abs=0.0)
    assert chol == pytest.approx(_svd_rel_chol_res(x, r), rel=1e-12, abs=0.0)
    assert res == rel_res(x, q, r)
    assert chol == rel_chol_res(x, r)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=8),
    extra_rows=st.integers(min_value=0, max_value=30),
    k=st.sampled_from([0, 600, -600]),
)
@settings(max_examples=30, deadline=None)
def test_tall_norms_exact_zero_residual(seed, n, extra_rows, k):
    # Q holds signed unit columns on disjoint rows and R small integers, so
    # X = QR and X^T X = R^T R hold exactly in floating point.
    rng = np.random.default_rng(seed)
    m = n + extra_rows
    q = np.zeros((m, n))
    q[rng.permutation(m)[:n], np.arange(n)] = rng.choice([-1.0, 1.0], n)
    r = np.triu(rng.integers(-4, 5, (n, n))).astype(np.float64)
    r[np.diag_indices(n)] = rng.integers(1, 5, n)
    c = 2.0**k
    x = c * (q @ r)
    assert rel_res(x, q, c * r) == 0.0
    assert rel_chol_res(x, c * r) == 0.0
    assert math.copysign(1.0, rel_res(x, q, c * r)) == 1.0  # never -0.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_loo_column_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((12, 5)))[0]
    perm = rng.permutation(5)
    assert loo(q[:, perm]) == pytest.approx(loo(q), abs=1e-15)


def _envelope(kind, *muscles):
    """The envelope of skeleton ``kind`` with ``muscles`` in slot order."""
    return SKELETONS[SkeletonKind(kind)].envelope(*muscles)


def test_bound_reorthogonalized_flat_envelope():
    spec = _envelope("bcgsi_plus_a", HOUSE_QR, CHOL_QR, CHOL_QR)
    assert spec.theta == 2
    assert spec.loo_exponent == 0.0
    applicable, bound = bound_envelope(spec, 1.0e7)
    assert applicable
    assert bound == pytest.approx(100.0 * EPS)


def test_bound_reorthogonalized_premise_needs_unconditional_first_block():
    # A first-block muscle with alpha > 0 violates the premise: no envelope.
    for io in (MGS, CHOL_QR):
        assert _envelope("bcgsi_plus", io, io, io) is None
        assert _envelope("bcgsi_plus_a", io, HOUSE_QR, HOUSE_QR) is None


def test_bound_three_sync():
    spec = _envelope("bcgsi_a_3s", HOUSE_QR, HOUSE_QR)
    assert spec.theta == 2
    assert spec.loo_exponent == 1
    applicable, bound = bound_envelope(spec, 1.0e4)
    assert applicable
    assert bound == pytest.approx(100.0 * EPS * 1.0e4)

    # Premise: first block no weaker than the loop muscle.
    tied = _envelope("bcgsi_a_3s", CHOL_QR, CHOL_QR)
    assert tied.theta == 3
    assert tied.loo_exponent == 2

    assert _envelope("bcgsi_a_3s", CHOL_QR, HOUSE_QR) is None
    assert _envelope("bcgsi_a_3s", CHOL_QR, MGS) is None


@pytest.mark.parametrize("kind", ["bcgsi_a_2s", "bcgsi_a_1s"])
def test_bound_low_sync_quadratic_envelope(kind):
    spec = _envelope(kind, HOUSE_QR)
    assert spec.theta == 3.0
    assert spec.loo_exponent == 2.0

    # kappa = 1e4: eps * kappa^3 ~ 1e-4, comfortably applicable.
    applicable, bound = bound_envelope(spec, 1.0e4)
    assert applicable
    assert bound == pytest.approx(100.0 * EPS * 1.0e8)

    # kappa = 1e6: eps * kappa^3 ~ 111 > 1/2, out of the guaranteed zone.
    applicable, _ = bound_envelope(spec, 1.0e6)
    assert not applicable

    assert _envelope(kind, CHOL_QR) == spec  # alpha = 2 still admissible


def test_bound_bcgs_family_has_no_envelope():
    # The paper proves no bound for BCGS or BCGS-A.
    for io in IO_BY_NAME.values():
        assert _envelope("bcgs", io, io) is None
        assert _envelope("bcgs_a", HOUSE_QR, io) is None


ENVELOPE_TABLE = Path(__file__).with_name("bound_envelopes.csv")


def _envelope_table() -> list[str]:
    """One line per combo: every combo ``make_combo`` builds from the four
    muscles in every slot, with its envelope or ``none``."""
    lines = []
    for kind in SkeletonKind:
        combos = {}
        for ios in itertools.product(IO_BY_NAME.values(), repeat=3):
            try:
                combos.setdefault(make_combo(kind, *ios), None)
            except ConfigError:  # a tied skeleton given untied muscles
                continue
        for combo in combos:
            spec = SKELETONS[kind].envelope(*combo.muscles)
            names = [io.kind if io else "" for io in
                     (combo.io_a, combo.io1, combo.io2)]
            if spec is None:
                envelope = ["none"]
            else:
                envelope = [repr(float(spec.theta)),
                            repr(float(spec.loo_exponent))]
            lines.append(",".join([kind.value, *names, *envelope]))
    return lines


def test_bound_envelope_table_is_frozen():
    # skeleton,io_a,io1,io2,theta,loo_exponent (or none: no theorem)
    assert _envelope_table() == ENVELOPE_TABLE.read_text().splitlines()


def test_bound_envelope_edge_cases():
    spec = BoundSpec(theta=3.0, loo_exponent=2.0)
    with pytest.raises(ValueError, match="kappa must be >= 1"):
        bound_envelope(spec, 0.5)
    applicable, _ = bound_envelope(spec, float("nan"))
    assert not applicable  # unmeasurable conditioning is never covered
    applicable, bound = bound_envelope(spec, 1.0)
    assert applicable
    assert bound == pytest.approx(100.0 * EPS)
    # kappa**theta beyond the double range: an infinite ceiling that never
    # applies, not an OverflowError.
    assert bound_envelope(spec, 1.0e200) == (False, math.inf)


@given(kappa=st.floats(min_value=1.0, max_value=1e15))
@settings(max_examples=50, deadline=None)
def test_bound_envelope_monotone_in_kappa(kappa):
    spec = BoundSpec(theta=3.0, loo_exponent=2.0)
    applicable, bound = bound_envelope(spec, kappa)
    assert bound >= 100.0 * EPS
    assert applicable == (EPS * kappa**3 <= 0.5)
