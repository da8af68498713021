"""What the metrics resolve: a few units of eps, in absolute terms.

Each float metric of a small factorization is held to a 40-digit mpmath
value of the same quantity, formed from the same double-precision X, Q
and R, with ``mp.svd_r`` for every spectral norm.  Their gap must stay
below ``C_RESOLVE * eps`` times the larger of 1 and that value: absolute
up to 1, relative above it, where orthogonality is lost outright (CholQR
near eps * kappa**2 ~ 1 gave a loo of 357, off by 3.4 eps relative).
Over 1200 random cases of this strategy the worst gaps were 6.8 eps
(loo), 1.0 eps (rel_res) and 3.8 eps (rel_chol_res), and 3000 more gave
at most 4.7 eps for loo; C_RESOLVE = 10 leaves a margin over them.  So
a measured value within 10 eps of a ceiling cannot be told from it.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from blockgs.matgen import make_rng, svd_with_cond
from blockgs.metrics import EPS, loo, rel_chol_res, rel_res
from blockgs.muscles import chol_qr, givens_qr, house_qr, mgs_qr

C_RESOLVE = 10.0


@st.composite
def _factorizations(draw):
    """(X, Q, R): a muscle's factors of an m-by-n X, m <= 60, n <= 8."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, 60))
    kappa = 10.0 ** draw(st.floats(1.0, 10.0))
    muscle = draw(st.sampled_from((house_qr, givens_qr, mgs_qr, chol_qr)))
    seed = draw(st.integers(0, 2**32 - 1))
    x = svd_with_cond(m, n, kappa, rng=make_rng(seed))
    out = muscle(x)
    assume(not out.failed)  # cholqr past eps * kappa**2 ~ 1
    return x, out.q, out.r


def _norm(a) -> mp.mpf:
    return max(mp.svd_r(a, compute_uv=False))


def _mp(a: np.ndarray) -> mp.matrix:
    return mp.matrix(a.tolist())


@given(fac=_factorizations())
@settings(max_examples=15, deadline=None)
def test_metrics_agree_with_a_40_digit_reference(fac):
    x, q, r = fac
    got = {
        "loo": loo(q),
        "rel_res": rel_res(x, q, r),
        "rel_chol_res": rel_chol_res(x, r),
    }
    with mp.workdps(40):
        xm, qm, rm = _mp(x), _mp(q), _mp(r)
        norm_x = _norm(xm)
        want = {
            "loo": _norm(mp.eye(qm.cols) - qm.T * qm),
            "rel_res": _norm(xm - qm * rm) / norm_x,
            "rel_chol_res": _norm(xm.T * xm - rm.T * rm) / norm_x**2,
        }
        gaps = {
            name: abs(got[name] - want[name]) / (EPS * max(1, want[name]))
            for name in got
        }
    assert max(gaps.values()) <= C_RESOLVE, gaps
