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

Tall shapes are held to a long-double Gram instead, and every threshold of
the acceptance gate must sit at least 10 times above that floor.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from blockgs.blockcore import spectral_norm
from blockgs.matgen import gen_default, make_rng, svd_with_cond
from blockgs.metrics import C_TOL, EPS, loo, rel_chol_res, rel_res
from blockgs.muscles import (
    CHOL_QR,
    HOUSE_QR,
    chol_qr,
    givens_qr,
    house_qr,
    mgs_qr,
)
from blockgs.skeletons import bcgs_a, bcgsi_a_2s, bcgsi_plus_a

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


@pytest.fixture(scope="module")
def tall_x():
    return gen_default(4000, 20, 10, 42, kappa=1e6)


@pytest.mark.slow
@pytest.mark.parametrize(
    "run",
    [
        lambda x: bcgsi_plus_a(x, HOUSE_QR, CHOL_QR, CHOL_QR),
        lambda x: bcgsi_a_2s(x, HOUSE_QR),
        lambda x: bcgs_a(x, HOUSE_QR, CHOL_QR),
    ],
    ids=["BCGSI+A", "BCGSI+A-2S", "BCGS-A"],
)
def test_loo_agrees_with_a_long_double_gram_at_a_tall_shape(run, tall_x):
    # At 4000x200 the mpmath reference is out of reach; a Gram in
    # np.longdouble (a 64-bit mantissa on x86) rounds I - Q^T Q entrywise
    # 2**11 times finer than float does, so the spectral norm of that
    # difference, rounded to float, stands in for the exact loo.  About 1 s
    # per Gram.
    q = np.asarray(run(tall_x).q.data)
    ql = q.astype(np.longdouble)
    diff = np.eye(q.shape[1], dtype=np.longdouble) - ql.T @ ql
    want = spectral_norm(diff.astype(np.float64))
    assert abs(loo(q) - want) <= 3 * EPS * max(1.0, want)


ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# Names the acceptance gate binds to a measured metric: the record fields,
# and the locals of its single-block and oracle checks.
METRIC_FIELDS = {"loo", "rel_res", "rel_chol_res"}
METRIC_LOCALS = {"lo", "rr", "dq", "dr"}


class _Least:
    """The least value each factor of a threshold can take: a kappa is
    >= 1, a muscle's alpha >= 0, and a norm of X turns an absolute
    threshold into a relative one, so it counts as 1."""

    kappa_actual = 1.0
    alpha = 0
    data = None


_LEAST = {
    "r": _Least,
    "io": _Least,
    "x": _Least,
    "ka": 1.0,
    "xf": 1.0,
    "spectral_norm": lambda _: 1.0,
}


def _mentions_metric(node: ast.AST) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr in METRIC_FIELDS)
        or (isinstance(n, ast.Name) and n.id in METRIC_LOCALS)
        for n in ast.walk(node)
    )


def _acceptance_thresholds() -> list[tuple[int, str, float]]:
    """(line, source, least value) of every threshold a metric meets in
    a comparison of the acceptance gate."""
    tree = ast.parse(ACCEPTANCE.read_text())
    (tol,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TOL"]
    )
    tol = eval(ast.unparse(tol), {"C_TOL": C_TOL, "EPS": EPS})
    env = dict(_LEAST, TOL=tol)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for a, b in zip(operands, operands[1:]):
            for metric, bound in ((a, b), (b, a)):
                if _mentions_metric(metric) and not _mentions_metric(bound):
                    source = ast.unparse(bound)
                    found.append((node.lineno, source, eval(source, env)))
    return found


def test_no_acceptance_threshold_sits_within_ten_times_the_floor():
    # A threshold within C_RESOLVE * eps of a metric cannot tell a pass
    # from a fail; a factor of 10 above that floor keeps the verdicts
    # about the factorizations, not about the metrics' rounding.
    found = _acceptance_thresholds()
    assert len(found) >= 15, found
    floor = 10 * C_RESOLVE * EPS
    assert [t for t in found if not t[2] >= floor] == []
