"""Every measurement returns a float, NaN exactly when its value is undefined.

The inputs plant NaN or an infinity, scale by 2**±1000, make a matrix
singular, all zero or empty, or push a product or a ratio past the double
range.
Each case states its outcome by construction: a defined case keeps every
product well inside the double range, an undefined one leaves it by
hundreds of binades.  No call may raise or warn.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockgs import matgen
from blockgs.blockcore import cond_2, spectral_norm
from blockgs.harness import SweepConfig, make_combo, run_sweep
from blockgs.matgen import calibrate_piled, gen_default
from blockgs.metrics import loo, rel_chol_res, rel_res, scaled_gram
from blockgs.muscles import CHOL_QR
from blockgs.skeletons import bcgs_a
from blockgs.syncmodel import syncs_per_block

SCALES = (1.0, 2.0**1000, 2.0**-1000)
PLANTS = (np.nan, np.inf, -np.inf)


def _call(fn, *args):
    """``fn(*args)``, failing on any warning; the result must be a float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fn(*args)
    assert type(value) is float, (fn.__name__, type(value))
    return value


def _check(value, defined, name):
    if defined:
        assert math.isfinite(value), (name, value)
    else:
        assert math.isnan(value), (name, value)


@st.composite
def _shapes(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, min(m, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return m, n, rng


def _plant(a, rng, value):
    a = a.copy()
    a[rng.integers(a.shape[0]), rng.integers(a.shape[1])] = value
    return a


def _permuted_diagonal(rng, m, n, d):
    """An m-by-n matrix with singular values |d|, exactly: a diagonal with
    its rows and columns permuted."""
    a = np.zeros((m, n))
    a[np.arange(n), np.arange(n)] = d
    return a[rng.permutation(m)][:, rng.permutation(n)]


@given(shape=_shapes(), scale=st.sampled_from(SCALES), case=st.sampled_from(
    ("plain", "planted", "zero", "singular", "wide range", "huge")
))
@settings(max_examples=300, deadline=None)
def test_norm_and_conditioning(shape, scale, case):
    m, n, rng = shape
    d = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
    if case == "plain":
        a = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
        norm_ok = cond_ok = True
    elif case == "planted":
        a = _plant(rng.standard_normal((m, n)), rng, PLANTS[rng.integers(3)])
        norm_ok = cond_ok = False
    elif case == "zero":
        a, norm_ok, cond_ok = np.zeros((m, n)), True, False
    elif case == "singular":
        d[rng.integers(n)] = 0.0
        a, norm_ok, cond_ok = _permuted_diagonal(rng, m, n, d), True, False
    elif case == "wide range":
        # Singular values 2**600 and 2**-600: kappa = 2**1200 overflows.
        d[0], d[-1] = 2.0**600, 2.0**-600
        a = _permuted_diagonal(rng, m, n, d)
        norm_ok, cond_ok = True, n == 1
        scale = 1.0
    else:  # "huge": the largest singular value leaves the double range
        a = np.full((m, n), 1.5 * 2.0**1023)
        norm_ok = cond_ok = m * n == 1
        scale = 1.0
    a = a * scale
    _check(_call(spectral_norm, a), norm_ok, "spectral_norm")
    _check(_call(cond_2, a), cond_ok, "cond_2")


@given(shape=_shapes(), case=st.sampled_from(
    ("plain", "tiny", "zero", "planted", "gram overflows")
))
@settings(max_examples=200, deadline=None)
def test_loss_of_orthogonality(shape, case):
    m, n, rng = shape
    q = rng.standard_normal((m, n))
    defined = True
    if case == "tiny":
        q *= 2.0**-1000  # Q^T Q underflows to 0: loo is ||I|| = 1
    elif case == "zero":
        q[:] = 0.0
    elif case == "planted":
        q, defined = _plant(q, rng, PLANTS[rng.integers(3)]), False
    elif case == "gram overflows":
        q, defined = q + 2.0 * np.sign(q), False
        q *= 2.0**1000
    _check(_call(loo, q), defined, case)


@st.composite
def _factorizations(draw):
    """(case, X, Q, R, rel_res defined, rel_chol_res defined)."""
    m, n, rng = draw(_shapes())
    x = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
    q = rng.standard_normal((m, n))
    # |diag(R)| >= 3, so a scaled R's first column carries its scale.
    r = np.triu(rng.standard_normal((n, n)), 1) + np.diag(
        3.0 + np.abs(rng.standard_normal(n))
    )
    case = draw(st.sampled_from((
        "plain", "scaled", "zero R", "zero X", "planted X", "planted Q",
        "planted R", "QR overflows", "ratio overflows", "RtR overflows",
    )))
    res_ok = chol_ok = True
    if case == "scaled":
        c = draw(st.sampled_from(SCALES[1:]))
        x, q = x * c, q * c  # X - QR and ||X|| scale alike
        # R stays put while X^T X scales by c**2: at c = 2**-1000 the
        # ratio is 2**2000 in scale.
        chol_ok = c > 1.0
    elif case == "zero R":
        r[:] = 0.0
    elif case == "zero X":
        x[:] = 0.0
        res_ok = chol_ok = False
    elif case.startswith("planted"):
        value = PLANTS[rng.integers(3)]
        if case == "planted X":
            x = _plant(x, rng, value)
        elif case == "planted Q":
            q = _plant(q, rng, value)
        else:
            j = rng.integers(n)
            r[rng.integers(j + 1), j] = value
        res_ok = False
        chol_ok = case == "planted Q"
    elif case == "QR overflows":
        q, r = (q + 2.0 * np.sign(q)) * 2.0**600, r * 2.0**600
        res_ok = chol_ok = False
    elif case == "ratio overflows":
        # ||X - QR|| / ||X|| = 2**2000 in scale.
        x, q = x * 2.0**-1000, q * 2.0**1000
        res_ok = False
        chol_ok = False  # R is 2**1000 times X: R^T R overflows too
    else:  # "RtR overflows"
        r = r * 2.0**600
        chol_ok = False
    return case, x, q, r, res_ok, chol_ok


@given(fac=_factorizations())
@example(fac=(
    "RtR overflows", np.eye(3, 2), np.eye(3, 2), np.diag([1e200, 1.0]),
    True, False,
))
@settings(max_examples=300, deadline=None)
def test_residuals(fac):
    case, x, q, r, res_ok, chol_ok = fac
    _check(_call(rel_res, x, q, r), res_ok, f"rel_res, {case}")
    _check(_call(rel_chol_res, x, r), chol_ok, f"rel_chol_res, {case}")
    gram = scaled_gram(x)
    _check(
        _call(rel_chol_res, x, r, gram), chol_ok, f"rel_chol_res, {case}"
    )


@given(shape=_shapes(), scale=st.sampled_from(SCALES), plant=st.booleans())
@settings(max_examples=100, deadline=None)
def test_scaled_gram(shape, scale, plant):
    m, n, rng = shape
    x = rng.standard_normal((m, n)) * scale
    if plant:
        x = _plant(x, rng, PLANTS[rng.integers(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = scaled_gram(x)
    assert type(stats.lam_max) is float and type(stats.exponent) is int
    _check(stats.lam_max, not plant, "scaled_gram")
    if plant:
        assert stats.exponent == 0 and np.isnan(stats.gram).all()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_syncs_per_block(p):
    result = bcgs_a(gen_default(40, p, 2, 42, kappa=10.0), CHOL_QR, CHOL_QR)
    _check(_call(syncs_per_block, result), p >= 3, f"p={p}")


def _cond_undefined_above(monkeypatch, ceiling, undefined):
    """Make matgen's probes measure ``undefined`` where cond_2 > ceiling;
    returns the list of the probes' readings."""
    readings = []

    def capped(a):
        kappa = cond_2(a)
        readings.append(kappa if kappa <= ceiling else undefined)
        return readings[-1]

    monkeypatch.setattr(matgen, "cond_2", capped)
    return readings


@pytest.mark.parametrize("ceiling", [1.0, 1e5, 1e9, math.inf])
@pytest.mark.parametrize("target", [1e3, 1e7, 1e12])
def test_calibration_treats_an_undefined_probe_as_an_infinite_one(
    monkeypatch, ceiling, target
):
    # A probe whose conditioning is undefined counts as above every target,
    # whether it reads inf or NaN, so the bisection takes the same knobs.
    picks, probes = [], []
    for undefined in (math.inf, math.nan):
        readings = _cond_undefined_above(monkeypatch, ceiling, undefined)
        picks.append(calibrate_piled(60, 6, 3, target, seed=42))
        probes.append(len(readings))
    (kz_inf, kappa_inf), (kz_nan, kappa_nan) = picks
    assert kz_inf == kz_nan and probes[0] == probes[1]
    assert kappa_inf == kappa_nan or (
        math.isinf(kappa_inf) and math.isnan(kappa_nan)
    )
    if ceiling == 1.0:  # even the kappa_z = 1 end probe is undefined
        assert kz_nan == 1.0 and math.isnan(kappa_nan)


def test_sweep_skips_a_point_whose_probes_are_all_undefined(monkeypatch):
    _cond_undefined_above(monkeypatch, 1.0, math.nan)
    config = SweepConfig(
        matrix_class="piled", combos=(make_combo("bcgs"),), kappas=(1e4,),
        m=60, p=6, s=3,
    )
    [rec] = run_sweep(config)
    assert rec.failed and math.isnan(rec.kappa_actual)
    assert all(
        math.isnan(getattr(rec, name))
        for name in ("loo", "rel_res", "rel_chol_res", "sync_per_block")
    )


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_an_empty_matrix_is_undefined(shape):
    a = np.zeros(shape)
    r = np.eye(shape[1])
    _check(_call(spectral_norm, a), False, "spectral_norm")
    _check(_call(cond_2, a), False, "cond_2")
    _check(_call(loo, a), False, "loo")
    _check(_call(rel_res, a, a, r), False, "rel_res")
    _check(_call(rel_chol_res, a, r), False, "rel_chol_res")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = scaled_gram(a)
    assert stats.exponent == 0 and math.isnan(stats.lam_max)
