import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import blockgs
from blockgs import matgen
from blockgs.blockcore import BlockMatrix, cond_2, spectral_norm
from blockgs.matgen import (
    calibrate_piled,
    gen_default,
    gen_monomial,
    gen_piled,
    load_bgsm,
    load_matrix_market,
    make_rng,
    save_bgsm,
    save_matrix_market,
    standard_normal,
    svd_with_cond,
    uniform_open,
)


def test_rng_streams_are_reproducible():
    a = standard_normal(make_rng(42), (100,))
    b = standard_normal(make_rng(42), (100,))
    assert a.tobytes() == b.tobytes()
    c = standard_normal(make_rng(43), (100,))
    assert a.tobytes() != c.tobytes()


def test_make_rng_names_the_seed_range():
    make_rng(0)
    make_rng(2**128 - 1)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            make_rng(seed)


def test_uniform_open_stays_strictly_inside_unit_interval():
    u = uniform_open(make_rng(0), (200_000,))
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3


def test_standard_normal_moments():
    z = standard_normal(make_rng(1), (200_000,))
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 1e-2
    assert abs(z.std() - 1.0) < 1e-2


@pytest.mark.parametrize(
    "generator, knob",
    [
        (gen_default, {"kappa": 10.0}),
        (gen_monomial, {"t": 1}),
        (gen_piled, {"kappa_z": 10.0}),
    ],
    ids=["default", "monomial", "piled"],
)
@pytest.mark.parametrize(
    "shape, match",
    [((3, 2, 2), "m >= p"), ((10, 0, 2), "p >= 1"), ((10, 2, 0), "s >= 1")],
    ids=["wide", "no-blocks", "no-columns"],
)
def test_generators_reject_bad_shapes(generator, knob, shape, match):
    with pytest.raises(ValueError, match=match):
        generator(*shape, 0, **knob)


def test_svd_with_cond_hits_target():
    # Recomposing U diag(sigma) V^T perturbs the smallest singular value
    # by ~eps in absolute terms, i.e. ~eps*kappa relative to sigma_min.
    for kappa in (1.0, 1.0e3, 1.0e8, 1.0e12):
        x = svd_with_cond(50, 10, kappa, rng=make_rng(5))
        assert spectral_norm(x) == pytest.approx(1.0, rel=1e-12)
        tolerance = max(1e-12, 100.0 * 2.0**-53 * kappa)
        assert cond_2(x) == pytest.approx(kappa, rel=tolerance)


def test_svd_with_cond_validation():
    with pytest.raises(ValueError, match="rows >= cols"):
        svd_with_cond(3, 5, 10.0, rng=make_rng(0))
    for kappa in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
            svd_with_cond(5, 3, kappa, rng=make_rng(0))


def test_default_family_within_factor_two_of_target():
    for kappa in (1.0, 1.0e4, 1.0e9, 1.0e14):
        measured = cond_2(gen_default(100, 10, 5, 42, kappa=kappa).data)
        assert kappa / 2.0 <= measured <= 2.0 * kappa, kappa


def test_monomial_conditioning_grows_with_panel_length():
    # Longer Krylov panels mean higher powers of A and harder matrices:
    # the conditioning ladder over the divisors of p*s strictly increases.
    ladder = []
    for t in (1, 2, 4, 8):
        ladder.append(cond_2(gen_monomial(100, 4, 2, 42, t=t).data))
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert ladder[0] < 100.0  # unit-norm random vectors: nearly orthogonal
    assert ladder[-1] > 1.0e6


def test_monomial_frozen_ladder_values():
    # Reference points for the m=100, p=10, s=5, seed=42 configuration;
    # these anchor the sweep harness's target-to-rung mapping.
    expected = {1: 4.766e0, 2: 6.848e1, 5: 2.160e5, 10: 9.646e11}
    for t, kappa in expected.items():
        x = gen_monomial(100, 10, 5, 42, t=t)
        assert cond_2(x.data) == pytest.approx(kappa, rel=1e-3)


def test_monomial_validation():
    with pytest.raises(ValueError, match="panel length t >= 1"):
        gen_monomial(100, 4, 2, 42, t=0)
    with pytest.raises(ValueError, match="must divide"):
        gen_monomial(100, 4, 2, 42, t=3)


def test_piled_family_structure():
    x = gen_piled(60, 5, 2, 7, kappa_z=1.0e4)
    assert cond_2(x.block(1)) == pytest.approx(10.0, rel=1e-9)
    assert spectral_norm(x.block(1)) == pytest.approx(1.0, rel=1e-12)
    for k in range(2, 6):
        increment = x.block(k) - x.block(k - 1)
        assert spectral_norm(increment) == pytest.approx(1.0e-4, rel=1e-9)


def test_piled_validation():
    for kappa_z in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="knobs must be finite and >= 1"):
            gen_piled(60, 5, 2, 7, kappa_z=kappa_z)


def test_piled_calibration_hits_targets():
    for target in (1.0e3, 1.0e6, 1.0e10):
        _, measured = calibrate_piled(100, 10, 5, target, seed=42)
        assert abs(np.log10(measured) - np.log10(target)) < 0.1, target


def test_piled_calibration_single_column_blocks():
    _, measured = calibrate_piled(100, 50, 1, 1.0e8, seed=42)
    assert abs(np.log10(measured) - 8.0) < 0.1


def test_piled_calibration_round_trip():
    # A sweep regenerates the calibrated matrix from the returned knob, so
    # that matrix must measure exactly what calibration reported.
    for m, p, s, target in ((100, 10, 5, 1.0e6), (60, 8, 2, 1.0e9)):
        kappa_z, measured = calibrate_piled(m, p, s, target, seed=42)
        x = gen_piled(m, p, s, 42, kappa_z=kappa_z)
        assert cond_2(x.data) == measured


def test_piled_calibration_has_a_floor():
    # The family cannot reach kappa ~ 1: even the weakest knob leaves the
    # cumulative structure around 1e2.  Callers detect the miss.
    _, measured = calibrate_piled(100, 10, 5, 1.0, seed=42)
    assert measured > 50.0


def test_piled_calibration_rejects_bad_target():
    for target in (0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
            calibrate_piled(100, 10, 5, target, seed=42)


def _piled_reference(m, p, s, seed, *, kappa_z):
    """The piled matrix drawn afresh: every factor from the seed's stream."""
    rng = make_rng(seed)
    blocks = [svd_with_cond(m, s, matgen.PILED_KAPPA_X1, rng=rng)]
    for _ in range(2, p + 1):
        z = svd_with_cond(m, s, kappa_z, rng=rng) / kappa_z
        blocks.append(blocks[-1] + z)
    return BlockMatrix(np.hstack(blocks), s, p).data


def _assert_same_matrix(x, ref):
    assert x.dtype == ref.dtype
    assert x.shape == ref.shape
    assert x.flags.f_contiguous == ref.flags.f_contiguous
    assert x.flags.c_contiguous == ref.flags.c_contiguous
    assert x.tobytes() == ref.tobytes()


@given(
    p=st.integers(min_value=1, max_value=6),
    s=st.integers(min_value=1, max_value=4),
    extra_rows=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kappa_zs=st.lists(
        st.floats(min_value=1.0, max_value=1e16), min_size=2, max_size=2
    ),
)
@settings(max_examples=60, deadline=None)
def test_piled_matches_a_fresh_draw_bit_for_bit(
    p, s, extra_rows, seed, kappa_zs
):
    # The second knob reuses the first one's cached factors.
    for kappa_z in kappa_zs:
        args = (p * s + extra_rows, p, s, seed)
        _assert_same_matrix(
            gen_piled(*args, kappa_z=kappa_z).data,
            _piled_reference(*args, kappa_z=kappa_z),
        )


def test_piled_cache_serves_no_stale_factors():
    base = dict(m=40, p=4, s=2, seed=3)
    variants = [
        dict(base, seed=4),
        dict(base, m=41),
        dict(base, p=3),
        dict(base, s=1),
    ]
    for variant in variants:
        for fields in (base, variant, base, variant):
            _assert_same_matrix(
                gen_piled(**fields, kappa_z=1e4).data,
                _piled_reference(**fields, kappa_z=1e4),
            )


def test_piled_output_aliases_no_cached_array():
    for p in (1, 4):
        gen_piled(40, p, 2, 3, kappa_z=1e4).data[:] = np.nan
        _assert_same_matrix(
            gen_piled(40, p, 2, 3, kappa_z=1e4).data,
            _piled_reference(40, p, 2, 3, kappa_z=1e4),
        )


def test_piled_factor_cache_is_read_only_and_holds_one_set():
    assert matgen._piled_factors.cache_info().maxsize == 1
    x1, pairs = matgen._piled_factors(40, 4, 2, 3)
    assert len(pairs) == 3
    for a in (x1, *(f for pair in pairs for f in pair)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


def test_piled_calibration_probe_schedule_is_frozen(monkeypatch):
    # Drawing the factors once changes the cost of a probe, not how many
    # probes run: an out-of-reach target stops after the two end probes,
    # a reachable one runs all 40 bisection steps.
    calls = {"gen_piled": 0, "cond_2": 0}

    def counting(name):
        fn = getattr(matgen, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(matgen, name, counting(name))
    for target, probes in ((1.0, 2), (1.0e8, 42)):
        calls.update(gen_piled=0, cond_2=0)
        calibrate_piled(100, 10, 5, target, seed=42)
        assert calls == {"gen_piled": probes, "cond_2": probes}, target


def test_generation_is_bitwise_deterministic():
    first = gen_monomial(100, 10, 5, 42, t=5).data.tobytes()
    assert gen_monomial(100, 10, 5, 42, t=5).data.tobytes() == first


def test_bgsm_round_trip(tmp_path):
    a = standard_normal(make_rng(11), (7, 3))
    path = tmp_path / "x.bgsm"
    save_bgsm(path, a)
    b = load_bgsm(path)
    assert b.shape == (7, 3)
    assert a.astype(np.float64).tobytes("F") == b.tobytes("F")


def test_bgsm_layout_is_column_major_little_endian(tmp_path):
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "x.bgsm"
    save_bgsm(path, a)
    raw = path.read_bytes()
    assert raw[:4] == b"BGSM"
    assert struct.unpack("<QQ", raw[4:20]) == (2, 2)
    values = struct.unpack("<4d", raw[20:])
    assert values == (1.0, 2.0, 3.0, 4.0)  # column-major order


def test_bgsm_error_paths(tmp_path):
    bad_magic = tmp_path / "bad.bgsm"
    bad_magic.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a BGSM file"):
        load_bgsm(bad_magic)

    truncated = tmp_path / "short.bgsm"
    truncated.write_bytes(b"BGSM" + struct.pack("<QQ", 2, 2) + b"\x00" * 8)
    with pytest.raises(ValueError, match="truncated BGSM payload"):
        load_bgsm(truncated)

    with pytest.raises(ValueError, match="2-d matrices only"):
        save_bgsm(tmp_path / "v.bgsm", np.ones(3))


def test_matrix_market_round_trip(tmp_path):
    a = standard_normal(make_rng(13), (6, 4))
    path = tmp_path / "x.mtx"
    save_matrix_market(path, a)
    assert_allclose(load_matrix_market(path), a, rtol=1e-12, atol=0.0)


def _python(body):
    """Run ``body`` in a fresh interpreter that imports this ``blockgs``."""
    env = dict(os.environ)
    src = str(Path(blockgs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", body], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_blockgs_leaves_scipy_io_unloaded():
    # No sweep reads MatrixMarket, so only its two functions import it.
    out = _python(
        "import sys, blockgs, blockgs.harness\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.io')))\n"
    )
    assert out.strip() == "[]"


def test_default_family_wraps_the_composed_array(monkeypatch):
    made = []

    def recording(u, v, sigma, out):
        made.append(compose(u, v, sigma, out))
        assert made[-1] is out
        return made[-1]

    compose = matgen._compose
    monkeypatch.setattr(matgen, "_compose", recording)
    x = gen_default(60, 4, 3, 5, kappa=1e6)
    assert x.data.flags.f_contiguous
    assert x.data is made[-1]


def test_default_family_generation_peak_memory():
    # Growth of the resident high-water mark while one 20000-by-200 matrix
    # is generated, in units of the matrix's bytes.  Householder QR holds
    # the Gaussian draw and one copy of it, which becomes U; U is scaled by
    # σ in its own storage, so the product holds U·diag(σ) and X: about
    # 2.0 here.  A third tall array (a scaled copy of U, or the copy an
    # orgqr workspace query makes without overwrite_a) reads 3.0.
    out = _python(
        "import resource\n"
        "from blockgs.matgen import gen_default\n"
        "gen_default(200, 20, 10, 42, kappa=1e8)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "x = gen_default(20000, 20, 10, 42, kappa=1e8)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) * 1024 / x.data.nbytes)\n"  # KiB on Linux
    )
    assert float(out) <= 2.5
