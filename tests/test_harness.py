import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockgs
from blockgs import blockcore, harness, metrics, skeletons
from blockgs.blockcore import BlockMatrix, cond_2
from blockgs.harness import (
    CSV_FIELDS,
    Combo,
    ConfigError,
    RunRecord,
    SweepConfig,
    check_bounds,
    cli_main,
    make_combo,
    read_csv,
    run_single,
    run_sweep,
    sync_table,
    write_csv,
)
from blockgs.matgen import gen_default, gen_monomial, gen_piled
from blockgs.metrics import EPS, bound_envelope
from blockgs.muscles import CHOL_QR, HOUSE_QR, IO_BY_NAME, MGS, IOSpec
from blockgs.skeletons import SKELETONS, SkeletonKind


def _capture(fn, *args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args, **kwargs)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Combos
# ---------------------------------------------------------------------------


def test_make_combo_defaults():
    c = make_combo("bcgs_a")
    assert c.io_a is HOUSE_QR and c.io1 is CHOL_QR and c.io2 is None
    c = make_combo("bcgsi_plus_a")
    assert (c.io_a, c.io1, c.io2) == (HOUSE_QR, CHOL_QR, CHOL_QR)
    c = make_combo("bcgsi_a_1s")
    assert c.io_a is HOUSE_QR and c.io1 is None and c.io2 is None


def test_make_combo_tied_aliases():
    c = make_combo("bcgs")
    assert c.io_a is HOUSE_QR and c.io1 is HOUSE_QR and c.io2 is None
    c = make_combo("bcgs", io_a=CHOL_QR)
    assert c.io_a is CHOL_QR and c.io1 is CHOL_QR
    c = make_combo("bcgsi_plus", io1=MGS)
    assert (c.io_a, c.io1, c.io2) == (MGS, MGS, MGS)
    with pytest.raises(ConfigError, match="ties all muscle slots"):
        make_combo("bcgs", io_a=HOUSE_QR, io1=CHOL_QR)


def test_make_combo_drops_unused_slots():
    c = make_combo("bcgsi_a_2s", io_a=CHOL_QR, io1=MGS, io2=MGS)
    assert c.io_a is CHOL_QR and c.io1 is None and c.io2 is None
    c = make_combo("bcgs_a", io_a=MGS, io2=HOUSE_QR)
    assert c.io2 is None


def test_hand_built_combos_are_validated():
    x = BlockMatrix(np.eye(12)[:, :6].copy(), 2)
    with pytest.raises(ConfigError, match="takes no io1"):
        run_single(x, Combo(SkeletonKind.BCGSI_A_1S, io_a=HOUSE_QR, io1=MGS))
    with pytest.raises(ConfigError, match="requires io1"):
        run_single(x, Combo(SkeletonKind.BCGS_A, io_a=HOUSE_QR))
    with pytest.raises(ConfigError, match="requires tied muscle slots"):
        run_single(x, Combo(SkeletonKind.BCGS, io_a=HOUSE_QR, io1=CHOL_QR))
    # A skeleton given by name is stored as its kind and runs as one.
    by_name = Combo("bcgs_a", HOUSE_QR, CHOL_QR)
    assert by_name == make_combo("bcgs_a")
    assert by_name.skeleton is SkeletonKind.BCGS_A
    runs = [run_single(x, c) for c in (by_name, make_combo("bcgs_a"))]
    for rec in runs:
        rec.elapsed_ms = 0.0
    assert harness._record_row(runs[0]) == harness._record_row(runs[1])
    config = dataclasses.replace(_small_sweep(), combos=(by_name,))
    assert len(run_sweep(config)) == len(config.kappas)
    for name in ("nope", None):
        with pytest.raises(ConfigError, match=f"unknown skeleton {name!r}"):
            Combo(name, HOUSE_QR)
    with pytest.raises(ConfigError, match="unknown skeleton 'nope'"):
        make_combo("nope")


@pytest.mark.parametrize(
    "bad",
    ["houseqr", 1.5, 0.0, IOSpec("foo", 0), IOSpec("houseqr", 1)],
    ids=["string", "float", "zero", "unknown-kind", "unknown-alpha"],
)
def test_combos_take_only_registered_muscles(bad):
    # Only a muscle of IO_BY_NAME runs; anything else is refused when the
    # combo is built, not with an AttributeError or ValueError in a run.
    with pytest.raises(ConfigError, match="must be a registered muscle"):
        Combo("bcgs_a", bad, CHOL_QR)
    with pytest.raises(ConfigError, match="must be a registered muscle"):
        Combo("bcgs_a", HOUSE_QR, bad)
    with pytest.raises(ConfigError, match="must be a registered muscle"):
        Combo("bcgs", bad, bad)
    for kind in ("bcgs", "bcgs_a", "bcgsi_plus_a", "bcgsi_a_1s"):
        with pytest.raises(ConfigError, match="must be a registered muscle"):
            make_combo(kind, io_a=bad)
    with pytest.raises(ConfigError, match="must be a registered muscle"):
        make_combo("bcgsi_plus_a", io2=bad)
    # An equal spec is the registered muscle.
    assert Combo("bcgs_a", IOSpec("houseqr", 0), CHOL_QR) == make_combo("bcgs_a")


@pytest.mark.parametrize(
    "bad", [[1], {}, "houseqr", IOSpec("foo", 0)],
    ids=["list", "dict", "string", "unknown-kind"],
)
@pytest.mark.parametrize("kind", ["bcgs", "bcgsi_plus"])
def test_tied_combos_refuse_unhashable_and_unregistered_muscles(kind, bad):
    # The tied skeletons compare the supplied muscles as a set; a muscle
    # that is not registered, hashable or not, is refused before that with
    # the ConfigError the untied skeletons raise.
    for slot in ("io_a", "io1", "io2"):
        with pytest.raises(ConfigError, match=f"{slot} must be a registered"):
            make_combo(kind, **{slot: bad})
        with pytest.raises(ConfigError, match="must be a registered muscle"):
            make_combo(kind, **{"io_a": HOUSE_QR, slot: bad})
    with pytest.raises(ConfigError, match="io_a must be a registered muscle"):
        make_combo(f"{kind}_a", io_a=bad)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def test_run_single_on_orthonormal_input():
    x = BlockMatrix(np.eye(12)[:, :6].copy(), 2)
    rec = run_single(x, make_combo("bcgsi_plus_a"))
    assert rec.matrix_class == "custom"
    assert rec.skeleton == "BCGSI+A"
    assert (rec.io_a, rec.io1, rec.io2) == ("houseqr", "cholqr", "cholqr")
    assert rec.m == 12 and rec.p == 3 and rec.s == 2
    assert not rec.failed
    assert rec.loo <= 1e-15
    assert rec.rel_res <= 1e-15
    assert rec.kappa_actual == pytest.approx(1.0)
    assert math.isnan(rec.kappa_target)
    assert rec.sync_per_block == pytest.approx(4.0)
    assert rec.elapsed_ms > 0.0


def test_run_single_sync_needs_interior_blocks():
    x = BlockMatrix(np.eye(8)[:, :4].copy(), 2)  # p = 2
    rec = run_single(x, make_combo("bcgs"))
    assert math.isnan(rec.sync_per_block)


def test_run_single_unmeasurable_conditioning():
    data = np.zeros((8, 4))
    data[0, 0] = 1.0  # rank 1: sigma_min = 0, kappa undefined
    x = BlockMatrix(data, 2)
    rec = run_single(x, make_combo("bcgs", io_a=CHOL_QR))
    assert math.isnan(rec.kappa_actual)
    assert rec.failed


def test_run_single_on_a_zero_matrix_returns_a_row():
    rec = run_single(BlockMatrix(np.zeros((6, 4)), 2), make_combo("bcgs"))
    assert math.isnan(rec.kappa_actual)
    assert math.isnan(rec.rel_res) and math.isnan(rec.rel_chol_res)


def test_run_single_failure_yields_nan_metrics():
    # Plain BCGS with a Gram-based muscle collapses on a hard Krylov
    # matrix: either the Cholesky dies or orthogonality is fully lost.
    x = gen_monomial(100, 10, 5, 42, t=10)
    rec = run_single(x, make_combo("bcgs", io_a=CHOL_QR))
    assert rec.failed or rec.loo > 1e-2
    if rec.failed:
        assert math.isnan(rec.loo) and math.isnan(rec.rel_res)


@pytest.mark.parametrize("zero_col", [0, 3], ids=["first-block", "block-2"])
@pytest.mark.parametrize("kind", [k.value for k in SkeletonKind])
def test_run_single_mgs_on_an_exact_zero_column_is_a_failed_row(
    kind, zero_col
):
    # MGS meets an exactly zero pivot: in the first-block slot (every
    # skeleton) or in an inner slot (the skeletons that take one).
    data = np.random.default_rng(5).standard_normal((12, 6))
    data[:, zero_col] = 0.0
    x = BlockMatrix(data, 2)
    rec = run_single(x, make_combo(kind, io_a=MGS, io1=MGS, io2=MGS))
    assert rec.failed
    assert math.isnan(rec.loo)
    assert math.isnan(rec.rel_res) and math.isnan(rec.rel_chol_res)


def test_cli_mgs_pivot_overflow_row_is_failed(tmp_path):
    # The monomial rung nearest 8e199 is finite (entries up to 4.6e197),
    # but MGS's pivot norms overflow on it: the row is a breakdown, with
    # NaN metrics, never a finished row with loo 3.38e1.
    out = tmp_path / "mgs.csv"
    argv = ["sweep", "--matrix", "monomial", "--m", "400", "--p", "40",
            "--s", "10", "--kappas", "8e199", "--skeletons", "bcgs_a",
            "--io-a", "mgs", "--io1", "mgs", "--out", str(out)]
    assert _capture(cli_main, argv)[0] == 0
    (rec,) = read_csv(out)
    assert (rec.skeleton, rec.io_a, rec.io1) == ("BCGS-A", "mgs", "mgs")
    assert rec.failed
    assert math.isnan(rec.loo)
    assert math.isnan(rec.rel_res) and math.isnan(rec.rel_chol_res)


def test_run_single_low_sync_on_moderate_matrix():
    x = gen_monomial(100, 10, 5, 42, t=5)
    kappa = 2.160e5
    rec = run_single(x, make_combo("bcgsi_a_1s"))
    assert not rec.failed
    assert rec.kappa_actual == pytest.approx(kappa, rel=1e-3)
    assert rec.loo <= 100.0 * EPS * rec.kappa_actual**2
    assert rec.rel_res <= 100.0 * EPS
    assert rec.sync_per_block == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tall_x():
    """A 4000x200 default-class X and its scaled Gram, formed once."""
    x = gen_default(4000, 20, 10, 42, kappa=1e8)
    return x, metrics.scaled_gram(x)


@pytest.mark.parametrize("muscle", ["houseqr", "cholqr", "mgs"])
@pytest.mark.parametrize("kind", [k.value for k in SkeletonKind])
def test_run_single_holds_x_q_and_block_sized_scratch(kind, muscle, tall_x):
    # With X, its conditioning and its scaled Gram formed beforehand, as a
    # sweep does, a run holds the Q workspace, R and at most two m-by-s
    # blocks (1.15 of X's bytes at this shape, where n*n = m*s, with loo's
    # n-by-n temporaries 1.20).  Each further live m-by-s block adds 0.05,
    # an m-by-n finiteness mask 0.125.
    x, x_gram = tall_x
    io = IO_BY_NAME[muscle]
    combo = make_combo(kind, io, io, io)
    want = run_single(x, combo, kappa_actual=1e8, x_gram=x_gram)
    tracemalloc.start()
    try:
        rec = run_single(x, combo, kappa_actual=1e8, x_gram=x_gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.failed and rec.rel_res == want.rel_res
    assert peak <= 1.25 * x.data.nbytes


def test_standalone_run_single_forms_x_gram_once(monkeypatch):
    # Without a caller's x_gram, one scaled Gram of X serves both
    # residuals, and a failed run forms none.
    calls = []
    original = metrics.scaled_gram

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(metrics, "scaled_gram", counting)
    monkeypatch.setattr(harness, "scaled_gram", counting)
    x = gen_default(2000, 10, 5, 42, kappa=1e6)
    rec = run_single(x, make_combo("bcgsi_a_2s"))
    assert not rec.failed
    assert len(calls) == 1
    calls.clear()
    rec = run_single(BlockMatrix(np.full((20, 4), np.nan), 2), make_combo("1s"))
    assert rec.failed
    assert calls == []


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _small_sweep():
    return SweepConfig(
        matrix_class="monomial",
        combos=(make_combo("bcgsi_plus_a"), make_combo("bcgsi_a_2s")),
        kappas=(1.0e1, 1.0e6, 1.0e12),
    )


def test_run_sweep_record_grid():
    records = run_sweep(_small_sweep())
    assert len(records) == 6  # 3 targets x 2 combos
    # Ordered (kappa index, combo index):
    assert [r.skeleton for r in records] == [
        "BCGSI+A",
        "BCGSI+A-2S",
    ] * 3
    assert [r.kappa_target for r in records[::2]] == [1.0e1, 1.0e6, 1.0e12]
    # Both combos at one point see the identical matrix.
    for a, b in zip(records[::2], records[1::2]):
        assert a.kappa_actual == b.kappa_actual
    # Targets map to increasing rungs of the divisor ladder.
    actuals = [r.kappa_actual for r in records[::2]]
    assert actuals[0] < actuals[1] < actuals[2]
    assert all(r.elapsed_ms == 0.0 for r in records)


def test_sweep_config_holds_exactly_what_pins_the_csv():
    base = SweepConfig(
        "default", (make_combo("bcgs"),), (1.0e3,), m=12, p=3, s=2, seed=1
    )
    changes = {
        "matrix_class": "monomial",
        "combos": (make_combo("bcgs_a"),),
        "kappas": (1.0e6,),
        "m": 13,
        "p": 2,
        "s": 3,
        "seed": 2,
    }
    assert [f.name for f in dataclasses.fields(SweepConfig)] == list(changes)
    want = run_sweep(base)
    assert run_sweep(base) == want
    for name, value in changes.items():
        assert run_sweep(dataclasses.replace(base, **{name: value})) != want, name


def test_run_sweep_full_grid_all_skeletons():
    combos = tuple(make_combo(kind) for kind in SkeletonKind)
    config = SweepConfig(
        matrix_class="default",
        combos=combos,
        kappas=tuple(np.logspace(0, 14, 8)),
    )
    records = run_sweep(config)
    assert len(records) == 56  # 8 targets x 7 skeletons
    for kind in SkeletonKind:
        name = {
            "bcgs": "BCGS",
            "bcgs_a": "BCGS-A",
            "bcgsi_plus": "BCGSI+",
            "bcgsi_plus_a": "BCGSI+A",
            "bcgsi_a_3s": "BCGSI+A-3S",
            "bcgsi_a_2s": "BCGSI+A-2S",
            "bcgsi_a_1s": "BCGSI+A-1S",
        }[kind.value]
        mine = [r for r in records if r.skeleton == name]
        assert len(mine) == 8
        actuals = [r.kappa_actual for r in mine]
        assert all(a < b for a, b in zip(actuals, actuals[1:]))


def test_run_sweep_gives_every_combo_at_a_point_the_same_matrix(monkeypatch):
    seen, synced = [], []
    real = harness.run_single
    real_syncs = harness.syncs_per_block

    def recording(x, combo, **kwargs):
        seen.append((kwargs["kappa_target"], x.data.tobytes(order="F")))
        return real(x, combo, **kwargs)

    def counting(result):
        synced.append(real_syncs(result))
        return synced[-1]

    # Both hooks are read through the module globals at call time.
    monkeypatch.setattr(harness, "run_single", recording)
    monkeypatch.setattr(harness, "syncs_per_block", counting)
    config = _small_sweep()
    assert config.p >= 3
    records = run_sweep(config)
    assert len(seen) == len(records) == 6
    assert synced == [r.sync_per_block for r in records]
    points = [seen[i : i + 2] for i in range(0, 6, 2)]
    for kt, point in zip(config.kappas, points):
        assert [k for k, _ in point] == [kt, kt]
        assert point[0][1] == point[1][1]  # same point, same bytes
    for a, b in zip(points, points[1:]):
        assert a[0][1] != b[0][1]  # consecutive points, different matrices


def test_sweep_metrics_take_no_tall_svd(monkeypatch):
    metric_shapes, svd_shapes = [], []

    def recording(fn, shapes):
        def wrapped(a):
            shapes.append(np.shape(a))
            return fn(a)

        return wrapped

    monkeypatch.setattr(
        metrics, "spectral_norm", recording(metrics.spectral_norm, metric_shapes)
    )
    monkeypatch.setattr(
        blockcore,
        "_singular_values",
        recording(blockcore._singular_values, svd_shapes),
    )
    m, p, s = 2000, 4, 5
    kappas = (1.0e2, 1.0e6)
    config = SweepConfig(
        matrix_class="default",
        combos=tuple(make_combo(kind) for kind in SkeletonKind),
        kappas=kappas,
        m=m,
        p=p,
        s=s,
    )
    records = run_sweep(config)
    assert sum(not r.failed for r in records) >= len(SkeletonKind)
    assert metric_shapes
    assert all(rows <= p * s for rows, _ in metric_shapes)
    # cond_2 is the only tall SVD: one per sweep point.
    assert [sh for sh in svd_shapes if sh[0] > p * s] == [(m, p * s)] * len(kappas)


def test_run_sweep_piled_calibration_miss_is_skipped():
    config = SweepConfig(
        matrix_class="piled",
        combos=(make_combo("bcgsi_a_1s"),),
        kappas=(1.0, 1.0e6),  # the piled family cannot reach kappa ~ 1
    )
    records = run_sweep(config)
    assert len(records) == 2
    skipped, good = records
    assert skipped.note.startswith("piled calibration missed target")
    assert skipped.failed and math.isnan(skipped.kappa_actual)
    assert math.isnan(skipped.loo)
    assert good.note == ""
    assert not good.failed
    assert abs(math.log10(good.kappa_actual) - 6.0) < 0.1


def test_run_sweep_on_an_overflowing_matrix_fails_its_rows():
    # The longest monomial panel, up to A^319 v with eigenvalues of A near
    # 10, overflows: X holds inf, its conditioning is unmeasurable, every
    # run fails, and the sweep still returns one NaN row per combo.
    config = SweepConfig(
        matrix_class="monomial",
        combos=(make_combo("bcgsi_plus_a"), make_combo("bcgsi_a_2s")),
        kappas=(1.0e300,),
        m=320,
        p=2,
        s=160,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ((_, x, _, _),) = harness._sweep_points(config)
        assert not np.isfinite(x.data).all()
        records = run_sweep(config)
    assert len(records) == 2
    for rec in records:
        assert rec.failed and math.isnan(rec.kappa_actual)
        assert math.isnan(rec.loo) and math.isnan(rec.rel_res)


def test_monomial_targets_map_to_the_nearest_rung():
    # Each target gets the rung nearest in log10 kappa, the earlier one on
    # a tie, as ``min`` over the whole ladder picks it.
    m, p, s = 60, 4, 6
    ladder = []
    for t in harness._divisors(p * s):
        x = gen_monomial(m, p, s, 42, t=t)
        ladder.append((x, cond_2(x.data)))
    logs = [math.log10(ka) for _, ka in ladder]
    kappas = tuple(np.logspace(0, 20, 41)) + tuple(ka for _, ka in ladder)
    config = SweepConfig(
        matrix_class="monomial", combos=(make_combo("bcgs"),),
        kappas=kappas, m=m, p=p, s=s,
    )
    for kt, x, ka, _ in harness._sweep_points(config):
        want = min(
            range(len(ladder)), key=lambda i: abs(logs[i] - math.log10(kt))
        )
        assert ka == ladder[want][1]
        assert np.array_equal(x.data, ladder[want][0].data)


def test_monomial_sweep_frees_the_rungs_no_target_chose():
    # 12 divisor rungs at this shape.  Walking the ladder holds the nearest
    # rung so far and the rung being measured; the run adds Q and R.
    # Keeping every rung peaked at 13.3 times X.
    config = SweepConfig(
        matrix_class="monomial",
        combos=(make_combo("bcgsi_plus_a"),),
        kappas=(1.0e6,),
        m=2000,
        p=12,
        s=5,
    )
    x_bytes = config.m * config.p * config.s * 8
    run_sweep(config)
    tracemalloc.start()
    try:
        (rec,) = run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.failed
    assert peak <= 3 * x_bytes


def test_run_sweep_config_validation():
    # A SweepConfig checks itself when it is built, so a bad one never
    # reaches run_sweep.
    good = _small_sweep()
    for name, value, fragment in (
        ("matrix_class", "krylov", "unknown matrix class 'krylov'"),
        ("combos", (), "no skeleton/muscle combinations"),
        ("kappas", (), "no kappa sweep points"),
        ("kappas", (10.0, 0.5), "kappa targets must be finite and >= 1"),
        ("kappas", (math.nan,), "kappa targets must be finite and >= 1"),
        ("m", 49, "must be tall (m >= p*s), got m=49, p=10, s=5"),
        ("p", 0, "must be >= 1 (p >= 1, s >= 1), got m=100, p=0, s=5"),
        ("s", -1, "must be >= 1 (p >= 1, s >= 1), got m=100, p=10, s=-1"),
        ("seed", -1, "seed must be in [0, 2**128)"),
        ("seed", 2**128, "seed must be in [0, 2**128)"),
    ):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            dataclasses.replace(good, **{name: value})


@pytest.mark.parametrize(
    "name,value,fragment",
    [
        ("combos", ("bcgs",), "combos must be Combo objects"),
        ("kappas", ("10",), "kappa targets must be real, got '10'"),
        ("kappas", (True,), "kappa targets must be real, got True"),
        ("m", 100.0, "m must be an integer, got 100.0"),
        ("p", "10", "p must be an integer, got '10'"),
        ("s", 5.0, "s must be an integer, got 5.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        # bool is an Integral, but True would run as 1.
        ("m", True, "m must be an integer, got True"),
        ("p", True, "p must be an integer, got True"),
        ("s", False, "s must be an integer, got False"),
        ("seed", True, "seed must be an integer, got True"),
    ],
)
def test_sweep_config_rejects_wrong_types(name, value, fragment):
    # A wrongly typed field raises ConfigError when the config is built,
    # not a TypeError or AttributeError later in run_sweep.
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        dataclasses.replace(_small_sweep(), **{name: value})


def test_sweep_config_keeps_generators_and_lists_as_tuples():
    base = _small_sweep()
    as_tuple = run_sweep(base)
    for wrap in (list, iter, lambda seq: (item for item in seq)):
        config = SweepConfig(
            base.matrix_class, wrap(base.combos), wrap(base.kappas)
        )
        assert config == base and hash(config) == hash(base)
        assert isinstance(config.combos, tuple)
        assert isinstance(config.kappas, tuple)
        assert run_sweep(config) == as_tuple
    for name in ("combos", "kappas"):
        with pytest.raises(ConfigError, match=f"{name} must be iterable"):
            dataclasses.replace(base, **{name: None})


def test_sweep_config_takes_numpy_scalars():
    config = dataclasses.replace(
        _small_sweep(),
        kappas=(np.float64(10.0),),
        m=np.int64(100),
        p=np.int32(10),
        s=np.int64(5),
        seed=np.uint64(42),
    )
    assert len(run_sweep(config)) == len(config.combos)


def _accepts(build, error=ValueError) -> bool:
    try:
        build()
    except error:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(m=st.integers(-2, 7), p=st.integers(-2, 3), s=st.integers(-2, 3))
def test_every_shape_reader_accepts_the_same_partitions(m, p, s):
    # SweepConfig, the generators, BlockMatrix and read_csv all ask
    # blockcore.check_partition, so they accept exactly p, s >= 1 and
    # m >= p*s; a config says no with ConfigError.
    want = p >= 1 and s >= 1 and m >= p * s
    combos = (make_combo("bcgs_a"),)
    def config():
        return SweepConfig("default", combos, (10.0,), m, p, s)

    assert _accepts(config, ConfigError) == want
    assert _accepts(lambda: gen_default(m, p, s, 0, kappa=10.0)) == want
    assert _accepts(lambda: gen_monomial(m, p, s, 0, t=1)) == want
    assert _accepts(lambda: gen_piled(m, p, s, 0, kappa_z=10.0)) == want
    if m >= 0 and p * s >= 0:
        data = np.zeros((m, p * s))
        assert _accepts(lambda: BlockMatrix(data, s, p)) == want
    rec = RunRecord(
        "default", m, p, s, 10.0, 10.0, "BCGS-A", "houseqr", "cholqr", ""
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shape.csv"
        path.write_text(_HEADER + ",".join(harness._record_row(rec)) + "\n")
        assert _accepts(lambda: read_csv(path)) == want


def _same_field(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize(
    "matrix_class, kappas",
    [
        ("default", (1.0e2, 1.0e10, 1.0e15)),
        ("monomial", (1.0e1, 1.0e8)),
        ("piled", (1.0e3, 1.0e12)),
    ],
)
def test_run_sweep_rows_equal_run_single_rows(matrix_class, kappas):
    # A sweep measures each point once (cond_2 and the metrics' scaled
    # Gram matrix) and shares it across the combos; each row must still be
    # what a standalone run_single on that matrix measures, field for field.
    combos = tuple(make_combo(kind) for kind in SkeletonKind) + (
        make_combo("bcgsi_plus_a", io_a=MGS, io1=MGS, io2=MGS),
    )
    config = SweepConfig(
        matrix_class=matrix_class, combos=combos, kappas=kappas,
        m=60, p=6, s=3,
    )
    records = iter(run_sweep(config))
    compared = 0
    for kt, x, _, note in harness._sweep_points(config):
        assert note == ""
        for combo in combos:
            swept = next(records)
            alone = run_single(
                x, combo, matrix_class=matrix_class, kappa_target=kt
            )
            alone.elapsed_ms = 0.0
            for f in dataclasses.fields(RunRecord):
                a, b = getattr(swept, f.name), getattr(alone, f.name)
                assert _same_field(a, b), (f.name, a, b)
            compared += 1
    assert compared == len(kappas) * len(combos)
    assert next(records, None) is None


def test_run_sweep_is_deterministic():
    a = run_sweep(_small_sweep())
    b = run_sweep(_small_sweep())
    assert a == b


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    records = run_sweep(_small_sweep())
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert lines[0] == (
        "matrix_class,m,p,s,kappa_target,kappa_actual,skeleton,"
        "io_a,io1,io2,loo,rel_res,rel_chol_res,sync_per_block,"
        "failed,elapsed_ms"
    )
    assert len(lines) == 7
    assert text.endswith("\n") and "\r" not in text

    back = read_csv(path)
    assert len(back) == len(records)
    for orig, copy in zip(records, back):
        # %.16e preserves doubles exactly.
        assert copy.loo == orig.loo or (
            math.isnan(copy.loo) and math.isnan(orig.loo)
        )
        assert copy.kappa_actual == orig.kappa_actual
        assert copy.failed == orig.failed
        assert copy.skeleton == orig.skeleton


def test_csv_float_and_empty_field_formatting(tmp_path):
    rec = RunRecord(
        matrix_class="custom",
        m=10,
        p=2,
        s=1,
        kappa_target=math.nan,
        kappa_actual=1.0,
        skeleton="BCGSI+A-1S",
        io_a="houseqr",
        io1="",
        io2="",
        loo=0.5,
        rel_res=math.nan,
        rel_chol_res=0.0,
        sync_per_block=math.nan,
        failed=False,
        elapsed_ms=0.0,
    )
    path = tmp_path / "one.csv"
    write_csv([rec], path)
    row = path.read_text().splitlines()[1]
    assert row == (
        "custom,10,2,1,NaN,1.0000000000000000e+00,BCGSI+A-1S,houseqr,,,"
        "5.0000000000000000e-01,NaN,0.0000000000000000e+00,NaN,false,"
        "0.0000000000000000e+00"
    )
    back = read_csv(path)[0]
    assert back.io1 == "" and back.io2 == ""
    assert math.isnan(back.kappa_target) and not back.failed


@pytest.mark.parametrize(
    "label", ["my,label", 'a "quoted" label', "two\nlines", 'all,"\r\nthree"']
)
def test_csv_round_trips_free_text_labels(label, tmp_path):
    # run_single writes any matrix_class; a comma, a quote or a line break
    # is quoted, and check-bounds names the line a record ends on.
    x = gen_default(40, 4, 2, 42, kappa=10.0)
    rec = run_single(x, make_combo("bcgsi_a_2s"), matrix_class=label)
    rec.elapsed_ms = 0.0
    path = tmp_path / "label.csv"
    write_csv([rec, rec], path)
    assert read_csv(path) == [rec, rec]
    rec.loo = 1.0
    write_csv([rec, rec], path)
    out = io.StringIO()
    (*_, last) = check_bounds(path, out=out)
    assert last.startswith(f"{path}:{1 + 2 * (1 + label.count(chr(10)))}: ")


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_csv(path)


def test_write_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="cannot write CSV to"):
        write_csv([], tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# Bound checking
# ---------------------------------------------------------------------------


def test_check_bounds_clean_sweep(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(run_sweep(_small_sweep()), path)
    out = io.StringIO()
    violations = check_bounds(path, out=out)
    assert violations == []
    # Applicability by hand: the flat reorthogonalized envelope covers
    # kappa up to ~6.7e7 (2 of 3 rungs), the cubic-premise low-sync
    # envelope only the first rung: 3 checked rows.
    assert out.getvalue().splitlines()[0] == (
        "checked 3 applicable rows out of 6: 0 violation(s)"
    )


def test_check_bounds_flags_corrupted_row(tmp_path):
    records = run_sweep(_small_sweep())
    records[0].loo = 1.0  # way above the flat 100*eps ceiling
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    out = io.StringIO()
    violations = check_bounds(path, out=out)
    assert len(violations) == 1
    assert "BCGSI+A" in violations[0]
    assert "exceeds bound" in violations[0]
    assert ":2:" in violations[0]  # line number of the first data row


def test_check_bounds_treats_covered_failure_as_violation(tmp_path):
    records = run_sweep(_small_sweep())
    records[1].loo = math.nan  # 2S at the easy rung: envelope applies
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    assert len(check_bounds(path, out=io.StringIO())) == 1


def test_check_bounds_reads_a_kappa_whose_powers_overflow(tmp_path):
    # A long monomial panel can measure a finite kappa near 1e200, whose
    # square and cube leave the double range: such a row is out of every
    # envelope's reach, and check-bounds reports it rather than raising.
    records = run_sweep(_small_sweep())
    for rec in records:
        rec.kappa_actual = 8.4e199
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    code, out, err = _capture(cli_main, ["check-bounds", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "checked 0 applicable rows out of 6: 0 violation(s)"
    ]


def test_check_bounds_skips_uncovered_and_skipped_rows(tmp_path):
    # No theorem covers plain BCGS, nor BCGSI+ with a Gram-based first
    # block; calibration skips carry NaN kappa and NaN loo.  None of these
    # rows may be counted as checked, even with a loss of orthogonality far
    # above any ceiling (a NaN loo on a checked row is a violation).
    config = SweepConfig(
        matrix_class="piled",
        combos=(make_combo("bcgs"), make_combo("bcgsi_plus", CHOL_QR)),
        kappas=(1.0, 100.0),
    )
    records = run_sweep(config)
    for rec in records:
        if not rec.failed:
            rec.loo = 1.0e300
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    out = io.StringIO()
    assert check_bounds(path, out=out) == []
    assert out.getvalue().splitlines()[0] == (
        "checked 0 applicable rows out of 4: 0 violation(s)"
    )


# Every (combo, s) of the frozen envelope table (skeleton,io_a,io1,io2,s,...).
ENVELOPE_COMBOS = tuple(
    (Combo(kind, *(IO_BY_NAME.get(name) for name in names)), int(s))
    for kind, *names, s in (
        line.split(",")[:5]
        for line in Path(__file__)
        .with_name("bound_envelopes.csv")
        .read_text()
        .splitlines()
    )
)


@settings(max_examples=300, deadline=None)
@given(
    combo_s=st.sampled_from(ENVELOPE_COMBOS),
    kappa=st.floats(0.0, 17.0).map(lambda e: 10.0**e),
    loo=st.floats(min_value=0.0, allow_infinity=False) | st.just(math.nan),
)
def test_check_bounds_round_trip(tmp_path_factory, combo_s, kappa, loo):
    # A written row is checked exactly when its combo's envelope applies
    # at its kappa and block width, and flagged exactly when its loo is
    # NaN or above the ceiling there.
    combo, s = combo_s
    rec = harness._record(
        combo, "default", (100, 10, s), kappa, kappa, loo=loo, failed=False
    )
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_csv([rec], path)
    out = io.StringIO()
    violations = check_bounds(path, out=out)
    spec = SKELETONS[combo.skeleton].envelope(*combo.muscles, s=s)
    applicable, bound = (
        (False, math.nan) if spec is None else bound_envelope(spec, kappa)
    )
    assert out.getvalue().splitlines()[0] == (
        f"checked {int(applicable)} applicable rows out of 1:"
        f" {len(violations)} violation(s)"
    )
    flagged = applicable and (math.isnan(loo) or loo > bound)
    assert len(violations) == int(flagged)


# ---------------------------------------------------------------------------
# Sync table
# ---------------------------------------------------------------------------


def test_sync_table_values():
    assert dict(sync_table()) == {
        "BCGS": 2.0,
        "BCGS-A": 2.0,
        "BCGSI+": 4.0,
        "BCGSI+A": 4.0,
        "BCGSI+A-3S": 3.0,
        "BCGSI+A-2S": 2.0,
        "BCGSI+A-1S": 1.0,
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_writes_csv(tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, _ = _capture(
        cli_main,
        [
            "sweep",
            "--matrix",
            "monomial",
            "--skeletons",
            "1s,2s",
            "--kappas",
            "1e1,1e6",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert f"wrote 4 records to {out_path}" in out
    records = read_csv(out_path)
    assert [r.skeleton for r in records] == [
        "BCGSI+A-1S",
        "BCGSI+A-2S",
    ] * 2
    assert all(r.io_a == "houseqr" for r in records)
    # The dimensions left unset take SweepConfig's defaults, as --help says.
    assert {(r.m, r.p, r.s) for r in records} == {(100, 10, 5)}
    help_out = io.StringIO()
    with contextlib.redirect_stdout(help_out), pytest.raises(SystemExit):
        cli_main(["sweep", "--help"])
    help_text = " ".join(help_out.getvalue().split())
    for phrase in (
        "rows (default 100)",
        "blocks (default 10)",
        "columns per block (default 5)",
    ):
        assert phrase in help_text


def test_skeleton_registry_round_trips(tmp_path):
    # Every spelling the registry lists parses back to its kind, and
    # check-bounds resolves every display name a sweep writes.
    for kind, spec in skeletons.SKELETONS.items():
        spellings = (kind.value, spec.display, spec.display.lower())
        for token in spellings + spec.shorthands:
            assert harness._parse_skeleton(token) is kind
    assert set(skeletons.SKELETONS) == set(SkeletonKind)
    config = SweepConfig(
        matrix_class="default",
        combos=tuple(make_combo(kind) for kind in SkeletonKind),
        kappas=(10.0,),
        m=40,
        p=4,
        s=2,
    )
    path = tmp_path / "all.csv"
    write_csv(run_sweep(config), path)
    out = io.StringIO()
    assert check_bounds(path, out=out) == []
    assert out.getvalue().endswith("out of 7: 0 violation(s)\n")


def test_cli_sweep_accepts_display_name_aliases(tmp_path):
    out_path = tmp_path / "run.csv"
    code, _, _ = _capture(
        cli_main,
        [
            "sweep",
            "--matrix",
            "monomial",
            "--skeletons",
            "BCGSI+A,bcgs",
            "--io-a",
            "houseqr",
            "--kappas",
            "10",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert [r.skeleton for r in read_csv(out_path)] == ["BCGSI+A", "BCGS"]


def test_cli_sweep_kappa_range(tmp_path):
    out_path = tmp_path / "run.csv"
    code, _, _ = _capture(
        cli_main,
        [
            "sweep",
            "--matrix",
            "default",
            "--skeletons",
            "bcgsi_plus_a",
            "--kappa-range",
            "1e2:1e6:3",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    targets = [r.kappa_target for r in read_csv(out_path)]
    assert targets == pytest.approx([1e2, 1e4, 1e6])


@pytest.mark.parametrize("spec", ["1:inf:3", "1e2:1e400:2"])
def test_cli_sweep_kappa_range_rejects_an_infinite_end(tmp_path, spec):
    # The infinite end is a configuration error, named as given, before
    # np.logspace could warn on it.
    out_path = tmp_path / "run.csv"
    argv = ["sweep", "--matrix", "default", "--kappa-range", spec,
            "--out", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _capture(cli_main, argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("blockgs: error: ") and "inf" in line
    assert not out_path.exists()


def test_cli_sweep_kappa_range_count_too_large_exits_2(tmp_path, monkeypatch):
    # A count past numpy's largest array fails before anything is allocated.
    out_path = tmp_path / "run.csv"
    argv = ["sweep", "--matrix", "default", "--kappa-range",
            f"1:10:{10**20}", "--out", str(out_path)]
    code, out, err = _capture(cli_main, argv)
    assert (code, out) == (2, "")
    assert err.startswith("blockgs: error: --kappa-range count")
    assert not out_path.exists()

    # A count numpy accepts but cannot allocate; never really asked for.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(harness.np, "logspace", no_memory)
    argv[4] = "1:10:100000000000"
    code, out, err = _capture(cli_main, argv)
    assert (code, out) == (2, "")
    assert "745. GiB" in err and err.startswith("blockgs: error: ")
    assert not out_path.exists()


def test_cli_sweep_reports_calibration_skips(tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, _ = _capture(
        cli_main,
        [
            "sweep",
            "--matrix",
            "piled",
            "--skeletons",
            "1s",
            "--kappas",
            "1,1e4",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert "(1 skipped by calibration)" in out


def test_cli_byte_determinism(tmp_path):
    argv_for = lambda path: [
        "sweep",
        "--matrix",
        "monomial",
        "--skeletons",
        "bcgsi_plus_a,3s",
        "--kappas",
        "1e1,1e6,1e12",
        "--out",
        str(path),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _capture(cli_main, argv_for(a))[0] == 0
    assert _capture(cli_main, argv_for(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_check_bounds_exit_codes(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(run_sweep(_small_sweep()), path)
    code, out, _ = _capture(cli_main, ["check-bounds", str(path)])
    assert code == 0
    assert "0 violation(s)" in out

    records = run_sweep(_small_sweep())
    records[0].loo = 1.0
    write_csv(records, path)
    code, out, _ = _capture(cli_main, ["check-bounds", str(path)])
    assert code == 1
    assert "1 violation(s)" in out


_HEADER = ",".join(CSV_FIELDS) + "\n"


def _row(skeleton, io_a="", io1="", io2="", kappa_actual=10.0):
    """A header and one well-formed row (line 2) naming this combo."""
    rec = RunRecord(
        "default", 40, 4, 2, 10.0, kappa_actual, skeleton, io_a, io1, io2,
        1e-15, 1e-16, 1e-16, 2.0, False, 0.0,
    )
    return _HEADER + ",".join(harness._record_row(rec)) + "\n"


@pytest.mark.parametrize(
    "command,setup,fragment",
    [
        pytest.param("check-bounds", None, "No such file", id="missing-csv"),
        pytest.param("check-bounds", "dir", "Is a directory", id="dir-csv"),
        pytest.param(
            "check-bounds", "a,b,c\n1,2,3\n", "unexpected CSV header",
            id="garbled-header",
        ),
        pytest.param(
            "check-bounds", _HEADER + "monomial,ten\n",
            ":2: expected 16 fields", id="short-row",
        ),
        pytest.param(
            "check-bounds", _HEADER + ",".join(["x"] * 16) + "\n",
            ":2: invalid literal", id="garbled-row",
        ),
        pytest.param(
            "check-bounds",
            _row("BCGSI+A-2S", "houseqr").replace(",false,", ",maybe,"),
            ":2: expected true or false, got 'maybe'", id="garbled-failed-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGS", "houseqr", "cholqr"),
            ":2: BCGS requires tied muscle slots", id="untied-bcgs-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGSI+A", "houseqr", "", "cholqr"),
            ":2: BCGSI+A requires io1", id="missing-io1-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGSI+A-2S", "houseqr", "cholqr"),
            ":2: BCGSI+A-2S takes no io1", id="extra-io1-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGSI+A-2S", "houseqr", kappa_actual=0.5),
            ":2: kappa must be >= 1", id="sub-1-kappa-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGS-A", " HouseQR ", "cholqr"),
            ":2: unknown muscle ' HouseQR ' in column io_a",
            id="padded-muscle-row",
        ),
        pytest.param(
            "check-bounds", _row("BCGS-A", "houseqr", "CHOLQR"),
            ":2: unknown muscle 'CHOLQR' in column io1",
            id="upper-case-muscle-row",
        ),
        pytest.param(
            "sweep", None, "cannot write CSV to", id="unwritable-out"
        ),
    ],
)
def test_cli_unreadable_or_unwritable_files_exit_2(
    command, setup, fragment, tmp_path, monkeypatch
):
    path = tmp_path / "no" / "such.csv"
    if setup == "dir":
        path = tmp_path
    elif setup is not None:
        path = tmp_path / "garbled.csv"
        path.write_text(setup)
    if command == "sweep":
        argv = ["sweep", "--matrix", "monomial", "--skeletons", "1s",
                "--kappas", "10", "--out", str(path)]
    else:
        argv = ["check-bounds", str(path)]
    generated = []

    def gen_monomial(*args, **knob):
        generated.append(args)
        raise AssertionError("a matrix was generated")

    monkeypatch.setattr(harness, "gen_monomial", gen_monomial)
    code, out, err = _capture(cli_main, argv)
    assert code == 2
    assert err.startswith("blockgs: error:") and err.count("\n") == 1
    assert fragment in err
    assert "Traceback" not in err + out
    # An unwritable --out is found before the sweep generates anything.
    assert generated == []


def _respelled_row(column, token):
    """``_row``'s well-formed BCGSI+A-2S row with one cell respelled."""
    cells = _row("BCGSI+A-2S", "houseqr").splitlines()[1].split(",")
    cells[CSV_FIELDS.index(column)] = token
    return _HEADER + ",".join(cells) + "\n"


@pytest.mark.parametrize(
    "column,token,fragment",
    [
        ("m", "4_0", "'4_0'"),
        ("m", " 40", "' 40'"),
        ("p", "+4", "'+4'"),
        ("s", "02", "'02'"),
        ("kappa_actual", "nan", "'nan'"),
        ("kappa_actual", "inf", "'inf'"),
        ("kappa_target", "-inf", "'-inf'"),
        ("loo", "1e2", "'1e2'"),
        ("loo", "1.0e-15", "'1.0e-15'"),
        ("p", "0", "p=0"),
        ("s", "0", "s=0"),
        ("m", "7", "m=7, p=4, s=2"),
    ],
)
def test_check_bounds_rejects_cells_its_writer_never_writes(
    column, token, fragment, tmp_path
):
    # Each int and float cell must be the writer's own spelling of its
    # value, and the shape one a sweep accepts; the row otherwise reads.
    path = tmp_path / "respelled.csv"
    path.write_text(_respelled_row("m", "40"))
    assert read_csv(path)[0].m == 40
    path.write_text(_respelled_row(column, token))
    code, out, err = _capture(cli_main, ["check-bounds", str(path)])
    assert code == 2
    assert err.startswith("blockgs: error:") and ":2: " in err
    assert fragment in err
    assert "Traceback" not in err + out


@pytest.mark.parametrize(
    "text,fragment",
    [
        (_row("bogus", "houseqr"), "unknown skeleton 'bogus'"),
        (_row("bcgsi_a_2s", "houseqr"), "unknown skeleton 'bcgsi_a_2s'"),
        (_row("BCGS-A", "HouseQR", "cholqr"), "unknown muscle 'HouseQR'"),
        (_row("BCGS", "houseqr", "cholqr"), "BCGS requires tied muscle"),
        (_row("BCGSI+A-2S", "houseqr", "cholqr"), "BCGSI+A-2S takes no io1"),
        (
            _row("BCGSI+A-2S", "houseqr", kappa_actual=0.5),
            "kappa must be >= 1",
        ),
        (
            _respelled_row("kappa_target", "5.0000000000000000e-01"),
            "kappa must be >= 1 or NaN in column kappa_target",
        ),
        *(
            (
                _respelled_row(column, harness._fmt_float(-1e-15)),
                f"{column} must be >= 0 or NaN",
            )
            for column in (
                "loo", "rel_res", "rel_chol_res", "sync_per_block",
                "elapsed_ms",
            )
        ),
        (
            _respelled_row("failed", "true"),
            "a failed row has NaN metrics, got loo=1e-15",
        ),
    ],
)
def test_read_csv_rejects_rows_no_sweep_writes(text, fragment, tmp_path):
    # Every row rule lives in read_csv, so a row check-bounds could not
    # judge never reads back.
    path = tmp_path / "row.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert fragment in str(info.value)


def test_cli_syncs_output():
    code, out, _ = _capture(cli_main, ["syncs"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("skeleton")
    assert "BCGSI+A-1S  1" in out
    assert "BCGSI+      4" in out  # 6-char name padded to the 10-char column


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (
            ["sweep", "--matrix", "monomial", "--skeletons", "bogus",
             "--kappas", "10"],
            "unknown skeleton",
        ),
        (
            ["sweep", "--matrix", "monomial", "--io-a", "qr",
             "--kappas", "10"],
            "unknown muscle",
        ),
        (
            ["sweep", "--matrix", "monomial", "--kappas", "10",
             "--kappa-range", "1:10:2"],
            "not both",
        ),
        (["sweep", "--matrix", "monomial"], "needs --kappas"),
        (
            ["sweep", "--matrix", "monomial", "--kappa-range", "10:1:3"],
            "--kappa-range wants",
        ),
        (
            ["sweep", "--matrix", "monomial", "--kappas", "ten"],
            "bad --kappas",
        ),
        (
            ["sweep", "--matrix", "monomial", "--kappas", "nan"],
            "must be finite",
        ),
        (
            ["sweep", "--matrix", "monomial", "--kappas", "10,inf"],
            "must be finite",
        ),
        (
            ["sweep", "--matrix", "piled", "--kappa-range", "nan:1e3:3"],
            "must be finite",
        ),
        (
            ["sweep", "--matrix", "default", "--m", "10", "--p", "10",
             "--s", "5", "--kappas", "10"],
            "must be tall",
        ),
        (
            ["sweep", "--matrix", "default", "--s", "0", "--kappas", "10"],
            "must be >= 1",
        ),
        (
            ["sweep", "--matrix", "monomial", "--p", "0", "--kappas", "10"],
            "must be >= 1",
        ),
        (
            ["sweep", "--matrix", "default", "--kappas", "10",
             "--seed", "-1"],
            "seed must be in [0, 2**128)",
        ),
        (
            ["sweep", "--matrix", "default", "--kappas", "10",
             "--seed", str(2**128)],
            "seed must be in [0, 2**128)",
        ),
    ],
)
def test_cli_config_errors_exit_2(argv, fragment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an accepted config would write sweep.csv
    code, _, err = _capture(cli_main, argv)
    assert code == 2
    assert "blockgs: error:" in err
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


def test_cli_interrupted_sweep_keeps_the_previous_csv(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    out.write_text("sentinel\n")

    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_sweep", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli_main(["sweep", "--matrix", "monomial", "--kappas", "10",
                  "--out", str(out)])
    assert out.read_text() == "sentinel\n"


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, OSError])
def test_cli_failed_sweep_leaves_no_file_at_a_fresh_path(
    tmp_path, monkeypatch, error
):
    # The sweep raises or is interrupted; an OSError stands for a failed
    # CSV write, which exits 2.
    out = tmp_path / "fresh.csv"
    argv = ["sweep", "--matrix", "monomial", "--kappas", "10", "--out", str(out)]

    def failing(*args):
        assert out.exists()  # the --out check ran first
        out.write_text("partial")
        raise error("disk full")

    if error is OSError:
        monkeypatch.setattr(harness, "write_csv", failing)
        assert _sweep_exit_code(argv) == 2
    else:
        monkeypatch.setattr(harness, "run_sweep", failing)
        with pytest.raises(error):
            cli_main(argv)
    assert not out.exists()


def test_cli_sweep_too_large_to_allocate_exits_2(tmp_path):
    # numpy refuses a 711 PiB array at once, without touching memory.
    out = tmp_path / "huge.csv"
    code, _, err = _capture(cli_main, [
        "sweep", "--matrix", "default", "--m", "1000000000000000",
        "--p", "10", "--s", "10", "--kappas", "10", "--out", str(out),
    ])
    assert code == 2
    assert err.startswith("blockgs: error: Unable to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_argparse_rejections_exit_2():
    for argv in (
        [],
        ["orthogonalize"],
        ["sweep"],  # --matrix is required
        ["sweep", "--matrix", "hilbert", "--kappas", "10"],
        ["syncs", "--frobenius"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
        assert exc.value.code == 2, argv


def _sweep_exit_code(argv) -> int:
    """``cli_main``'s exit code, in process; argparse exits through
    ``SystemExit``, whose code is the process's exit code."""
    try:
        return _capture(cli_main, argv)[0]
    except SystemExit as exc:
        return exc.code


_KAPPA_TOKENS = ("0.5", "-3", "0", "1", "10", "1e3", "nan", "inf", "-inf")


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.sampled_from(["default", "monomial", "piled", "hilbert"]),
    m=st.integers(-1, 9),
    p=st.integers(-1, 3),
    s=st.integers(-1, 3),
    kappas=st.lists(st.sampled_from(_KAPPA_TOKENS), min_size=1, max_size=2),
)
def test_cli_sweep_exit_codes_property(matrix, m, p, s, kappas):
    # Any sweep argument list exits 0 or 2 and raises nothing else, and
    # a CSV is written exactly when the sweep succeeded.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [
            "sweep", "--matrix", matrix, f"--m={m}", f"--p={p}", f"--s={s}",
            "--kappas=" + ",".join(kappas), "--out", str(out),
        ]
        code = _sweep_exit_code(argv)
        assert code in (0, 2), argv
        assert out.exists() == (code == 0), argv
        valid = (
            matrix != "hilbert"
            and p >= 1
            and s >= 1
            and m >= p * s
            and all(1.0 <= float(k) < math.inf for k in kappas)
        )
        assert (code == 0) == valid, argv


# ---------------------------------------------------------------------------
# BLAS thread policy (each test runs in a fresh interpreter, because the
# policy changes the process it runs in)
# ---------------------------------------------------------------------------

# Defines blas_threads(), the thread count of each loaded OpenBLAS, and
# splits(): how many of a reduction and a deflation above their byte
# thresholds split on two cores, each byte-identical to one call.
_PRELUDE = """
import contextlib, io, json
import numpy as np
import blockgs.harness as harness
from blockgs import blockcore

def blas_threads():
    return [get() for get, _ in blockcore._openblas_threads()]

def splits():
    rng, run, split = np.random.default_rng(1), blockcore._run_panels, []
    q = np.asfortranarray(rng.standard_normal((20000, 120)))
    x = np.asfortranarray(rng.standard_normal((20000, 10)))
    c = rng.standard_normal((120, 10))

    def counted(fn, bounds):
        # A large product hands even one panel to the helper.
        if len(bounds) > 2:
            split.append(bounds)
        return run(fn, bounds)

    blockcore._run_panels = counted
    bits = {}
    for cores in (1, 2):
        blockcore._cores = lambda: cores
        bits[cores] = [blockcore.tall_inner(q, x).tobytes(),
                       blockcore.project_out(x, q, c).tobytes()]
    blockcore._run_panels = run
    assert bits[1] == bits[2]
    return len(split)

before = blas_threads()
with contextlib.redirect_stdout(io.StringIO()):
"""


def _python(*argv, env=None):
    """Run ``python *argv`` on this tree's sources without the thread
    variables; it must exit 0."""
    clean = {
        k: v for k, v in os.environ.items()
        if k not in blockcore._BLAS_THREAD_VARS
    }
    src = str(Path(blockgs.__file__).resolve().parent.parent)
    clean["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, clean.get("PYTHONPATH")])
    )
    clean.update(env or {})
    proc = subprocess.run(
        [sys.executable, *argv], env=clean, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _after(statement, result, env=None):
    """OpenBLAS thread counts before ``statement`` runs in a fresh
    interpreter, and the value of ``result`` after it."""
    body = _PRELUDE + f"    {statement}\n"
    body += f"print(json.dumps([before, {result}]))\n"
    before, value = json.loads(
        _python("-c", body, env=env).stdout.splitlines()[-1]
    )
    if not before:
        pytest.skip("no OpenBLAS loaded")
    return before, value


def _threads_around(statement, env=None):
    """OpenBLAS thread counts before and after ``statement`` runs."""
    before, after = _after(statement, "blas_threads()", env)
    assert len(after) == len(before)
    return before, after


def test_cli_runs_blas_on_one_thread():
    _, after = _threads_around('assert harness.cli_main(["syncs"]) == 0')
    assert set(after) == {1}


def test_cli_keeps_a_thread_count_set_by_the_user():
    before, after = _threads_around(
        'assert harness.cli_main(["syncs"]) == 0',
        env={"OPENBLAS_NUM_THREADS": "2"},
    )
    assert after == before


def test_library_calls_keep_the_thread_count():
    before, after = _threads_around(
        "harness.run_sweep(harness.SweepConfig(matrix_class='piled',"
        " combos=(harness.make_combo('bcgsi_a_1s'),), kappas=(1e4,),"
        " m=400, p=20))"
    )
    assert after == before


def test_thread_policy_is_a_silent_no_op_without_openblas(tmp_path):
    # A maps file that cannot be opened; one naming a file that is no
    # library; one naming a real library that exports no setter.
    with open("/proc/self/maps") as fh:
        libc = next(
            line.split()[-1]
            for line in fh
            if "/libc.so" in line or "/libc-" in line
        )
    stub = tmp_path / "libopenblas_stub.so"
    stub.symlink_to(libc)
    fake = tmp_path / "libopenblas_fake.so"
    fake.write_text("not a library")
    maps = tmp_path / "maps"
    maps.write_text(
        f"7f00-7f01 r-xp 0 0:0 0 {stub}\n7f01-7f02 r-xp 0 0:0 0 {fake}\n"
    )
    before, after = _threads_around(
        f"assert blockcore._openblas_threads({str(tmp_path / 'no')!r}) == ()"
        f"; assert blockcore._openblas_threads({str(maps)!r}) == ()"
    )
    assert after == before


# A product splits once every OpenBLAS reports one thread, whoever set it:
# OpenBLAS's own variable wins over OMP_NUM_THREADS.
@pytest.mark.parametrize(
    "env", [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"},
            {"OMP_NUM_THREADS": "1"}, {}],
)
def test_cli_products_split_when_every_openblas_reports_one_thread(env):
    _, (threads, split) = _after(
        'harness.cli_main(["syncs"])', "[blas_threads(), splits()]", env
    )
    assert set(threads) == {1}
    assert split == 2


def test_library_products_split_under_a_one_thread_openblas():
    env = {"OPENBLAS_NUM_THREADS": "1"}
    assert _after("pass", "splits()", env)[1] == 2


def test_products_run_whole_once_openblas_leaves_one_thread():
    # After the CLI's pin, a caller that gives every OpenBLAS two threads
    # gets products BLAS splits itself.
    _, split = _after(
        'harness.cli_main(["syncs"]); assert splits() == 2; '
        "[set_threads(2) for _, set_threads in blockcore._openblas_threads()]",
        "splits()",
    )
    assert split == 0


def test_products_run_whole_on_the_hosts_default_blas_threads():
    before, split = _after("pass", "splits()")
    if set(before) == {1}:
        pytest.skip("the host's OpenBLAS runs on one thread")
    assert split == 0


def test_cli_sweep_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # At m=400 a two-thread OpenBLAS rounds differently from one thread.
    body = (
        "import sys\nfrom blockgs.harness import cli_main\n"
        "sys.exit(cli_main(['sweep', '--matrix', 'piled', '--m', '400',"
        " '--p', '20', '--s', '5', '--kappas', '1e4', '--skeletons',"
        " 'bcgsi_plus_a,2s', '--out', sys.argv[1]]))\n"
    )
    a, b = tmp_path / "unset.csv", tmp_path / "one.csv"
    _python("-c", body, str(a))
    _python("-c", body, str(b), env={"OPENBLAS_NUM_THREADS": "1"})
    assert a.read_bytes() == b.read_bytes()


def test_python_m_blockgs_runs_the_cli():
    proc = _python("-m", "blockgs", "syncs")
    assert "BCGSI+A-1S" in proc.stdout


def test_overflowing_monomial_sweep_is_quiet_under_strict_warnings(tmp_path):
    # Long monomial panels overflow to inf; those rows are data, so the
    # sweep succeeds and prints nothing to stderr with warnings as errors.
    out = tmp_path / "x.csv"
    proc = _python(
        "-W", "error", "-m", "blockgs", "sweep", "--matrix", "monomial",
        "--m", "400", "--p", "40", "--s", "10", "--kappas", "1e3,1e300",
        "--out", str(out),
    )
    assert proc.stderr == ""
    assert out.read_bytes().count(b"\n") == 1 + 2 * 7


def test_python_m_blockgs_sweep_writes_the_csv(tmp_path):
    out = tmp_path / "x.csv"
    proc = _python(
        "-m", "blockgs", "sweep", "--matrix", "default", "--m", "40", "--p",
        "4", "--s", "2", "--kappas", "1e2,1e6", "--out", str(out),
    )
    assert proc.stderr == ""
    assert out.read_bytes().count(b"\n") == 1 + 2 * 7


def test_installed_console_script():
    exe = shutil.which("blockgs")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run(
        [exe, "syncs"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "BCGSI+A-1S" in proc.stdout
