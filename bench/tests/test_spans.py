"""Self-time arithmetic, layer attribution and wrapping of module bindings."""

import sys
from collections import Counter

import pytest

import blockgs
import blockgs.harness
import blockgs.muscles
import blockgs.syncmodel
from spans import TIMED, Tracer, layer_metrics, layer_self_times, self_times


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([["a.x", 1.0, 3.5, -1]]) == [2.5]


def test_self_time_subtracts_nested_children():
    spans = [
        ["harness.run", 0.0, 10.0, -1],
        ["matgen.gen", 1.0, 4.0, 0],
        ["blockcore.cond_2", 2.0, 3.0, 1],  # grandchild of 0
        ["metrics.loo", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    layers = layer_self_times(spans)
    assert layers["harness"] == pytest.approx(6.0)
    assert layers["matgen"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ["a.p", 0.0, 10.0, -1],
        ["b.c", 1.0, 5.0, 0],
        ["b.d", 3.0, 7.0, 0],  # overlaps b.c: union is 1..7
        ["b.e", 9.0, 12.0, 0],  # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_nested_skeleton_time_goes_to_the_outer_kind():
    spans = [
        ["bench.pass", 0.0, 10.0, -1],
        ["skeletons.bcgs", 1.0, 4.0, 0],
        ["skeletons.bcgs_a", 1.5, 3.5, 1],  # bcgs delegates to bcgs_a
        ["skeletons.bcgs_a", 5.0, 6.0, 0],
        ["muscles.houseqr", 5.2, 5.6, 3],
    ]
    out = layer_metrics(spans, Counter(), pass_s=10.0)
    assert out["skeletons.bcgs_s"] == pytest.approx(3.0)
    assert out["skeletons.bcgs_a_s"] == pytest.approx(1.0)
    assert out["skeletons.self_s"] == pytest.approx(1.0 + 2.0 + 0.6)
    assert out["muscles.houseqr_s"] == pytest.approx(0.4)
    assert out["muscles.houseqr_calls"] == 1


def test_probes_per_point_counts_generations_inside_calibration():
    spans = [
        ["matgen.calibrate_piled", 0.0, 5.0, -1],
        ["matgen.gen_piled", 0.0, 1.0, 0],
        ["matgen.gen_piled", 1.0, 2.0, 0],
        ["blockcore.cond_2", 2.0, 3.0, 0],
        ["matgen.calibrate_piled", 5.0, 8.0, -1],
        ["matgen.gen_piled", 5.0, 6.0, 4],
        ["matgen.gen_piled", 9.0, 10.0, -1],  # the sweep's own generation
    ]
    out = layer_metrics(spans, Counter(), pass_s=10.0)
    assert out["matgen.probes_per_point"] == pytest.approx(1.5)
    assert out["matgen.gen_calls"] == 4
    assert out["matgen.calibrate_self_s"] == pytest.approx(2.0 + 2.0)


def _bindings(original):
    """Every (module, attribute) of the blockgs package bound to ``original``."""
    return [
        (name, attr)
        for name, mod in sys.modules.items()
        if name == "blockgs" or name.startswith("blockgs.")
        for attr, value in vars(mod).items()
        if value is original
    ]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    originals = {}
    for modname, attr, _ in TIMED:
        fn = getattr(sys.modules[modname], attr)
        originals[(modname, attr)] = (fn, _bindings(fn))
    record = blockgs.syncmodel.SyncLedger.__dict__["record"]
    # cond_2 is bound in blockcore, harness, matgen and the package root.
    assert len(originals[("blockgs.blockcore", "cond_2")][1]) >= 4

    tracer = Tracer()
    tracer.install()
    try:
        for fn, bindings in originals.values():
            assert _bindings(fn) == []
            for modname, attr in bindings:
                assert getattr(sys.modules[modname], attr).__wrapped__ is fn
        assert blockgs.syncmodel.SyncLedger.__dict__["record"] is not record
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()

    for fn, bindings in originals.values():
        assert _bindings(fn) == bindings
    assert blockgs.syncmodel.SyncLedger.__dict__["record"] is record
    assert blockgs.muscles._ROUTINES["cholqr"] is blockgs.muscles.chol_qr


def test_traced_sweep_writes_the_same_csv_and_counts_every_reduction(tmp_path):
    argv = ["sweep", "--matrix", "default", "--m", "60", "--p", "4", "--s", "3",
            "--kappas", "1e2,1e9"]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    totals = []
    syncs_per_block = blockgs.harness.syncs_per_block

    def counting(result):
        totals.append(result.ledger.total)
        return syncs_per_block(result)

    blockgs.harness.syncs_per_block = counting
    try:
        assert blockgs.harness.cli_main(argv + ["--out", str(plain)]) == 0
    finally:
        blockgs.harness.syncs_per_block = syncs_per_block
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.span(
            "bench.pass", blockgs.harness.cli_main, argv + ["--out", str(traced)]
        ) == 0
    finally:
        tracer.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    pass_s = tracer.spans[0][2] - tracer.spans[0][1]
    out = layer_metrics(tracer.spans, tracer.counts, pass_s)
    assert out["harness.write_csv_s"] > 0
    assert out["matgen.gen_calls"] == 2
    assert out["blockcore.cond_2_calls"] == 2
    assert sum(out[f"skeletons.{k}_s"] for k in (
        "bcgs", "bcgs_a", "bcgsi_plus", "bcgsi_plus_a",
        "bcgsi_a_3s", "bcgsi_a_2s", "bcgsi_a_1s")) <= pass_s
    # The labels' reductions add up to the ledgers' totals, row by row.
    labels = ("proj", "proj2", "batch", "io-gram", "io-cols")
    assert len(totals) == 14
    assert sum(out[f"syncmodel.{label}"] for label in labels) == sum(totals)
    assert 0 < out["syncmodel.events"] <= sum(totals)
    assert sum(layer_self_times(tracer.spans).values()) == pytest.approx(pass_s)
