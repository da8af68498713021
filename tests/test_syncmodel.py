import dataclasses

import numpy as np
import pytest

from blockgs.matgen import MatrixClassSpec, generate
from blockgs.muscles import CHOL_QR, HOUSE_QR, MGS
from blockgs.skeletons import (
    SkeletonKind,
    bcgs,
    bcgs_a,
    bcgsi_a_1s,
    bcgsi_a_2s,
    bcgsi_a_3s,
    bcgsi_plus,
    bcgsi_plus_a,
)
from blockgs.syncmodel import SyncEvent, SyncLedger, syncs_per_block


def test_sync_event_is_frozen():
    e = SyncEvent(block=1, label="proj", cost=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.cost = 2  # type: ignore[misc]


def test_ledger_record_and_totals():
    ledger = SyncLedger()
    ledger.record(1, "proj", 1).record(1, "io-cols", 3).record(2, "proj", 1)
    assert ledger.total == 5
    assert ledger.block_total(1) == 4
    assert ledger.block_total(2) == 1
    assert ledger.block_total(3) == 0
    assert [e.label for e in ledger.events] == ["proj", "io-cols", "proj"]


def test_ledger_rejects_free_events():
    with pytest.raises(ValueError, match="sync cost must be >= 1"):
        SyncLedger().record(1, "proj", 0)


def test_ledger_reduce_forms_the_product_and_charges_it_once():
    rng = np.random.default_rng(3)
    q, v, x = (rng.standard_normal((9, 2)) for _ in range(3))
    ledger = SyncLedger()
    assert np.array_equal(ledger.reduce(2, "proj", q, x), q.T @ x)
    fused = ledger.reduce(3, "batch", (q, v), (v, x))
    assert np.array_equal(fused, np.hstack([q, v]).T @ np.hstack([v, x]))
    assert ledger.events == [SyncEvent(2, "proj", 1), SyncEvent(3, "batch", 1)]


def _well_conditioned(p=6, s=2):
    return generate(
        MatrixClassSpec("default", m=100, p=p, s=s, seed=42, kappa=10.0)
    )


def _steady(result):
    return syncs_per_block(result)


def test_steady_state_requires_interior_blocks():
    x = _well_conditioned(p=2)
    result = bcgs_a(x, CHOL_QR, CHOL_QR)
    with pytest.raises(ValueError, match="steady state undefined"):
        syncs_per_block(result)


def test_steady_state_counts_all_cholesky():
    # Interior-block communication volume per skeleton, one Gram
    # reduction per intraorthogonalization (CholQR everywhere).
    x = _well_conditioned()
    assert _steady(bcgs(x, CHOL_QR)) == pytest.approx(2.0)
    assert _steady(bcgs_a(x, CHOL_QR, CHOL_QR)) == pytest.approx(2.0)
    assert _steady(bcgsi_plus(x, CHOL_QR)) == pytest.approx(4.0)
    assert _steady(bcgsi_plus_a(x, CHOL_QR, CHOL_QR, CHOL_QR)) == pytest.approx(4.0)
    assert _steady(bcgsi_a_3s(x, CHOL_QR, CHOL_QR)) == pytest.approx(3.0)
    assert _steady(bcgsi_a_2s(x, CHOL_QR)) == pytest.approx(2.0)
    assert _steady(bcgsi_a_1s(x, CHOL_QR)) == pytest.approx(1.0)


def test_steady_state_reflects_io_column_costs():
    # A column-at-a-time loop muscle costs one reduction per column (s=2
    # here); the first-block muscle never shows up in the interior average.
    x = _well_conditioned(p=6, s=2)
    assert _steady(bcgs_a(x, CHOL_QR, MGS)) == pytest.approx(1.0 + 2.0)
    assert _steady(bcgs_a(x, MGS, CHOL_QR)) == pytest.approx(1.0 + 1.0)
    assert _steady(bcgsi_plus_a(x, CHOL_QR, MGS, CHOL_QR)) == pytest.approx(
        1.0 + 2.0 + 1.0 + 1.0
    )
    # Batched variants have no pluggable interior muscle at all.
    assert _steady(bcgsi_a_2s(x, MGS)) == pytest.approx(2.0)
    assert _steady(bcgsi_a_1s(x, MGS)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "io_a,expected_first",
    [(CHOL_QR, 1), (HOUSE_QR, 2), (MGS, 2)],
)
def test_one_sync_total_is_first_block_io_plus_block_count(io_a, expected_first):
    # Total communication: the opening intraorthogonalization plus one
    # batched reduction per block column.
    for p in (3, 4, 6):
        x = _well_conditioned(p=p, s=2)
        result = bcgsi_a_1s(x, io_a)
        assert result.ledger.total == expected_first + p
        # The look-ahead projection for block 2 is part of block 1's
        # batched reduction, so block 1 carries io_a cost + 1.
        assert result.ledger.block_total(1) == expected_first + 1


def test_one_sync_interior_blocks_single_event():
    x = _well_conditioned(p=6, s=2)
    result = bcgsi_a_1s(x, HOUSE_QR)
    for k in range(2, 6):
        events = [e for e in result.ledger.events if e.block == k]
        assert len(events) == 1
        assert events[0].label == "batch"
        assert events[0].cost == 1


def test_skeleton_kind_display_round_trip():
    assert SkeletonKind("bcgsi_a_1s") is SkeletonKind.BCGSI_A_1S
    assert SkeletonKind.BCGS.value == "bcgs"


# The full ledger of every skeleton at p=4, s=2, written out charge by
# charge as "block:label:cost".  Interior muscles are CholQR, except in the
# tied aliases, where the first-block muscle fills every slot.
_FROZEN_STREAMS = {
    ("bcgs", "houseqr"): "1:io-cols:2 2:proj:1 2:io-cols:2 3:proj:1"
    " 3:io-cols:2 4:proj:1 4:io-cols:2",
    ("bcgs", "cholqr"): "1:io-gram:1 2:proj:1 2:io-gram:1 3:proj:1"
    " 3:io-gram:1 4:proj:1 4:io-gram:1",
    ("bcgs_a", "houseqr"): "1:io-cols:2 2:proj:1 2:io-gram:1 3:proj:1"
    " 3:io-gram:1 4:proj:1 4:io-gram:1",
    ("bcgs_a", "cholqr"): "1:io-gram:1 2:proj:1 2:io-gram:1 3:proj:1"
    " 3:io-gram:1 4:proj:1 4:io-gram:1",
    ("bcgsi_plus", "houseqr"): "1:io-cols:2 2:proj:1 2:io-cols:2 2:proj2:1"
    " 2:io-cols:2 3:proj:1 3:io-cols:2 3:proj2:1 3:io-cols:2 4:proj:1"
    " 4:io-cols:2 4:proj2:1 4:io-cols:2",
    ("bcgsi_plus", "cholqr"): "1:io-gram:1 2:proj:1 2:io-gram:1 2:proj2:1"
    " 2:io-gram:1 3:proj:1 3:io-gram:1 3:proj2:1 3:io-gram:1 4:proj:1"
    " 4:io-gram:1 4:proj2:1 4:io-gram:1",
    ("bcgsi_plus_a", "houseqr"): "1:io-cols:2 2:proj:1 2:io-gram:1"
    " 2:proj2:1 2:io-gram:1 3:proj:1 3:io-gram:1 3:proj2:1 3:io-gram:1"
    " 4:proj:1 4:io-gram:1 4:proj2:1 4:io-gram:1",
    ("bcgsi_plus_a", "cholqr"): "1:io-gram:1 2:proj:1 2:io-gram:1"
    " 2:proj2:1 2:io-gram:1 3:proj:1 3:io-gram:1 3:proj2:1 3:io-gram:1"
    " 4:proj:1 4:io-gram:1 4:proj2:1 4:io-gram:1",
    ("bcgsi_a_3s", "houseqr"): "1:io-cols:2 2:proj:1 2:proj2:1 2:io-gram:1"
    " 3:proj:1 3:proj2:1 3:io-gram:1 4:proj:1 4:proj2:1 4:io-gram:1",
    ("bcgsi_a_3s", "cholqr"): "1:io-gram:1 2:proj:1 2:proj2:1 2:io-gram:1"
    " 3:proj:1 3:proj2:1 3:io-gram:1 4:proj:1 4:proj2:1 4:io-gram:1",
    ("bcgsi_a_2s", "houseqr"): "1:io-cols:2 2:proj:1 2:batch:1 3:proj:1"
    " 3:batch:1 4:proj:1 4:batch:1",
    ("bcgsi_a_2s", "cholqr"): "1:io-gram:1 2:proj:1 2:batch:1 3:proj:1"
    " 3:batch:1 4:proj:1 4:batch:1",
    ("bcgsi_a_1s", "houseqr"): "1:io-cols:2 1:proj:1 2:batch:1 3:batch:1"
    " 4:batch:1",
    ("bcgsi_a_1s", "cholqr"): "1:io-gram:1 1:proj:1 2:batch:1 3:batch:1"
    " 4:batch:1",
}


@pytest.mark.parametrize("kind,io_a", sorted(_FROZEN_STREAMS))
def test_ledger_event_stream_is_frozen(kind, io_a):
    x = _well_conditioned(p=4, s=2)
    io = {"houseqr": HOUSE_QR, "cholqr": CHOL_QR}[io_a]
    runners = {
        "bcgs": lambda: bcgs(x, io),
        "bcgs_a": lambda: bcgs_a(x, io, CHOL_QR),
        "bcgsi_plus": lambda: bcgsi_plus(x, io),
        "bcgsi_plus_a": lambda: bcgsi_plus_a(x, io, CHOL_QR, CHOL_QR),
        "bcgsi_a_3s": lambda: bcgsi_a_3s(x, io, CHOL_QR),
        "bcgsi_a_2s": lambda: bcgsi_a_2s(x, io),
        "bcgsi_a_1s": lambda: bcgsi_a_1s(x, io),
    }
    result = runners[kind]()
    tokens = (t.split(":") for t in _FROZEN_STREAMS[kind, io_a].split())
    expected = [(int(b), label, int(c)) for b, label, c in tokens]
    events = [(e.block, e.label, e.cost) for e in result.ledger.events]
    assert events == expected
    assert {k for k, _ in _FROZEN_STREAMS} == {k.value for k in SkeletonKind}
