import ast
import dataclasses
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from blockgs import blockcore, muscles, skeletons, syncmodel
from blockgs.matgen import gen_default
from blockgs.muscles import CHOL_QR, HOUSE_QR, IO_BY_NAME, MGS
from blockgs.skeletons import (
    SKELETONS,
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
    for event in ((1, "proj", 1), (1, "io-cols", 3), (2, "proj", 1)):
        assert ledger.record(*event) is None
    assert ledger.total == 5
    assert sum(e.cost for e in ledger.events if e.block == 1) == 4
    assert sum(e.cost for e in ledger.events if e.block == 2) == 1
    assert [e.label for e in ledger.events] == ["proj", "io-cols", "proj"]


def test_ledger_rejects_free_events():
    with pytest.raises(ValueError, match="sync cost must be >= 1"):
        SyncLedger().record(1, "proj", 0)


def test_ledger_reduce_forms_the_product_and_charges_it_once():
    # A fused product [Q, V]^T [V, X] is one call on two views of one
    # workspace whose columns hold Q, V and X side by side.
    rng = np.random.default_rng(3)
    q, x = (rng.standard_normal((9, 2)) for _ in range(2))
    work = rng.standard_normal((9, 6))
    ledger = SyncLedger()
    assert np.array_equal(ledger.reduce(2, "proj", q, x), q.T @ x)
    fused = ledger.reduce(3, "batch", work[:, :4], work[:, 2:6])
    assert np.array_equal(fused, work[:, :4].T @ work[:, 2:6])
    assert fused.shape == (4, 4)
    assert ledger.events == [SyncEvent(2, "proj", 1), SyncEvent(3, "batch", 1)]


def _well_conditioned(p=6, s=2):
    return gen_default(100, p, s, 42, kappa=10.0)


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
        first = sum(e.cost for e in result.ledger.events if e.block == 1)
        assert first == expected_first + 1


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


# Ledger audit: the charges are exactly the row contractions the code forms.

_TALL_LABELS = ("proj", "proj2", "batch", "io-gram")


def _row_contraction_array(rows, log):
    """An ndarray type that logs each matmul contracting over ``rows`` rows.

    Every ufunc result with such an operand is again of this type, so the
    blocks deflated from X or read from the Q workspace stay marked.
    """

    class RowContractions(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                if np.shape(inputs[0])[-1] == rows:
                    log.append(("contract",))
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            result = getattr(ufunc, method)(
                *(np.asarray(a) for a in inputs), **kwargs
            )
            if out is not None:
                return out[0] if len(out) == 1 else out
            if isinstance(result, np.ndarray):
                return result.view(RowContractions)
            return result

    return RowContractions


def _numpy_with(**overrides):
    """A stand-in for the ``np`` name of one module."""
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(vars(np), **overrides)
    return proxy


def test_every_product_in_a_run_is_a_matmul():
    # The audit below sees ``@`` and ``np.matmul`` only; ``ndarray.dot``,
    # ``np.dot``, ``np.inner`` or ``np.einsum`` in a module a run goes
    # through would slip past it.
    names = {"dot", "vdot", "inner", "einsum", "tensordot"}
    for module in (blockcore, muscles, skeletons, syncmodel):
        found = [
            node.attr
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, ast.Attribute) and node.attr in names
        ]
        assert found == [], module.__name__


@pytest.mark.parametrize("io", sorted(IO_BY_NAME))
@pytest.mark.parametrize("kind", list(SkeletonKind))
def test_ledger_charges_are_the_row_contractions_the_code_forms(
    monkeypatch, kind, io
):
    # Every matmul that contracts over the m rows is logged between the
    # ledger's charges; each proj / proj2 / batch / io-gram charge must be
    # followed by exactly one such product, and nothing else may form one.
    # X's blocks, the Q workspace and every block deflated from them are
    # logging arrays, and CholQR (the io-gram muscle) receives them as they
    # are.  The column-sweep muscles (houseqr, givensqr, mgs) are charged s
    # per call by the cost model, one reduction per column; that is a model
    # and not counted here, so they run on plain arrays.
    p, s = 4, 3
    x = _well_conditioned(p=p, s=s)
    log = []
    marked = _row_contraction_array(x.m, log)
    real_record = SyncLedger.record

    def record(self, block, label, cost):
        log.append(("charge", block, label))
        return real_record(self, block, label, cost)

    monkeypatch.setattr(SyncLedger, "record", record)
    monkeypatch.setattr(
        skeletons,
        "np",
        _numpy_with(empty=lambda *a, **k: np.empty(*a, **k).view(marked)),
    )
    monkeypatch.setattr(muscles, "np", _numpy_with(asarray=np.asanyarray))
    for name, routine in list(muscles._ROUTINES.items()):
        if name != "cholqr":
            monkeypatch.setitem(
                muscles._ROUTINES,
                name,
                lambda x, routine=routine: routine(np.asarray(x)),
            )

    x.data = x.data.view(marked)
    spec = SKELETONS[kind]
    slots = 1 if spec.tied else len(spec.slots)
    result = getattr(skeletons, kind.value)(x, *[IO_BY_NAME[io]] * slots)
    assert not result.failed

    counted, charge = Counter(), None
    for entry in log:
        if entry[0] == "charge":
            charge = entry[1:]
        else:
            counted[charge] += 1
    charged = Counter()
    for e in result.ledger.events:
        if e.label in _TALL_LABELS:
            charged[e.block, e.label] += e.cost
    assert counted == charged
    assert sum(counted.values()) >= p - 1
