"""The envelopes separate the variants on data, not only in the formulas.

One fixed piled sweep, HouseQR on the first block and CholQR inside,
checks that each weaker variant leaves the next stronger variant's
envelope where that envelope applies: BCGS-A breaks the three-sync
envelope, and BCGSI+A-3S breaks BCGSI+A's.  Each separation must hold by
at least ``MARGIN``, so a looser envelope or a weakened variant shows up
here as well as in the unit tests of the constants.  The same sweep passes
``check_bounds``: every variant holds its own envelope.

The one- and two-sync variants share one envelope, and no family here
separates them (the worst loo(-1S)/loo(-2S) measured was 5.1 over 24
configurations), so no separation between them is asserted.
"""

import io

import pytest

from blockgs.harness import (
    SweepConfig,
    check_bounds,
    make_combo,
    run_sweep,
    write_csv,
)
from blockgs.metrics import bound_envelope
from blockgs.muscles import CHOL_QR, HOUSE_QR
from blockgs.skeletons import SKELETONS, SkeletonKind

MARGIN = 10.0

# At m = 1000, p = 20, s = 5 the ratios measured 4.7e2 (BCGS-A against
# -3S) and 1.8e4 (-3S against BCGSI+A); this shape gives 2.9e4 and 2.0e4 in
# a fraction of the time.
SWEEP = SweepConfig(
    matrix_class="piled",
    combos=tuple(
        make_combo(kind) for kind, spec in SKELETONS.items() if not spec.tied
    ),
    kappas=(1e3, 1e5, 1e7),
    m=200,
    p=20,
    s=5,
    seed=42,
)


@pytest.fixture(scope="module")
def records():
    recs = run_sweep(SWEEP)
    assert all(rec.note == "" for rec in recs)
    return recs


def _worst_ratio(records, display: str, held_to: SkeletonKind) -> float:
    """The largest loo/bound of the finished ``display`` rows, each held to
    the envelope of ``held_to`` (with HouseQR first, CholQR inside) where
    that envelope applies; 0 when it applies to none."""
    spec = SKELETONS[held_to]
    muscles = (HOUSE_QR, CHOL_QR, CHOL_QR)[: len(spec.slots)]
    envelope = spec.envelope(*muscles, s=SWEEP.s)
    worst = 0.0
    for rec in records:
        if rec.skeleton != display or rec.failed:
            continue
        applicable, bound = bound_envelope(envelope, rec.kappa_actual)
        if applicable:
            worst = max(worst, rec.loo / bound)
    return worst


def test_bcgs_a_leaves_the_three_sync_envelope(records):
    ratio = _worst_ratio(records, "BCGS-A", SkeletonKind.BCGSI_A_3S)
    assert ratio > MARGIN, ratio


def test_three_sync_leaves_the_reorthogonalized_envelope(records):
    ratio = _worst_ratio(records, "BCGSI+A-3S", SkeletonKind.BCGSI_PLUS_A)
    assert ratio > MARGIN, ratio


def test_every_variant_holds_its_own_envelope_on_the_sweep(records, tmp_path):
    path = tmp_path / "separations.csv"
    write_csv(records, path)
    report = io.StringIO()
    assert check_bounds(path, out=report) == []
    # "checked N applicable rows out of M: 0 violation(s)"
    assert int(report.getvalue().split()[1]) > 0
