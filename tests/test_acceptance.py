"""End-to-end acceptance gate.

Every empirical claim the library is organized around gets one test here,
and every test prints a single ``[acceptance N] <name>: PASS|FAIL`` line
before asserting, so this file doubles as the verification report:

    pytest tests/test_acceptance.py

The condition-number sweeps are shared module-scoped fixtures; the whole
gate is designed to finish in well under five minutes.
"""

import math

import numpy as np
import pytest

from blockgs.blockcore import cond_2, spectral_norm
from blockgs.harness import SweepConfig, make_combo, run_sweep, sync_table, write_csv
from blockgs.matgen import gen_default
from blockgs.metrics import C_TOL, EPS, loo, rel_res
from blockgs.muscles import (
    CHOL_QR,
    GIVENS_QR,
    HOUSE_QR,
    MGS,
    chol_qr,
    givens_qr,
    house_qr,
    mgs_qr,
)
from blockgs.skeletons import (
    bcgs,
    bcgs_a,
    bcgsi_a_1s,
    bcgsi_a_2s,
    bcgsi_a_3s,
    bcgsi_plus,
    bcgsi_plus_a,
)

TOL = C_TOL * EPS  # the flat accuracy ceiling, 100 * 2^-53


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail or name


def _rows(records, skeleton, io_a=None, io1=None):
    return [
        r
        for r in records
        if r.skeleton == skeleton
        and (io_a is None or r.io_a == io_a)
        and (io1 is None or r.io1 == io1)
    ]


@pytest.fixture(scope="module")
def monomial_main():
    """Krylov-family sweep crossing the 1/sqrt(eps) and 1/eps thresholds."""
    config = SweepConfig(
        matrix_class="monomial",
        combos=(
            make_combo("bcgsi_plus_a"),  # houseqr / cholqr / cholqr
            make_combo("bcgsi_plus", io_a=CHOL_QR),  # tied cholqr
            make_combo("bcgsi_a_3s", io_a=HOUSE_QR, io1=HOUSE_QR),
            make_combo("bcgsi_a_3s", io_a=CHOL_QR, io1=CHOL_QR),
            make_combo("bcgsi_a_2s"),  # houseqr first block
            make_combo("bcgsi_a_1s"),  # houseqr first block
        ),
        kappas=(1.0e1, 1.0e2, 1.0e6, 1.0e12, 1.0e25),
    )
    return config, run_sweep(config)


@pytest.fixture(scope="module")
def piled_low():
    """Cumulative-family sweep for the low-sync quadratic envelopes."""
    config = SweepConfig(
        matrix_class="piled",
        combos=(make_combo("bcgsi_a_2s"), make_combo("bcgsi_a_1s")),
        kappas=(1.0e2, 1.0e3, 1.0e4, 1.0e5, 1.0e12),
    )
    return config, run_sweep(config)


@pytest.fixture(scope="module")
def piled_cols():
    """Single-column blocks (s=1, p=50): the low-sync sweet spot."""
    config = SweepConfig(
        matrix_class="piled",
        combos=(
            make_combo("bcgsi_a_1s"),
            make_combo("bcgsi_a_2s"),
            make_combo("bcgsi_a_3s", io_a=HOUSE_QR, io1=HOUSE_QR),
            make_combo("bcgs", io_a=HOUSE_QR),
        ),
        kappas=(1.0e2, 1.0e4, 1.0e6, 1.0e8, 1.0e10, 1.0e12),
        p=50,
        s=1,
    )
    return config, run_sweep(config)


def test_acceptance_1_muscle_envelopes():
    problems = []
    for kappa in (1.0e1, 1.0e3, 1.0e5, 1.0e7):
        x = gen_default(100, 1, 5, 42, kappa=kappa).data
        ka = cond_2(x)
        for io, fn in (
            (HOUSE_QR, house_qr),
            (GIVENS_QR, givens_qr),
            (MGS, mgs_qr),
            (CHOL_QR, chol_qr),
        ):
            out = fn(x)
            lo = loo(out.q) if not out.failed else math.nan
            rr = rel_res(x, out.q, out.r) if not out.failed else math.nan
            if out.failed or lo > TOL * ka**io.alpha or rr > TOL:
                problems.append(
                    f"{io.kind} at kappa={ka:.3e}: loo={lo:.3e} res={rr:.3e}"
                )
    _report(
        1,
        "per-muscle orthogonality/residual envelopes on single blocks",
        not problems,
        "; ".join(problems),
    )


def test_acceptance_2_reorthogonalized_flat_loo(monomial_main):
    _, records = monomial_main
    easy = [
        r for r in _rows(records, "BCGSI+A") if r.kappa_actual <= 1.0e7
    ]
    hard = [r for r in _rows(records, "BCGSI+") if r.kappa_actual >= 1.0e9]
    ok = (
        len(easy) >= 3
        and all(
            not r.failed and r.loo <= TOL and r.rel_chol_res <= TOL
            for r in easy
        )
        and len(hard) >= 2
        and all(r.failed or r.loo > TOL for r in hard)
    )
    detail = "easy=" + str(
        [(f"{r.kappa_actual:.2e}", f"{r.loo:.2e}") for r in easy]
    ) + " hard=" + str(
        [(f"{r.kappa_actual:.2e}", r.failed, f"{r.loo:.2e}") for r in hard]
    )
    _report(
        2,
        "flat loss of orthogonality for the reorthogonalized variant",
        ok,
        detail,
    )


def test_acceptance_3_three_sync_linear_envelope(monomial_main):
    _, records = monomial_main
    strong = [
        r
        for r in _rows(records, "BCGSI+A-3S", io1="houseqr")
        if r.kappa_actual <= 1.0e8
    ]
    weak = [
        r
        for r in _rows(records, "BCGSI+A-3S", io1="cholqr")
        if r.kappa_actual >= 1.0e9
    ]
    ok = (
        len(strong) >= 3
        and all(
            not r.failed and r.loo <= TOL * r.kappa_actual for r in strong
        )
        # Gram-based inner muscle: breakdown occurs somewhere past the
        # 1/sqrt(eps) viability threshold (not necessarily at the first
        # rung beyond it).
        and len(weak) >= 1
        and any(
            r.failed or r.loo > TOL * r.kappa_actual for r in weak
        )
    )
    detail = (
        f"strong={[(f'{r.kappa_actual:.2e}', f'{r.loo:.2e}') for r in strong]}"
        f" weak={[(f'{r.kappa_actual:.2e}', r.failed) for r in weak]}"
    )
    _report(3, "three-sync linear envelope and Cholesky breakdown", ok, detail)


def test_acceptance_4_low_sync_quadratic_envelope(monomial_main, piled_low):
    records = monomial_main[1] + piled_low[1]
    problems = []
    for name in ("BCGSI+A-2S", "BCGSI+A-1S"):
        rows = _rows(records, name)
        covered = [
            r
            for r in rows
            if math.isfinite(r.kappa_actual) and r.kappa_actual <= 2.0e5
        ]
        if len(covered) < 4:
            problems.append(f"{name}: only {len(covered)} covered points")
        for r in covered:
            if r.failed or r.loo > TOL * r.kappa_actual**2:
                problems.append(
                    f"{name} at kappa={r.kappa_actual:.3e}: loo={r.loo:.3e}"
                )
        exploded = [
            r
            for r in rows
            if r.kappa_actual >= 1.0e9 and (r.failed or r.loo > 1.0e-2)
        ]
        if not exploded:
            problems.append(f"{name}: no explosion at kappa >= 1e9")
    _report(
        4,
        "two-/one-sync quadratic envelope, explosion past kappa ~ 1e9",
        not problems,
        "; ".join(problems),
    )


def test_acceptance_5_single_column_blocks(piled_cols):
    _, records = piled_cols
    low_sync = [
        r
        for r in records
        if r.skeleton in ("BCGSI+A-1S", "BCGSI+A-2S", "BCGSI+A-3S")
    ]
    plain = [r for r in _rows(records, "BCGS") if r.kappa_actual >= 1.0e9]
    ok = (
        len(low_sync) == 18
        and all(
            not r.failed and r.loo <= TOL and r.rel_chol_res <= TOL
            for r in low_sync
        )
        and len(plain) >= 2
        and all(
            math.isfinite(r.loo) and r.loo >= 1.0e3 * TOL for r in plain
        )
    )
    detail = (
        f"low_sync worst loo="
        f"{max((r.loo for r in low_sync), default=math.nan):.3e}"
        f" plain loo={[f'{r.loo:.2e}' for r in plain]}"
    )
    _report(
        5,
        "single-column low-sync accuracy, plain BCGS 3+ orders worse",
        ok,
        detail,
    )


def test_acceptance_6_residual_universality(
    monomial_main, piled_low, piled_cols
):
    records = monomial_main[1] + piled_low[1] + piled_cols[1]
    survivors = [r for r in records if not r.failed]
    bad = [r for r in survivors if not (r.rel_res <= TOL)]
    ok = len(survivors) >= 40 and not bad
    detail = "; ".join(
        f"{r.skeleton} {r.matrix_class} kappa={r.kappa_actual:.2e}"
        f" rel_res={r.rel_res:.3e}"
        for r in bad
    )
    _report(
        6,
        f"residual <= 100*eps on all {len(survivors)} non-failed runs",
        ok,
        detail,
    )


def test_acceptance_7_sync_counts():
    table = dict(sync_table())
    expected = {
        "BCGS": 2.0,
        "BCGS-A": 2.0,
        "BCGSI+": 4.0,
        "BCGSI+A": 4.0,
        "BCGSI+A-3S": 3.0,
        "BCGSI+A-2S": 2.0,
        "BCGSI+A-1S": 1.0,
    }
    _report(
        7,
        "steady-state sync counts from live ledgers",
        table == expected,
        f"got {table}",
    )


def test_acceptance_8_oracle_equivalences():
    problems = []

    # (a) The two-sync fusion is the three-sync loop with a Gram-product
    # muscle, reassociated: same Q and R up to rounding scaled by kappa.
    for kappa in (1.0e1, 1.0e2, 1.0e4):
        x = gen_default(100, 10, 5, 42, kappa=kappa)
        ka = cond_2(x.data)
        two = bcgsi_a_2s(x, HOUSE_QR)
        three = bcgsi_a_3s(x, HOUSE_QR, CHOL_QR)
        dq = spectral_norm(two.q.data - three.q.data)
        dr = spectral_norm(two.r - three.r)
        if dq > TOL * ka or dr > TOL * ka * spectral_norm(x.data):
            problems.append(f"(a) kappa={ka:.2e}: dq={dq:.2e} dr={dr:.2e}")

    # (b) With no interior blocks the one-sync loop cannot look ahead and
    # must match the two-sync loop.
    x2 = gen_default(100, 2, 5, 42, kappa=1.0e2)
    one = bcgsi_a_1s(x2, HOUSE_QR)
    two = bcgsi_a_2s(x2, HOUSE_QR)
    dq = np.max(np.abs(one.q.data - two.q.data))
    dr = np.max(np.abs(one.r - two.r))
    if dq > TOL or dr > TOL:
        problems.append(f"(b) dq={dq:.2e} dr={dr:.2e}")

    # (c) Every skeleton computes the same (unique, diag-positive) R as a
    # direct Householder factorization of the whole matrix.
    runners = {
        "bcgs": lambda x: bcgs(x, HOUSE_QR),
        "bcgs_a": lambda x: bcgs_a(x, HOUSE_QR, CHOL_QR),
        "bcgsi_plus": lambda x: bcgsi_plus(x, HOUSE_QR),
        "bcgsi_plus_a": lambda x: bcgsi_plus_a(x, HOUSE_QR, CHOL_QR, CHOL_QR),
        "bcgsi_a_3s": lambda x: bcgsi_a_3s(x, HOUSE_QR, CHOL_QR),
        "bcgsi_a_2s": lambda x: bcgsi_a_2s(x, HOUSE_QR),
        "bcgsi_a_1s": lambda x: bcgsi_a_1s(x, HOUSE_QR),
    }
    for kappa in (1.0e1, 1.0e2, 1.0e4):
        x = gen_default(100, 10, 5, 42, kappa=kappa)
        ka = cond_2(x.data)
        reference = house_qr(np.asarray(x.data)).r
        xf = float(np.linalg.norm(x.data))
        for name, run in runners.items():
            result = run(x)
            dr = float(np.linalg.norm(result.r - reference))
            if result.failed or dr > TOL * ka * xf:
                problems.append(f"(c) {name} kappa={ka:.2e}: dr={dr:.2e}")

    _report(8, "cross-variant oracle equivalences", not problems, "; ".join(problems))


def test_acceptance_9_determinism(monomial_main, tmp_path):
    config, first = monomial_main
    second = run_sweep(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, a)
    write_csv(second, b)
    ok = a.read_bytes() == b.read_bytes()
    _report(9, "byte-identical CSV on sweep rerun", ok)
