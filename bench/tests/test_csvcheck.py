"""The row-level check accepts the recorded references and rejects edits."""

from pathlib import Path

import pytest

from csvcheck import agree, bad_rows, differing_rows, parse

REFERENCE = Path(__file__).resolve().parent.parent / "reference"
REFERENCES = sorted(REFERENCE.glob("*/seed42/sweep-*.csv"))


def _edit(text, row, column, value):
    header, rows = parse(text)
    rows[row][header.index(column)] = value
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _first_row(text, failed):
    header, rows = parse(text)
    col = header.index("failed")
    return next(i for i, r in enumerate(rows) if r[col] == failed)


def test_references_exist():
    assert {p.parent.parent.name for p in REFERENCES} == {
        "piled-calib", "tall-default", "muscle-grid"
    }


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: f"{p.parts[-3]}/{p.name}")
def test_accepts_the_reference(path):
    text = path.read_text()
    assert bad_rows(text, text) == set()
    assert bad_rows(text, text, text) == set()
    assert differing_rows(text, text) == set()


def test_rejects_one_changed_loo():
    text = (REFERENCE / "piled-calib/seed42/sweep-0.csv").read_text()
    row = _first_row(text, "false")
    loo = float(parse(text)[1][row][parse(text)[0].index("loo")])
    changed = _edit(text, row, "loo", "%.16e" % (loo * 10))
    assert bad_rows(changed, text, text) == {row}
    assert differing_rows(changed, text) == {row}


def test_rejects_one_flipped_failed():
    text = (REFERENCE / "piled-calib/seed42/sweep-0.csv").read_text()
    row = _first_row(text, "true")
    changed = _edit(text, row, "failed", "false")
    # Without a values reference the row is still inconsistent: NaN metrics
    # on a row that claims success.
    assert bad_rows(changed, text) == {row}
    assert bad_rows(changed, text, text) == {row}


def test_rejects_a_missing_row():
    text = (REFERENCE / "muscle-grid/seed42/sweep-0.csv").read_text()
    lines = text.splitlines()
    shortened = "\n".join(lines[:-1]) + "\n"
    assert bad_rows(shortened, text, text) == {len(lines) - 2}
    header, rows = parse(text)
    middle = "\n".join(lines[:3] + lines[4:]) + "\n"
    assert 2 in bad_rows(middle, text, text)
    assert len(rows) - 1 in bad_rows(middle, text, text)


def test_rejects_wrong_header_and_extra_rows():
    text = (REFERENCE / "tall-default/seed42/sweep-0.csv").read_text()
    n = len(parse(text)[1])
    assert bad_rows(text.replace("loo", "lo", 1), text) == set(range(n))
    assert bad_rows(text + text.splitlines()[1] + "\n", text) == set(range(n))


def test_skipped_calibration_row_is_consistent_without_sync_count():
    text = (REFERENCE / "piled-calib/seed42/sweep-0.csv").read_text()
    header, rows = parse(text)
    skipped = [list(r) for r in rows]
    for col in ("kappa_actual", "loo", "rel_res", "rel_chol_res", "sync_per_block"):
        skipped[0][header.index(col)] = "NaN"
    skipped[0][header.index("failed")] = "true"
    skipped_text = "\n".join(",".join(r) for r in [header, *skipped]) + "\n"
    assert bad_rows(skipped_text, text) == set()
    # Against a values reference that calibrated the point, it fails.
    assert bad_rows(skipped_text, text, text) == {0}


def test_tolerance_accepts_thread_count_rounding_and_rejects_magnitude():
    rtol, atol = 0.5, 1e-13
    # Pairs seen between 2 BLAS threads and 1 on tall-default.
    assert agree("2.8140373467270028e-14", "9.3065583376739014e-15", rtol, atol)
    assert agree("7.4369682730115638e-01", "7.9926951224926530e-01", rtol, atol)
    assert not agree("7.4e-01", "7.4e-02", rtol, atol)
    assert not agree("1.0e-08", "5.0e-08", rtol, atol)
    assert agree("NaN", "NaN", rtol, atol)
    assert not agree("NaN", "1.0", rtol, atol)
