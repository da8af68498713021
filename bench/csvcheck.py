"""Row-level correctness check of sweep CSVs.

A CSV is compared with the *structure* reference (the CSV recorded at seed
42 for the same sweep) and, when one exists for the seed in use, with a
*values* reference:

* exact: the header, the row count and order, the label columns, and
  ``sync_per_block`` (both follow from the configuration, not the seed);
* every row is internally consistent: ``failed=false`` rows have finite
  metrics, ``failed=true`` rows have NaN metrics, and a row skipped by piled
  calibration (NaN ``kappa_actual``) is failed with no sync count;
* against a values reference: ``failed`` matches exactly, and the float
  columns have NaN in the same places and agree within :data:`TOLERANCE`.

The float tolerance accepts rounding-level differences, such as those
between BLAS thread counts (up to 7% on an unstable variant's
loss of orthogonality, and a factor of 3 on values of order 1e-14), and
rejects changes of magnitude.
"""

from __future__ import annotations

import math

LABEL_COLUMNS = (
    "matrix_class", "m", "p", "s", "kappa_target",
    "skeleton", "io_a", "io1", "io2",
)
METRIC_COLUMNS = ("loo", "rel_res", "rel_chol_res")

# column -> (relative tolerance, absolute tolerance)
TOLERANCE = {
    "kappa_actual": (1e-3, 0.0),
    "loo": (0.5, 1e-13),
    "rel_res": (0.5, 1e-13),
    "rel_chol_res": (0.5, 1e-13),
    "elapsed_ms": (0.0, 0.0),
}


def parse(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by ``blockgs sweep``."""
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def agree(a: str, b: str, rtol: float, atol: float) -> bool:
    """Two float cells agree: both NaN, or close within the tolerance."""
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def _consistent(row: dict[str, str], ref: dict[str, str]) -> bool:
    if any(row[c] != ref[c] for c in LABEL_COLUMNS):
        return False
    metrics = [float(row[c]) for c in METRIC_COLUMNS]
    if row["failed"] == "false":
        return all(math.isfinite(v) for v in metrics) and (
            row["sync_per_block"] == ref["sync_per_block"]
        )
    if row["failed"] != "true" or not all(math.isnan(v) for v in metrics):
        return False
    if math.isnan(float(row["kappa_actual"])):  # skipped by calibration
        return row["sync_per_block"] == "NaN"
    return row["sync_per_block"] == ref["sync_per_block"]


def _matches(row: dict[str, str], ref: dict[str, str]) -> bool:
    if row["failed"] != ref["failed"] or row["sync_per_block"] != ref["sync_per_block"]:
        return False
    return all(
        agree(row[c], ref[c], rtol, atol) for c, (rtol, atol) in TOLERANCE.items()
    )


def bad_rows(text: str, structure: str, values: str | None = None) -> set[int]:
    """Indices (0-based, into the structure reference) of rows that fail.

    A missing row fails; a CSV with a wrong header or extra rows fails as a
    whole.
    """
    ref_header, ref_rows = parse(structure)
    header, rows = parse(text)
    everything = set(range(len(ref_rows)))
    if header != ref_header or len(rows) > len(ref_rows):
        return everything
    val_rows = parse(values)[1] if values is not None else None
    bad = set(range(len(rows), len(ref_rows)))
    for i, cells in enumerate(rows):
        if len(cells) != len(header):
            bad.add(i)
            continue
        row = dict(zip(header, cells))
        ref = dict(zip(header, ref_rows[i]))
        try:
            ok = _consistent(row, ref) and (
                val_rows is None or _matches(row, dict(zip(header, val_rows[i])))
            )
        except ValueError:  # a cell that is not a number
            ok = False
        if not ok:
            bad.add(i)
    return bad


def differing_rows(text: str, other: str) -> set[int]:
    """Row indices where two CSVs are not byte-identical (0-based)."""
    a, b = text.splitlines()[1:], other.splitlines()[1:]
    n = max(len(a), len(b))
    a += [None] * (n - len(a))
    b += [None] * (n - len(b))
    return {i for i, (x, y) in enumerate(zip(a, b)) if x != y}
