"""``tools/bits.py``, the byte-for-byte comparison of the benchmark
workloads' CSVs in two trees, with its export and its sweeps replaced by
fixed bytes: no sweep runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Two rows of a real workload CSV, so the tool's tolerance check parses them.
CSV = "\n".join(
    (ROOT / "bench/reference/muscle-grid/seed42/sweep-0.csv")
    .read_text()
    .splitlines()[:3]
) + "\n"


@pytest.fixture
def bits():
    """The tool's module, loaded from its file as it loads ``bench/``."""
    spec = importlib.util.spec_from_file_location(
        "bits", ROOT / "tools" / "bits.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verdicts(rows):
    """(line number, verdict) of each differing line in ``rows``, once each
    is seen to be followed by its old and its new line."""
    assert len(rows) % 3 == 0
    heads = rows[::3]
    assert all(row.startswith("      - ") for row in rows[1::3])
    assert all(row.startswith("      + ") for row in rows[2::3])
    return [
        (int(head.split()[1]), head.split("(")[1].split()[0]) for head in heads
    ]


def test_differing_rows_marks_what_is_outside_the_tolerance(bits):
    old = "h,1\nr0\nr1\nr2\nr3"
    new = "h,2\nr0\nR1\nR2\nr3\nr4"
    rows = bits._differing_rows(old, new, outside={2})
    # The header, a data row listed in ``outside`` and an extra line are
    # outside; the other changed row is within.
    assert _verdicts(rows) == [
        (1, "outside"), (3, "within"), (4, "outside"), (6, "outside"),
    ]
    assert rows[1:3] == ["      - h,1", "      + h,2"]
    assert rows[-2:] == ["      - ", "      + r4"]


def test_differing_rows_marks_a_missing_line_outside(bits):
    rows = bits._differing_rows("h\nr0\nr1", "h\nr0", outside=set())
    assert _verdicts(rows) == [(3, "outside")]
    assert bits._differing_rows("h\nr0", "h\nr0", outside={0}) == []


def _run_main(bits, monkeypatch, capsys, changed=None):
    """``main(["HEAD"])`` with every sweep returning ``CSV``, except the
    work tree's first, which returns ``changed`` when given; its exit code,
    printed lines and the number of sweeps asked for."""
    calls = []

    def sweep(tree, args, out):
        calls.append(tree)
        first_new = tree == bits.ROOT and calls.count(bits.ROOT) == 1
        return (changed if changed and first_new else CSV).encode()

    monkeypatch.setattr(bits, "_export", lambda rev, dest: None)
    monkeypatch.setattr(bits, "_sweep", sweep)
    code = bits.main(["HEAD"])
    return code, capsys.readouterr().out.splitlines(), len(calls)


def test_main_exits_0_when_every_csv_agrees(bits, monkeypatch, capsys):
    code, lines, calls = _run_main(bits, monkeypatch, capsys)
    assert code == 0
    assert lines[-1] == "0 CSV(s) differ"
    verdicts = [line.split()[-1] for line in lines[1:-1]]
    assert calls > 0 and verdicts == ["same"] * (calls // 2)


def test_main_exits_1_with_one_differs_line_for_one_csv(
    bits, monkeypatch, capsys
):
    header, first, second = CSV.splitlines()
    cells = second.split(",")
    cells[10] = "9.0000000000000000e+00"  # loo, far outside the tolerance
    changed = "\n".join((header, first, ",".join(cells))) + "\n"
    code, lines, _ = _run_main(bits, monkeypatch, capsys, changed)
    assert code == 1
    assert lines[-1] == "1 CSV(s) differ"
    assert sum(line.endswith("  DIFFERS") for line in lines) == 1
    assert "    line 3 (outside tolerance):" in lines
    assert "    1 row(s) outside tolerance" in lines
