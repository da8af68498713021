"""Compare the benchmark workloads' CSVs of the work tree and a revision, byte
for byte.

    python3 tools/bits.py REV

``REV`` (for example ``HEAD~1``) is exported with ``git archive`` into a
temporary directory, so the repository's own state is left alone.  For the
work tree and for that copy, every sweep of every workload in the work
tree's ``bench/workloads.py`` runs at each of the seeds 42, 7 and 9137
through ``harness.cli_main``, each in a fresh child with its tree's
``src`` on ``PYTHONPATH`` and no BLAS thread variable, so the sweep runs
under the program's own one-thread policy.  One line per CSV
gives its sha256 in both trees and ``same`` or ``DIFFERS``; the lines of
each differing CSV follow, each marked within or outside the tolerance of
``bench/csvcheck.py`` against the revision's CSV, and a count of the rows
outside it.  Exits 0 when every CSV is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from blockgs.blockcore import _BLAS_THREAD_VARS  # noqa: E402

SEEDS = (42, 7, 9137)
# Stripped from each child's environment: a count the user chose through
# any of them turns the program's one-thread pin off, and the gate would
# no longer check it.
THREAD_VARS = (*_BLAS_THREAD_VARS, "MKL_NUM_THREADS")
SHOWN_ROWS = 20
# Older revisions have no ``blockgs.__main__``.
_CLI = "import sys; from blockgs.harness import cli_main; sys.exit(cli_main())"


def _bench_module(name: str):
    """The module ``bench/<name>.py`` of the work tree, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _sweep(tree: Path, args: list[str], out: Path) -> bytes:
    """The CSV bytes of one ``blockgs sweep`` run on ``tree``'s sources."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CLI, "sweep", *args, "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"bits: sweep {' '.join(args)} on {tree} exited {proc.returncode}:"
            f"\n{proc.stderr}"
        )
    return out.read_bytes()


def _differing_rows(old: str, new: str, outside: set[int]) -> list[str]:
    """Three lines per differing line of two CSVs: its number and verdict,
    the old line and the new one.  ``outside`` holds the 0-based data rows
    beyond the tolerance."""
    lines = []
    pairs = itertools.zip_longest(
        old.splitlines(), new.splitlines(), fillvalue=""
    )
    for line, (a, b) in enumerate(pairs):
        if a != b:
            # A missing or an extra line is outside, as is a header.
            beyond = line == 0 or line - 1 in outside or not (a and b)
            verdict = "outside" if beyond else "within"
            lines += [
                f"    line {line + 1} ({verdict} tolerance):",
                f"      - {a}",
                f"      + {b}",
            ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    args = parser.parse_args(argv)
    workloads = _bench_module("workloads")
    csvcheck = _bench_module("csvcheck")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="bits-") as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        base.mkdir()
        _export(args.rev, base)
        print(f"work tree {ROOT} against {args.rev}")
        for name, seed in itertools.product(
            workloads.WORKLOAD_NAMES, SEEDS
        ):
            for i, sweep in enumerate(workloads.sweeps(name, seed)):
                old = _sweep(base, sweep, tmp / "old.csv")
                new = _sweep(ROOT, sweep, tmp / "new.csv")
                digests = [hashlib.sha256(b).hexdigest() for b in (old, new)]
                verdict = "same" if old == new else "DIFFERS"
                print(
                    f"{name}/seed{seed}/sweep-{i}.csv  {digests[0]}  "
                    f"{digests[1]}  {verdict}"
                )
                if old != new:
                    differing += 1
                    old_text, new_text = old.decode(), new.decode()
                    outside = csvcheck.bad_rows(new_text, old_text, old_text)
                    rows = _differing_rows(old_text, new_text, outside)
                    shown = rows[: 3 * SHOWN_ROWS]
                    print("\n".join(shown))
                    if len(rows) > len(shown):
                        print(f"    ... {(len(rows) - len(shown)) // 3} more")
                    print(f"    {len(outside)} row(s) outside tolerance")
    print(f"{differing} CSV(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
