"""Record the reference that ``run.py`` checks seed-42 runs against.

    python3 bench/record_reference.py

For each workload this runs one untraced and one traced pass at seed 42,
requires them to agree byte for byte and to pass ``check_bounds``, and
writes ``reference/<workload>/seed42/``: the CSV of every sweep and
``counts.json`` with the exact counts (``syncs_total`` and the per-layer
counts).  Re-record only with a CHANGES.md note saying why the bytes moved.
"""

from __future__ import annotations

import json
import sys

from run import (
    EXACT_LAYER_COUNTS,
    REFERENCE,
    REFERENCE_SEED,
    WORK,
    run_child,
)
from workloads import WORKLOAD_NAMES


def main() -> int:
    for workload in WORKLOAD_NAMES:
        out = WORK / "record" / workload
        plain = run_child(workload, REFERENCE_SEED, out / "plain", "plain")
        traced = run_child(workload, REFERENCE_SEED, out / "traced", "traced")
        for p in (plain, traced):
            if p.result["errors"] or any(v != [] for v in p.result["violations"]):
                print(f"{workload}: {p.kind} pass failed: {p.result}", file=sys.stderr)
                return 1
        if plain.texts != traced.texts:
            print(f"{workload}: traced CSVs differ from untraced", file=sys.stderr)
            return 1
        if plain.result["syncs_total"] != traced.result["syncs_total"]:
            print(f"{workload}: syncs_total differs when traced", file=sys.stderr)
            return 1
        folder = REFERENCE / workload / f"seed{REFERENCE_SEED}"
        folder.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(plain.texts):
            (folder / f"sweep-{i}.csv").write_text(text)
        counts = {"syncs_total": plain.result["syncs_total"]}
        counts.update((n, traced.result["layers"][n]) for n in EXACT_LAYER_COUNTS)
        (folder / "counts.json").write_text(json.dumps(counts, indent=1) + "\n")
        print(f"{workload}: recorded {len(plain.texts)} CSV(s) in {folder}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
