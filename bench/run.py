"""Sweep benchmark of blockgs: end-to-end numbers and a traced layer breakdown.

    python3 bench/run.py --workload piled-calib --seed 42 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Each pass of a workload runs in a fresh child process (``child.py``) that
calls ``blockgs.harness.cli_main(["sweep", ...])`` for every sweep of the
workload, one pass at a time (a closed loop with one client).  Children
start with the BLAS thread variables removed from their environment, so
the program's own thread policy governs.

``--trace 0`` runs untraced passes for ``--seconds`` (at least three) and
reports the end-to-end metrics.  ``sweep_s`` is the median pass time, on
workloads with a speed gauge scaled to the gauge's nominal speed (see
``gauge.py``); their wall time is printed beside it.  ``--trace 1`` runs one untraced pass, one
traced pass and one pass with ``OPENBLAS_NUM_THREADS=1``, then alternates
traced and untraced passes while time remains, and reports the per-layer
metrics.  Every CSV of every pass is checked (see ``csvcheck.py``); rows
that fail count in ``failed``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from csvcheck import bad_rows, differing_rows
from gauge import GAUGES
from workloads import (
    END_TO_END,
    GAUGE,
    NOTES,
    PER_LAYER,
    REPORT_ONLY,
    SYNC_LABELS,
    WORKLOAD_NAMES,
    result_layer_metrics,
    sweeps,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 42
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3

# Per-layer counts a traced pass makes: they must repeat from pass to pass
# and, at the reference seed, equal the recorded reference.  (harness.rows
# is read from the CSVs instead.)
EXACT_LAYER_COUNTS = tuple(
    name
    for name, (unit, _, _) in PER_LAYER.items()
    if unit == "count" and name != "harness.rows"
)


class ChildFailed(RuntimeError):
    """A child process exited abnormally; the run has no result."""


@dataclass
class Pass:
    """One finished child: its kind, result record, CSV texts and wall time."""

    kind: str  # "plain", "traced" or "1thread"
    result: dict
    texts: list[str | None]
    wall_s: float


def child_env(one_thread: bool) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(workload: str, seed: int, out_dir: Path, kind: str) -> Pass:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--out-dir", str(out_dir), "--t0", repr(t0),
    ]
    if kind == "traced":
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, env=child_env(kind == "1thread"), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{kind} pass timed out after {exc.timeout} s") from None
    wall_s = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildFailed(
            f"{kind} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads((out_dir / "result.json").read_text())
    texts = []
    for i in range(len(sweeps(workload, seed))):
        path = out_dir / f"sweep-{i}.csv"
        texts.append(path.read_text() if path.exists() else None)
    return Pass(kind, result, texts, wall_s)


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[Pass]:
    """The run's schedule of passes; see the module docstring."""
    out = WORK / workload
    if out.exists():
        shutil.rmtree(out)
    start = time.monotonic()
    passes: list[Pass] = []

    def run(kind: str) -> None:
        passes.append(run_child(workload, seed, out / f"pass-{len(passes)}", kind))

    def fits(kinds: tuple[str, ...]) -> bool:
        """Whether passes of these kinds should end within the budget."""
        need = sum(
            statistics.median(p.wall_s for p in passes if p.kind == kind)
            for kind in kinds
        )
        return time.monotonic() - start + need <= seconds

    if not trace:
        while len(passes) < MIN_PASSES or fits(("plain",)):
            run("plain")
        return passes
    for kind in ("plain", "traced", "1thread"):
        run(kind)
    while fits(("traced", "plain")):
        run("traced")
        run("plain")
    return passes


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def reference_csvs(workload: str, seed: int) -> list[str] | None:
    folder = REFERENCE / workload / f"seed{seed}"
    if not folder.is_dir():
        return None
    return [
        (folder / f"sweep-{i}.csv").read_text()
        for i in range(len(sweeps(workload, seed)))
    ]


def reference_counts(workload: str, seed: int) -> dict | None:
    path = REFERENCE / workload / f"seed{seed}" / "counts.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_run(workload: str, seed: int, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Rows attempted, rows failed and count mismatches over every pass.

    Without a values reference for the seed, the first default-thread pass
    stands in for one: every later default-thread pass must reproduce its
    bytes, and the one-thread pass must agree with it within tolerance.
    """
    structure = reference_csvs(workload, REFERENCE_SEED)
    values = reference_csvs(workload, seed)
    first = next(p for p in passes if p.kind != "1thread")
    attempted = failed = 0
    for p in passes:
        for i, ref in enumerate(structure):
            expected = len(ref.splitlines()) - 1
            attempted += expected
            text, lines = p.texts[i], p.result["violations"][i]
            if text is None or lines is None:
                failed += expected
                continue
            bad = bad_rows(text, ref, values[i] if values else None)
            bad |= {line - 2 for line in lines}
            base = first.texts[i]
            if p is not first and base is not None:
                if p.kind == "1thread":
                    bad |= bad_rows(text, ref, base)
                else:
                    bad |= differing_rows(text, base) & set(range(expected))
            failed += len(bad)
    return attempted, failed, count_mismatches(workload, seed, passes)


def count_mismatches(workload: str, seed: int, passes: list[Pass]) -> list[str]:
    """Exact counts that differ between passes or from the reference."""
    problems = []
    syncs = {p.result["syncs_total"] for p in passes}
    if len(syncs) != 1:
        problems.append(f"syncs_total differs between passes: {sorted(syncs)}")
    traced = [p.result["layers"] for p in passes if p.kind == "traced"]
    for layers in traced:
        labelled = sum(layers[f"syncmodel.{label}"] for label in SYNC_LABELS)
        if labelled != passes[0].result["syncs_total"]:
            problems.append(
                f"syncmodel labels sum to {labelled}, syncs_total is "
                f"{passes[0].result['syncs_total']}"
            )
    for name in EXACT_LAYER_COUNTS:
        seen = {layers[name] for layers in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    ref = reference_counts(workload, seed)
    if ref is not None:
        observed = {"syncs_total": passes[0].result["syncs_total"]}
        if traced:
            observed.update((n, traced[0][n]) for n in EXACT_LAYER_COUNTS)
        for name, value in observed.items():
            if ref.get(name) != value:
                problems.append(f"{name} = {value}, reference {ref.get(name)}")
    return problems


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------


def summarize(values: list[float], unit: str) -> str:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (reported once it lies above the median)."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f} {unit}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        text += f", quartiles {q1:.4f}..{q3:.4f}"
    text += f", n={n}"
    if n > 20:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.0f} {ordered[n - 11]:.4f}"
    else:
        text += " (too few for a tail percentile)"
    return text


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    plain = [p.result for p in passes if p.kind == "plain"]
    return {
        "setup_s": statistics.median(p.result["setup_s"] for p in passes),
        "sweep_s": statistics.median(r["sweep_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "syncs_total": plain[0]["syncs_total"],
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p.result for p in passes if p.kind == "traced"]
    plain = [p.result for p in passes if p.kind == "plain"]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["harness.rows"] = sum(
        len(t.splitlines()) - 1 for t in passes[0].texts if t is not None
    )
    out["trace.overhead"] = statistics.median(
        r["sweep_wall_s"] for r in traced
    ) / statistics.median(r["sweep_wall_s"] for r in plain)
    out["ref.sweep_s_1thread"] = next(
        p.result["sweep_s"] for p in passes if p.kind == "1thread"
    )
    return out


def _moves(name: str) -> str:
    if name in NOTES:
        return NOTES[name]
    return "moves " + "; ".join(
        f"{metric} on {', '.join(wls)}" for metric, wls in PER_LAYER[name][2]
    )


def print_report(workload, seed, trace, passes, attempted, failed, problems, layers):
    machine = passes[0].result["machine"]
    blas = ", ".join(f"{k}: {v}" for k, v in machine["blas"].items())
    threads = ", ".join(f"{k}={v}" for k, v in machine["blas_threads"].items())
    print(
        f"machine: nproc={machine['nproc']} python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']}"
    )
    print(f"  BLAS builds: {blas}")
    print(f"  BLAS threads in the default child: {threads or 'unknown'}")
    one = next((p for p in passes if p.kind == "1thread"), None)
    if one is not None:
        threads = ", ".join(
            f"{k}={v}" for k, v in one.result["machine"]["blas_threads"].items()
        )
        print(f"  BLAS threads in the OPENBLAS_NUM_THREADS=1 child: {threads}")
    kinds = ", ".join(
        f"{sum(p.kind == k for p in passes)} {k}" for k in ("plain", "traced", "1thread")
    )
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: passes {kinds}")
    plain = [p.result for p in passes if p.kind == "plain"]
    print(f"  sweep_s           {summarize([r['sweep_s'] for r in plain], 's')}")
    if workload in GAUGE:
        gauge = statistics.median(r["gauge_s"] for r in plain)
        print(
            f"  sweep_wall_s      {summarize([r['sweep_wall_s'] for r in plain], 's')}"
            f"\n  ({GAUGE[workload]} gauge: median reading {1e3 * gauge:.3f} ms,"
            f" nominal {1e3 * GAUGES[GAUGE[workload]][1]:.3f} ms)"
        )
    print(f"  setup_s           {summarize([p.result['setup_s'] for p in passes], 's')}")
    print(f"  peak_rss_mb       {summarize([r['peak_rss_mb'] for r in plain], 'MB')}")
    print(f"  syncs_total       {passes[0].result['syncs_total']} count")
    print(
        f"  error_share       {failed / attempted:.4f} "
        f"({failed} of {attempted} rows failed the check)"
    )
    for problem in problems:
        print(f"  COUNT MISMATCH: {problem}")
    for p in passes:
        for i, msg in p.result["errors"].items():
            print(f"  SWEEP ERROR ({p.kind} pass, sweep {i}): {msg}")
    values = reference_csvs(workload, seed)
    for i, text in enumerate(passes[0].texts):
        if text is None:
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        same = "no reference for this seed" if values is None else (
            "byte-identical to the reference" if text == values[i]
            else "bytes differ from the reference"
        )
        print(f"  csv sweep-{i}: sha256 {digest[:16]} ({same})")
    if trace:
        traced = [p.result for p in passes if p.kind == "traced"]
        print(f"  per-layer breakdown, median of {len(traced)} traced pass(es):")
        for name in PER_LAYER:
            unit = PER_LAYER[name][0]
            note = " (report only)" if name in REPORT_ONLY else ""
            print(f"    {name:<26} {layers[name]:>14.6g} {unit:<6} {_moves(name)}{note}")
        pass_s = statistics.median(r["sweep_s"] for r in traced)
        print(f"  self time by layer (traced pass {pass_s:.3f} s):")
        layers = sorted(traced[0]["layer_self"])
        for layer in layers:
            share = statistics.median(r["layer_self"].get(layer, 0.0) for r in traced)
            print(f"    {layer:<10} {share:9.4f} s  {100 * share / pass_s:5.1f}%")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    passes = run_passes(workload, seed, seconds, trace)
    attempted, failed, problems = check_run(workload, seed, passes)
    layers = per_layer(passes) if trace else None
    if trace:
        metrics = {name: layers[name] for name in result_layer_metrics()}
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = end_to_end(passes)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    print_report(workload, seed, trace, passes, attempted, failed, problems, layers)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "blockgs" / "__init__.py").is_file():
        print(f"bench: no blockgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    ok = True
    try:
        for workload in workloads:
            for trace in traces:
                ok &= run_workload(workload, args.seed, args.seconds, trace)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    # One workload prints a result, correct or not; "all" reports by status.
    return 1 if args.workload == "all" and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
