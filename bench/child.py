"""One pass of one workload, in a fresh process started by ``run.py``.

    python3 bench/child.py --workload NAME --seed N --out-dir DIR --t0 T [--traced]

``--t0`` is ``time.monotonic()`` in the parent just before it started this
process (the clock is shared by all processes on Linux), so ``setup_s``
covers interpreter start, ``import blockgs`` and one small BLAS product.
The pass then runs every sweep of the workload through
``blockgs.harness.cli_main`` and is timed from the first config to the last
CSV on disk.  An untraced pass of a workload with a gauge (``GAUGE`` in
``workloads.py``) also runs the gauge before the first row, before each row
once a quarter second has passed since the last reading, and at the end;
``sweep_s`` is then the pass time scaled to the gauge's nominal speed and
``sweep_wall_s`` its wall time, both without the gauge's own time (see
``gauge.py``).  Otherwise both are the wall time.  After the timed region
the child runs ``check_bounds`` on each CSV, reads the machine record and
writes ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

from gauge import PassClock
from workloads import GAUGE, sweeps

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS the process has loaded, by library file."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _blas_builds() -> dict[str, str]:
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            out[mod.__name__] = "unknown"
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_builds(),
        "blas_threads": _blas_threads(),
    }


def _violation_lines(path: Path, check_bounds) -> list[int] | None:
    """CSV line numbers ``check_bounds`` flags; None when it cannot read it."""
    report = io.StringIO()
    try:
        messages = check_bounds(str(path), out=report)
    except (OSError, ValueError):
        return None
    pattern = re.compile(re.escape(str(path)) + r":(\d+):")
    return [int(pattern.match(msg).group(1)) for msg in messages]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import blockgs
    import blockgs.harness as harness

    warm = np.ones((64, 64))
    warm @ warm
    setup_s = time.monotonic() - args.t0
    if not Path(blockgs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"blockgs imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 3

    # syncs_total: one call per CSV row, reading the run's finished ledger.
    syncs_total = 0
    syncs_per_block = harness.syncs_per_block

    def counting_syncs_per_block(result):
        nonlocal syncs_total
        syncs_total += result.ledger.total
        return syncs_per_block(result)

    harness.syncs_per_block = counting_syncs_per_block

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ["sweep", *sweep_args, "--out", str(out_dir / f"sweep-{i}.csv")]
        for i, sweep_args in enumerate(sweeps(args.workload, args.seed))
    ]
    errors: dict[int, str] = {}

    clock = None
    if not args.traced and args.workload in GAUGE:
        clock = PassClock(GAUGE[args.workload])
        run_single = harness.run_single

        def ticking_run_single(*a, **kw):
            clock.tick()
            return run_single(*a, **kw)

        harness.run_single = ticking_run_single

    def run_pass() -> None:
        for i, job in enumerate(jobs):
            try:
                code = harness.cli_main(job)
            except Exception as exc:  # a failed sweep is data for the check
                errors[i] = f"{type(exc).__name__}: {exc}"
            else:
                if code != 0:
                    errors[i] = f"exit code {code}"
            if clock is not None:
                clock.tick()

    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if clock is not None:
            clock.start()
        start = time.perf_counter()
        if tracer is None:
            run_pass()
        else:
            tracer.span("bench.pass", run_pass)
        sweep_s = sweep_wall_s = time.perf_counter() - start
        if clock is not None:
            clock.stop()
            sweep_s, sweep_wall_s = clock.scaled_s, clock.wall_s
    finally:
        if tracer is not None:
            tracer.uninstall()
        if clock is not None:
            harness.run_single = run_single
        harness.syncs_per_block = syncs_per_block

    # Per sweep: the CSV lines check_bounds flags, or None when the sweep
    # failed or its CSV cannot be read.
    violations = [
        None
        if i in errors or not Path(job[-1]).exists()
        else _violation_lines(Path(job[-1]), harness.check_bounds)
        for i, job in enumerate(jobs)
    ]
    result = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "sweep_wall_s": sweep_wall_s,
        "gauge_s": None if clock is None else clock.median_reading(),
        "syncs_total": syncs_total,
        "errors": {str(i): msg for i, msg in errors.items()},
        "violations": violations,
    }
    if tracer is not None:
        from spans import layer_metrics, layer_self_times

        result["layers"] = layer_metrics(tracer.spans, tracer.counts, sweep_s)
        result["layer_self"] = dict(layer_self_times(tracer.spans))
        with open(out_dir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    result["machine"] = machine_record()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
