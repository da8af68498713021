"""The benchmark's workloads, its metric catalogue and the layer-to-metric map.

A workload is a list of ``blockgs sweep`` argument lists; one *pass* runs them
all, in order, through ``blockgs.harness.cli_main``.  Every sweep receives the
workload seed as ``--seed``, so one seed pins down every generated matrix.
"""

from __future__ import annotations

SKELETONS = (
    "bcgs",
    "bcgs_a",
    "bcgsi_plus",
    "bcgsi_plus_a",
    "bcgsi_a_3s",
    "bcgsi_a_2s",
    "bcgsi_a_1s",
)
MUSCLES = ("houseqr", "givensqr", "mgs", "cholqr")
SYNC_LABELS = ("proj", "proj2", "batch", "io-gram", "io-cols")
WORKLOAD_NAMES = ("piled-calib", "tall-default", "muscle-grid")

# Why each workload was chosen, one line each; BENCHMARK.json repeats these
# (bench/tests/test_benchmark_json.py keeps the two in step).
WHY = {
    "piled-calib": (
        "piled m=1000 p=20 s=5, 6 targets: bisection calibration regenerates"
        " the matrix up to 42 times per target, so matgen and cond_2 dominate;"
        " 2 breakdown rows take the NaN path"
    ),
    "tall-default": (
        "default m=20000 p=20 s=10 at kappa 1e8: the tall-skinny shape of the"
        " paper (32 MB matrix, above the 4 MB L2, below the 105 MB L3); tall"
        " products and full SVD metrics dominate"
    ),
    "muscle-grid": (
        "m=100 p=10 s=5, default+monomial, 4 kappas, each muscle in every"
        " slot: 8 sweeps, 224 rows; the only workload running givensqr and"
        " mgs; many small calls, no calibration"
    ),
}


# The speed gauge (see gauge.py) that scales each workload's sweep_s: the
# gauge of the kind of work its time goes to.  piled-calib has none: its
# time goes to two-thread BLAS calls on small matrices, whose cost is set by
# how the host schedules both vCPUs, which no one-thread gauge follows; its
# sweep_s is the wall time.
GAUGE = {
    "tall-default": "stream",
    "muscle-grid": "interp",
}


def sweeps(workload: str, seed: int) -> list[list[str]]:
    """Argument lists (after ``sweep``, before ``--out``) of one pass."""
    tail = ["--seed", str(seed)]
    if workload == "piled-calib":
        return [
            ["--matrix", "piled", "--m", "1000", "--p", "20", "--s", "5",
             "--kappa-range", "1e2:1e12:6"] + tail
        ]
    if workload == "tall-default":
        return [
            ["--matrix", "default", "--m", "20000", "--p", "20", "--s", "10",
             "--kappas", "1e8"] + tail
        ]
    if workload == "muscle-grid":
        return [
            ["--matrix", matrix, "--m", "100", "--p", "10", "--s", "5",
             "--kappa-range", "1e1:1e14:4",
             "--io-a", io, "--io1", io, "--io2", io] + tail
            for matrix in ("default", "monomial")
            for io in MUSCLES
        ]
    raise ValueError(f"unknown workload {workload!r}")


# End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the share
# of the parent's median by which the metric may worsen.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "syncs_total": ("count", "lower", 0.01),
}

# Per-layer metrics: name -> (unit, better, [(end-to-end metric, workloads)]).
# The last field is the prediction written down before measuring: which
# end-to-end metric a change in this layer metric should move, and where.
PER_LAYER: dict[str, tuple[str, str, list[tuple[str, tuple[str, ...]]]]] = {
    "harness.self_s": ("s", "lower", [("sweep_s", ("muscle-grid",))]),
    "harness.write_csv_s": ("s", "lower", [("sweep_s", ("muscle-grid",))]),
    "harness.rows": ("count", "higher", [("sweep_s", ("muscle-grid",))]),
    "matgen.self_s": ("s", "lower", [("sweep_s", ("piled-calib",))]),
    "matgen.calibrate_self_s": ("s", "lower", [("sweep_s", ("piled-calib",))]),
    "matgen.gen_s": ("s", "lower", [("sweep_s", ("piled-calib",))]),
    "matgen.gen_calls": ("count", "lower", [("sweep_s", ("piled-calib",))]),
    "matgen.probes_per_point": (
        "count", "lower", [("sweep_s", ("piled-calib",))]),
    "blockcore.cond_2_s": (
        "s", "lower", [("sweep_s", ("piled-calib", "tall-default"))]),
    "blockcore.cond_2_calls": (
        "count", "lower", [("sweep_s", ("piled-calib", "tall-default"))]),
    "blockcore.tri_solve_s": ("s", "lower", [("sweep_s", ("tall-default",))]),
    "blockcore.tri_solve_calls": (
        "count", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.houseqr_s": ("s", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.houseqr_calls": (
        "count", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.givensqr_s": ("s", "lower", [("sweep_s", ("muscle-grid",))]),
    "muscles.givensqr_calls": (
        "count", "lower", [("sweep_s", ("muscle-grid",))]),
    "muscles.mgs_s": ("s", "lower", [("sweep_s", ("muscle-grid",))]),
    "muscles.mgs_calls": ("count", "lower", [("sweep_s", ("muscle-grid",))]),
    "muscles.cholqr_s": ("s", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.cholqr_calls": (
        "count", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.io_cols_s": (
        "s", "lower", [("sweep_s", ("muscle-grid", "tall-default"))]),
    "muscles.chol_free_s": ("s", "lower", [("sweep_s", ("tall-default",))]),
    "muscles.breakdowns": ("count", "lower", []),
    "skeletons.self_s": (
        "s", "lower",
        [("sweep_s", ("tall-default",)), ("peak_rss_mb", ("tall-default",))]),
    **{
        f"skeletons.{kind}_s": ("s", "lower", [("sweep_s", WORKLOAD_NAMES)])
        for kind in SKELETONS
    },
    "syncmodel.events": ("count", "lower", [("syncs_total", WORKLOAD_NAMES)]),
    **{
        f"syncmodel.{label}": ("count", "lower", [("syncs_total", WORKLOAD_NAMES)])
        for label in SYNC_LABELS
    },
    "metrics.loo_s": (
        "s", "lower", [("sweep_s", ("tall-default", "piled-calib"))]),
    "metrics.rel_res_s": (
        "s", "lower",
        [("sweep_s", ("tall-default", "piled-calib")),
         ("peak_rss_mb", ("tall-default",))]),
    "metrics.rel_chol_res_s": (
        "s", "lower", [("sweep_s", ("tall-default", "piled-calib"))]),
    "metrics.share": (
        "ratio", "lower", [("sweep_s", ("tall-default", "piled-calib"))]),
    "trace.overhead": ("ratio", "lower", []),
    "ref.sweep_s_1thread": ("s", "lower", [("sweep_s", WORKLOAD_NAMES)]),
}

# What the per-layer metrics that move no end-to-end metric are for.
NOTES = {
    "muscles.breakdowns": "data, not an error; must match the reference",
    "trace.overhead": (
        "traced over untraced pass wall time; sweep_s is untraced"),
}

# Per-layer times that read exactly 0 on a workload that never enters the
# code they time.  They are printed in the report but left out of the result
# line, where each time must be a measurement; ``matgen.self_s`` and
# ``muscles.io_cols_s`` carry the same work on every workload.
REPORT_ONLY = ("matgen.calibrate_self_s", "muscles.givensqr_s", "muscles.mgs_s")


def result_layer_metrics() -> list[str]:
    """Per-layer metric names of the result line (and of BENCHMARK.json)."""
    return [name for name in PER_LAYER if name not in REPORT_ONLY]
