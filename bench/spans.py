"""Spans around blockgs's layer boundaries, recorded from outside the package.

:class:`Tracer` replaces chosen public functions of the ``blockgs`` modules
with timing wrappers.  Every module attribute that is bound to a wrapped
function is replaced, so a call through ``harness.cond_2`` or through
``matgen.cond_2`` is recorded the same way, and :meth:`Tracer.uninstall`
puts every original back.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent)``; ``name`` is ``"<layer>.<what>"``
and ``parent`` is the index of the enclosing span, or -1.  Spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from workloads import MUSCLES, SKELETONS, SYNC_LABELS

# (module, function, span name).  ``apply_io`` is named after the muscle its
# spec selects, so each muscle kind gets its own spans.
TIMED = (
    ("blockgs.harness", "cli_main", "harness.cli_main"),
    ("blockgs.harness", "run_sweep", "harness.run_sweep"),
    ("blockgs.harness", "run_single", "harness.run_single"),
    ("blockgs.harness", "write_csv", "harness.write_csv"),
    ("blockgs.matgen", "calibrate_piled", "matgen.calibrate_piled"),
    ("blockgs.matgen", "gen_piled", "matgen.gen_piled"),
    ("blockgs.matgen", "gen_default", "matgen.gen_default"),
    ("blockgs.matgen", "gen_monomial", "matgen.gen_monomial"),
    ("blockgs.blockcore", "cond_2", "blockcore.cond_2"),
    ("blockgs.blockcore", "tri_solve_right", "blockcore.tri_solve_right"),
    ("blockgs.blockcore", "tri_solve_left_transposed",
     "blockcore.tri_solve_left_transposed"),
    ("blockgs.muscles", "apply_io", None),
    ("blockgs.muscles", "chol_free", "muscles.chol_free"),
    *(("blockgs.skeletons", kind, f"skeletons.{kind}") for kind in SKELETONS),
    ("blockgs.metrics", "loo", "metrics.loo"),
    ("blockgs.metrics", "rel_res", "metrics.rel_res"),
    ("blockgs.metrics", "rel_chol_res", "metrics.rel_chol_res"),
)

GEN_SPANS = ("matgen.gen_piled", "matgen.gen_default", "matgen.gen_monomial")
MUSCLE_SPANS = tuple(f"muscles.{kind}" for kind in MUSCLES)
SKELETON_SPANS = tuple(f"skeletons.{kind}" for kind in SKELETONS)


def _spec_kind(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return f"muscles.{spec.kind}"


class Tracer:
    """Records spans and counts for one pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, start, time.perf_counter())

    def _inside_muscle(self) -> bool:
        return any(self.spans[i][0] in MUSCLE_SPANS for i in self._stack)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name or _spec_kind(args, kwargs)
            out = tracer.span(label, fn, *args, **kwargs)
            # A breakdown is a failed muscle output, or a failed fused
            # Cholesky step of a skeleton (not one inside a muscle call).
            if label in MUSCLE_SPANS or (
                label == "muscles.chol_free" and not tracer._inside_muscle()
            ):
                if out.failed:
                    tracer.counts["muscles.breakdowns"] += 1
            return out

        return wrapper

    def _count_record(self, record):
        counts = self.counts

        @functools.wraps(record)
        def wrapper(ledger, block, label, cost):
            counts["syncmodel.events"] += 1
            counts[f"syncmodel.{label}"] += int(cost)
            return record(ledger, block, label, cost)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "blockgs" and not modname.startswith("blockgs."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every function in :data:`TIMED` and ``SyncLedger.record``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in TIMED:
            original = getattr(importlib.import_module(modname), attr)
            self._replace_everywhere(original, self._wrap(original, name))
        ledger_cls = importlib.import_module("blockgs.syncmodel").SyncLedger
        record = ledger_cls.__dict__["record"]
        self._patched.append((ledger_cls, "record", record))
        ledger_cls.record = self._count_record(record)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; their union, clipped to the parent's
    interval, is what gets subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counts, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds per pass)."""
    selfs = self_times(spans)
    layer_self = layer_self_times(spans, selfs)
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    outer_skeleton: Counter = Counter()
    probes = 0
    for idx, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_by_name[name] += selfs[idx]
        calls[name] += 1
        if name in SKELETON_SPANS and (
            parent < 0 or spans[parent][0] not in SKELETON_SPANS
        ):
            outer_skeleton[name] += end - start
        if name == "matgen.gen_piled" and _has_ancestor(
            spans, idx, "matgen.calibrate_piled"
        ):
            probes += 1
    calibrations = calls["matgen.calibrate_piled"]
    out = {
        "harness.self_s": layer_self["harness"],
        "harness.write_csv_s": total["harness.write_csv"],
        "matgen.self_s": layer_self["matgen"],
        "matgen.calibrate_self_s": self_by_name["matgen.calibrate_piled"],
        "matgen.gen_s": sum(total[n] for n in GEN_SPANS),
        "matgen.gen_calls": sum(calls[n] for n in GEN_SPANS),
        "matgen.probes_per_point": probes / calibrations if calibrations else 0.0,
        "blockcore.cond_2_s": total["blockcore.cond_2"],
        "blockcore.cond_2_calls": calls["blockcore.cond_2"],
        "blockcore.tri_solve_s": total["blockcore.tri_solve_right"]
        + total["blockcore.tri_solve_left_transposed"],
        "blockcore.tri_solve_calls": calls["blockcore.tri_solve_right"]
        + calls["blockcore.tri_solve_left_transposed"],
    }
    for kind in MUSCLES:
        out[f"muscles.{kind}_s"] = total[f"muscles.{kind}"]
        out[f"muscles.{kind}_calls"] = calls[f"muscles.{kind}"]
    out["muscles.io_cols_s"] = sum(
        total[f"muscles.{kind}"] for kind in MUSCLES if kind != "cholqr"
    )
    out["muscles.chol_free_s"] = total["muscles.chol_free"]
    out["muscles.breakdowns"] = counts["muscles.breakdowns"]
    out["skeletons.self_s"] = layer_self["skeletons"]
    for kind in SKELETONS:
        out[f"skeletons.{kind}_s"] = outer_skeleton[f"skeletons.{kind}"]
    out["syncmodel.events"] = counts["syncmodel.events"]
    for label in SYNC_LABELS:
        out[f"syncmodel.{label}"] = counts[f"syncmodel.{label}"]
    metric_names = ("loo", "rel_res", "rel_chol_res")
    for metric in metric_names:
        out[f"metrics.{metric}_s"] = total[f"metrics.{metric}"]
    out["metrics.share"] = sum(total[f"metrics.{m}"] for m in metric_names) / pass_s
    return out


def layer_self_times(spans, selfs=None) -> Counter:
    """Self time summed per layer, the part of a span name before the dot."""
    if selfs is None:
        selfs = self_times(spans)
    totals: Counter = Counter()
    for (name, *_), s in zip(spans, selfs):
        totals[name.split(".", 1)[0]] += s
    return totals
