"""Experiment runner and command line interface.

A sweep fixes a matrix family and dimensions, walks a list of condition-
number targets, generates one matrix per target, runs every requested
skeleton/muscle combination on that same matrix, and serializes one CSV row
per (target, combination) pair.  ``check-bounds`` re-reads such a CSV and
verifies every row against its theoretical envelope; ``syncs`` prints the
steady-state reduction counts measured from live ledgers.

Exit codes: 0 success, 1 bound violation, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import os
import sys
import time
import typing
from dataclasses import dataclass, fields
from io import StringIO

import numpy as np

from . import blockcore
from .blockcore import BlockMatrix, check_partition, cond_2
from .matgen import (
    MATRIX_CLASSES,
    calibrate_piled,
    check_kappa,
    gen_default,
    gen_monomial,
    gen_piled,
    make_rng,
)
from .metrics import (
    ScaledGram,
    bound_envelope,
    loo,
    rel_chol_res,
    rel_res,
    scaled_gram,
)
from .muscles import CHOL_QR, HOUSE_QR, IO_BY_NAME, IOSpec
from . import skeletons
from .skeletons import SKELETONS, BGSResult, SkeletonKind
from .syncmodel import syncs_per_block

__all__ = [
    "ConfigError",
    "Combo",
    "make_combo",
    "RunRecord",
    "SweepConfig",
    "run_single",
    "run_sweep",
    "write_csv",
    "read_csv",
    "check_bounds",
    "sync_table",
    "cli_main",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class Combo:
    """One skeleton plus exactly the muscle slots it consumes, each holding
    a muscle of ``IO_BY_NAME`` and equal ones when it is tied; any other
    ``Combo`` raises ``ConfigError``, so every one built runs.  The
    skeleton may be given in any spelling :func:`_parse_skeleton` accepts
    and is stored as a :class:`SkeletonKind`.
    """

    skeleton: SkeletonKind
    io_a: IOSpec | None = None
    io1: IOSpec | None = None
    io2: IOSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "skeleton", _parse_skeleton(self.skeleton))
        spec = SKELETONS[self.skeleton]
        for slot in _SLOTS:
            used, io = slot in spec.slots, getattr(self, slot)
            if used and io is None:
                raise ConfigError(f"{spec.display} requires {slot}")
            if not used and io is not None:
                raise ConfigError(f"{spec.display} takes no {slot}")
            if used:
                _check_muscle(spec, slot, io)
        if spec.tied and len(set(self.muscles)) > 1:
            raise ConfigError(f"{spec.display} requires tied muscle slots")

    @property
    def muscles(self) -> tuple[IOSpec, ...]:
        """The muscles of the skeleton's slots, in slot order."""
        slots = SKELETONS[self.skeleton].slots
        return tuple(getattr(self, slot) for slot in slots)


_SLOTS = tuple(f.name for f in fields(Combo) if f.name != "skeleton")
# The muscle a slot takes when none is given; a tied skeleton takes its
# first slot's in every slot.
_SLOT_DEFAULTS = {"io_a": HOUSE_QR, "io1": CHOL_QR, "io2": CHOL_QR}


def _check_muscle(spec, slot: str, io) -> None:
    """Raise ``ConfigError`` unless ``io`` is a muscle of ``IO_BY_NAME``;
    compared by equality, so an unhashable ``io`` is rejected too."""
    if io not in IO_BY_NAME.values():
        raise ConfigError(
            f"{spec.display} {slot} must be a registered muscle, got {io!r}"
        )


def _parse_skeleton(token: str) -> SkeletonKind:
    """The skeleton named by its value, display name or a shorthand."""
    key = token.strip().lower() if isinstance(token, str) else None
    for kind, spec in SKELETONS.items():
        if key in (kind.value, spec.display.lower(), *spec.shorthands):
            return kind
    raise ConfigError(f"unknown skeleton {token!r}")


def _flag(slot: str) -> str:
    """The ``sweep`` option that fills a muscle slot (``--io-a``)."""
    return "--" + slot.replace("_", "-")


def _parse_io(token: str | None, flag: str) -> IOSpec | None:
    if token is None or token == "":
        return None
    try:
        return IO_BY_NAME[token.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown muscle {token!r} for {flag}") from None


def make_combo(
    skeleton: SkeletonKind | str,
    io_a: IOSpec | None = None,
    io1: IOSpec | None = None,
    io2: IOSpec | None = None,
) -> Combo:
    """Normalize a muscle pool onto one skeleton's slots.

    Unused slots are dropped; for the tied aliases all supplied slots must
    name the same muscle (which then fills every consumed slot).  Missing
    slots fall back to ``_SLOT_DEFAULTS``.  ``skeleton`` is any spelling
    :func:`_parse_skeleton` accepts; an unknown one raises ``ConfigError``.
    """
    kind = _parse_skeleton(skeleton)
    spec = SKELETONS[kind]
    given = dict(zip(_SLOTS, (io_a, io1, io2)))
    if spec.tied:
        for slot, io in given.items():
            if io is not None:
                _check_muscle(spec, slot, io)
        supplied = {io for io in given.values() if io is not None}
        if len(supplied) > 1:
            names = sorted(io.kind for io in supplied)
            raise ConfigError(
                f"{spec.display} ties all muscle slots; got {names}"
            )
        tied = supplied.pop() if supplied else _SLOT_DEFAULTS[spec.slots[0]]
        return Combo(kind, **{slot: tied for slot in spec.slots})
    pool = {
        slot: _SLOT_DEFAULTS[slot] if io is None else io
        for slot, io in given.items()
    }
    return Combo(kind, **{slot: pool[slot] for slot in spec.slots})


def _run_combo(combo: Combo, x: BlockMatrix) -> BGSResult:
    muscles = combo.muscles
    if SKELETONS[combo.skeleton].tied:
        muscles = muscles[:1]
    # Looked up by name at call time, so a rebound module attribute is used.
    return getattr(skeletons, combo.skeleton.value)(x, *muscles)


@dataclass
class RunRecord:
    """One experiment point: exactly one CSV row.  The measured fields
    default to a run that did not happen: NaN metrics, failed, zero time.

    The CSV columns are the fields in declaration order, each written and
    read by its declared type.
    """

    matrix_class: str
    m: int
    p: int
    s: int
    kappa_target: float
    kappa_actual: float
    skeleton: str
    io_a: str
    io1: str
    io2: str
    loo: float = math.nan
    rel_res: float = math.nan
    rel_chol_res: float = math.nan
    sync_per_block: float = math.nan
    failed: bool = True
    elapsed_ms: float = 0.0


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    return "%.16e" % v


def _parse_int(token: str) -> int:
    value = int(token)
    if str(value) != token:
        raise ValueError(f"expected a plain integer, got {token!r}")
    return value


def _parse_float(token: str) -> float:
    """NaN, or a finite float in :func:`_fmt_float`'s spelling."""
    if token == "NaN":
        return math.nan
    value = float(token)
    if not math.isfinite(value) or _fmt_float(value) != token:
        raise ValueError(f"expected NaN or a %.16e float, got {token!r}")
    return value


def _parse_bool(token: str) -> bool:
    if token not in ("true", "false"):
        raise ValueError(f"expected true or false, got {token!r}")
    return token == "true"


# CSV text of each declared field type: (format, parse).
_CSV_CODECS = {
    str: (str, str),
    int: (str, _parse_int),
    float: (_fmt_float, _parse_float),
    bool: (lambda v: "true" if v else "false", _parse_bool),
}
_CSV_TYPES = typing.get_type_hints(RunRecord)
# (name, (format, parse)) of each CSV column, in RunRecord's field order.
_CSV_COLUMNS = tuple(
    (f.name, _CSV_CODECS[_CSV_TYPES[f.name]])
    for f in fields(RunRecord)
)
CSV_FIELDS = tuple(name for name, _ in _CSV_COLUMNS)


@dataclass(frozen=True)
class SweepConfig:
    """Everything that pins down a sweep (and hence its CSV bytes).

    It checks itself when built, as :class:`Combo` does, so every one runs:
    a known matrix class, some :class:`Combo` objects, real kappa targets
    and integer m, p, s and seed (numpy scalars included, ``bool`` nowhere),
    with values that ``check_kappa``, ``check_partition`` and ``make_rng``
    accept; anything else raises ``ConfigError``.  ``combos`` and ``kappas``
    may be any iterables, generators included; both are stored as tuples.
    """

    matrix_class: str
    combos: tuple[Combo, ...]
    kappas: tuple[float, ...]
    m: int = 100
    p: int = 10
    s: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.matrix_class not in MATRIX_CLASSES:
            raise ConfigError(f"unknown matrix class {self.matrix_class!r}")
        # Kept as tuples: a generator would be consumed by the checks below,
        # and a list would make the frozen config unhashable.
        for name in ("combos", "kappas"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:
                raise ConfigError(
                    f"{name} must be iterable, got {value!r}"
                ) from None
        if not self.combos:
            raise ConfigError("no skeleton/muscle combinations requested")
        if not all(isinstance(combo, Combo) for combo in self.combos):
            raise ConfigError("combos must be Combo objects")
        if not self.kappas:
            raise ConfigError("no kappa sweep points requested")
        try:
            for kappa in self.kappas:
                if isinstance(kappa, bool) or not isinstance(kappa, numbers.Real):
                    raise TypeError(f"kappa targets must be real, got {kappa!r}")
                check_kappa(kappa, "kappa targets")
            for name in ("m", "p", "s", "seed"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise TypeError(f"{name} must be an integer, got {value!r}")
            check_partition(self.m, self.p, self.s)
            make_rng(self.seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


def _record(
    combo: Combo,
    matrix_class: str,
    shape: tuple[int, int, int],
    kappa_target: float,
    kappa_actual: float,
    **outcome,
) -> RunRecord:
    """The record of one combo at one point.

    ``outcome`` sets the measured fields; those not given keep
    :class:`RunRecord`'s defaults.
    """
    m, p, s = shape
    ios = {slot: getattr(combo, slot) for slot in _SLOTS}
    muscles = {slot: "" if io is None else io.kind for slot, io in ios.items()}
    return RunRecord(
        matrix_class=matrix_class,
        m=m,
        p=p,
        s=s,
        kappa_target=kappa_target,
        kappa_actual=kappa_actual,
        skeleton=SKELETONS[combo.skeleton].display,
        **muscles,
        **outcome,
    )


@blockcore._one_blas_thread()
def run_single(
    x: BlockMatrix,
    combo: Combo,
    *,
    matrix_class: str = "custom",
    kappa_target: float = math.nan,
    kappa_actual: float | None = None,
    x_gram: ScaledGram | None = None,
) -> RunRecord:
    """Run one combination on one matrix and measure everything.

    ``kappa_actual`` and ``x_gram`` (:func:`~blockgs.metrics.scaled_gram`
    of X) may be passed in when the caller already formed them (a sweep
    does, once per point).  Otherwise ``kappa_actual`` is measured here
    (NaN when the conditioning is unmeasurable), and ``x_gram`` is formed
    here once, only when the run did not fail.
    """
    if kappa_actual is None:
        kappa_actual = cond_2(x.data)
    start = time.perf_counter()
    result = _run_combo(combo, x)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    outcome = dict(failed=result.failed, elapsed_ms=elapsed_ms)
    if not result.failed:
        if x_gram is None:
            x_gram = scaled_gram(x)
        outcome["loo"] = loo(result.q)
        # Q is this run's own and read for the last time: the residual
        # takes its storage instead of a third m-by-n array.
        outcome["rel_res"] = rel_res(
            x, result.q, result.r, x_gram, overwrite_q=True
        )
        outcome["rel_chol_res"] = rel_chol_res(x, result.r, x_gram)
    outcome["sync_per_block"] = syncs_per_block(result)
    shape = (x.m, x.block_count, x.block_width)
    return _record(
        combo, matrix_class, shape, kappa_target, kappa_actual, **outcome
    )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _sweep_points(config: SweepConfig):
    """Yield (kappa_target, matrix or None, kappa_actual) per point; the
    matrix is None and kappa_actual NaN where piled calibration missed."""
    m, p, s, seed = config.m, config.p, config.s, config.seed
    if config.matrix_class == "default":
        for kt in config.kappas:
            x = gen_default(m, p, s, seed, kappa=kt)
            yield kt, x, cond_2(x.data)
    elif config.matrix_class == "monomial":
        # Walk the divisor ladder once, keeping for each target the rung
        # nearest in log10 kappa so far; a tie keeps the earlier rung.
        best = [(math.inf, None, math.nan)] * len(config.kappas)
        for t in _divisors(p * s):
            x = gen_monomial(m, p, s, seed, t=t)
            ka = cond_2(x.data)
            log_ka = math.log10(ka if math.isfinite(ka) else 1e300)
            for i, kt in enumerate(config.kappas):
                dist = abs(log_ka - math.log10(kt))
                if dist < best[i][0]:
                    best[i] = (dist, x, ka)
            del x  # a rung no target chose is freed before the next
        for kt, (_, x, ka) in zip(config.kappas, best):
            yield kt, x, ka
    else:  # piled
        for kt in config.kappas:
            kappa_z, measured = calibrate_piled(m, p, s, kt, seed)
            # An unmeasurable probe (NaN) misses every target.
            if not abs(math.log10(measured) - math.log10(kt)) <= 1.0:
                yield kt, None, math.nan
                continue
            x = gen_piled(m, p, s, seed, kappa_z=kappa_z)
            yield kt, x, measured


@blockcore._one_blas_thread()
def run_sweep(config: SweepConfig) -> list[RunRecord]:
    """Run every combination at every sweep point, in deterministic order.

    Records are ordered (kappa index, combo index).  All combos at one
    point consume the identical generated matrix, measured once: its
    conditioning and its scaled Gram matrix are formed before the first
    combo runs.  ``elapsed_ms`` is zeroed so that identical configs yield
    byte-identical CSVs.

    BLAS runs on one thread for the sweep, whoever calls it, unless the
    user chose a count (:func:`~blockgs.blockcore._one_blas_thread`), so a
    library sweep writes the CLI's bytes; :func:`run_single` and
    :func:`sync_table` do the same.
    """
    records: list[RunRecord] = []
    for kt, x, kappa_actual in _sweep_points(config):
        if x is None:
            shape = (config.m, config.p, config.s)
            records.extend(
                _record(combo, config.matrix_class, shape, kt, math.nan)
                for combo in config.combos
            )
            continue
        x_gram = scaled_gram(x)
        for combo in config.combos:
            rec = run_single(
                x,
                combo,
                matrix_class=config.matrix_class,
                kappa_target=kt,
                kappa_actual=kappa_actual,
                x_gram=x_gram,
            )
            rec.elapsed_ms = 0.0
            records.append(rec)
    return records


def _record_row(rec: RunRecord) -> list[str]:
    return [fmt(getattr(rec, name)) for name, (fmt, _) in _CSV_COLUMNS]


def write_csv(records, path) -> None:
    """Serialize records with the fixed header and 17-significant-digit
    floats, one ``\\n``-ended line per record.  A cell holding a comma, a
    quote or a line break (only a free-text ``matrix_class`` can) is
    quoted, so :func:`read_csv` reads it back; sweep rows need no quotes.
    """
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows(_record_row(rec) for rec in records)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


# Metrics a failed run never measures: NaN on every failed row.
_METRICS = ("loo", "rel_res", "rel_chol_res")
# Columns that hold a norm, a count or a duration: >= 0 or NaN.
_NONNEGATIVE = (*_METRICS, "sync_per_block", "elapsed_ms")


def _check_row(rec: RunRecord) -> Combo:
    """The combo a row names; raises ``ValueError`` unless a sweep could
    have written the row: a shape :func:`~blockgs.blockcore.check_partition`
    accepts, skeleton and muscle cells spelled as the writer spells them
    that fill exactly the skeleton's slots, kappas >= 1 or NaN, metrics,
    sync count and time >= 0 or NaN, and NaN metrics on a failed row.
    ``matrix_class`` is free text, since :func:`run_single` writes any
    label.
    """
    check_partition(rec.m, rec.p, rec.s)
    kind = _parse_skeleton(rec.skeleton)
    if SKELETONS[kind].display != rec.skeleton:
        raise ConfigError(f"unknown skeleton {rec.skeleton!r}")
    ios = []
    for slot in _SLOTS:
        cell = getattr(rec, slot)
        if cell and cell not in IO_BY_NAME:
            raise ConfigError(f"unknown muscle {cell!r} in column {slot}")
        ios.append(IO_BY_NAME.get(cell))
    combo = Combo(kind, *ios)
    for name in ("kappa_target", "kappa_actual"):
        value = getattr(rec, name)
        if value < 1.0:
            raise ValueError(
                f"kappa must be >= 1 or NaN in column {name}, got {value}"
            )
    for name in _NONNEGATIVE:
        value = getattr(rec, name)
        if value < 0.0:
            raise ValueError(f"{name} must be >= 0 or NaN, got {value}")
    for name in _METRICS if rec.failed else ():
        value = getattr(rec, name)
        if not math.isnan(value):
            raise ValueError(
                f"a failed row has NaN metrics, got {name}={value}"
            )
    return combo


def _read_rows(path) -> list[tuple[int, RunRecord, Combo]]:
    """:func:`read_csv`'s records, each with the file line it ends on and
    the combo it names."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_FIELDS):
            raise ValueError(f"{path}: unexpected CSV header")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(
                    f"{path}:{reader.line_num}: expected"
                    f" {len(CSV_FIELDS)} fields"
                )
            try:
                record = RunRecord(
                    **{
                        name: parse(row[name])
                        for name, (_, parse) in _CSV_COLUMNS
                    }
                )
                combo = _check_row(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            rows.append((reader.line_num, record, combo))
    return rows


def read_csv(path) -> list[RunRecord]:
    """Read back a CSV written by :func:`write_csv`.

    Every cell must be spelled as the writer spells its value, and every
    row must be one a sweep could have written (see :func:`_check_row`).
    Raises ``OSError`` when the file cannot be read and ``ValueError``,
    naming the line, when its header or a row is malformed.
    """
    return [record for _, record, _ in _read_rows(path)]


def _row_envelope(rec: RunRecord, combo: Combo) -> tuple[bool, float]:
    """``(applicable, loo ceiling)`` of one row :func:`read_csv` accepted,
    naming ``combo``; a combo no theorem covers is never applicable."""
    spec = SKELETONS[combo.skeleton].envelope(*combo.muscles, s=rec.s)
    if spec is None:
        return False, math.nan
    return bound_envelope(spec, rec.kappa_actual)


def check_bounds(path, *, out=None) -> list[str]:
    """Verify every CSV row against its theoretical envelope.

    A row violates when a theorem covers its combo and the envelope
    applies at the row's measured conditioning, yet the loss of
    orthogonality exceeds the ceiling or is NaN (a failure where the
    theory promises success).
    Returns the violation messages (empty = all good); the report goes to
    ``out`` (the current stdout when not given).
    """
    if out is None:
        out = sys.stdout
    rows = _read_rows(path)
    violations = []
    checked = 0
    for line, rec, combo in rows:
        applicable, bound = _row_envelope(rec, combo)
        if not applicable:
            continue
        checked += 1
        if math.isnan(rec.loo) or rec.loo > bound:
            violations.append(
                f"{path}:{line}: {rec.skeleton}"
                f" ({rec.io_a}/{rec.io1}/{rec.io2})"
                f" at kappa={rec.kappa_actual:.3e}: loo={rec.loo:.3e}"
                f" exceeds bound {bound:.3e}"
            )
    print(
        f"checked {checked} applicable rows out of {len(rows)}: "
        f"{len(violations)} violation(s)",
        file=out,
    )
    for msg in violations:
        print(msg, file=out)
    return violations


@blockcore._one_blas_thread()
def sync_table() -> list[tuple[str, float]]:
    """Steady-state reductions per block column, measured from live ledgers.

    Runs every skeleton with Gram-product (single-reduction) muscles on a
    small well-conditioned matrix and reads the interior-block average off
    the ledger — nothing here is hard-coded.
    """
    x = gen_default(100, 6, 2, 42, kappa=10.0)
    rows = []
    for kind, spec in SKELETONS.items():
        combo = make_combo(kind, io_a=CHOL_QR, io1=CHOL_QR, io2=CHOL_QR)
        result = _run_combo(combo, x)
        rows.append((spec.display, syncs_per_block(result)))
    return rows


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgs",
        description="Block Gram-Schmidt stability and sync-count experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run a condition-number sweep and write a CSV"
    )
    sweep.add_argument(
        "--matrix",
        required=True,
        choices=MATRIX_CLASSES,
        help="matrix family to sweep",
    )
    dims = (("m", "rows"), ("p", "blocks"), ("s", "columns per block"))
    for dim, what in dims:
        sweep.add_argument(
            f"--{dim}",
            type=int,
            default=getattr(SweepConfig, dim),
            help=f"{what} (default %(default)s)",
        )
    sweep.add_argument(
        "--skeletons",
        default=",".join(kind.value for kind in SKELETONS),
        help="comma-separated skeleton list (default: all)",
    )
    roles = ("first-block", "inner", "second-pass")
    for (slot, default), role in zip(_SLOT_DEFAULTS.items(), roles):
        sweep.add_argument(
            _flag(slot),
            help=f"{role} muscle (default {default.kind} where needed)",
        )
    sweep.add_argument("--kappas", help="comma-separated condition targets")
    sweep.add_argument(
        "--kappa-range", help="log-spaced targets as lo:hi:count"
    )
    sweep.add_argument("--seed", type=int, default=SweepConfig.seed)
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")

    check = sub.add_parser(
        "check-bounds", help="verify a sweep CSV against the bound envelopes"
    )
    check.add_argument("csv_path", help="CSV produced by the sweep subcommand")

    sub.add_parser(
        "syncs", help="print steady-state sync counts measured from live runs"
    )
    return parser


def _parse_kappas(args) -> tuple[float, ...]:
    if args.kappas is not None and args.kappa_range is not None:
        raise ConfigError("pass either --kappas or --kappa-range, not both")
    if args.kappas is not None:
        try:
            return tuple(float(tok) for tok in args.kappas.split(",") if tok)
        except ValueError:
            raise ConfigError(f"bad --kappas list {args.kappas!r}") from None
    if args.kappa_range is not None:
        parts = args.kappa_range.split(":")
        if len(parts) != 3:
            raise ConfigError("--kappa-range wants lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            check_kappa(lo, "lo")
            check_kappa(hi, "hi")
        except ValueError as exc:
            raise ConfigError(
                f"bad --kappa-range {args.kappa_range!r}: {exc}"
            ) from None
        if hi < lo or count < 1:
            raise ConfigError("--kappa-range wants lo <= hi, count >= 1")
        try:
            return tuple(np.logspace(math.log10(lo), math.log10(hi), count))
        except (MemoryError, ValueError) as exc:
            raise ConfigError(
                f"--kappa-range count {count} is too large: {exc}"
            ) from None
    raise ConfigError("a sweep needs --kappas or --kappa-range")


def _config_from_args(args) -> SweepConfig:
    pool = {
        slot: _parse_io(getattr(args, slot), _flag(slot))
        for slot in _SLOT_DEFAULTS
    }
    combos = tuple(
        make_combo(tok, **pool)
        for tok in args.skeletons.split(",")
        if tok.strip()
    )
    return SweepConfig(
        matrix_class=args.matrix,
        combos=combos,
        kappas=_parse_kappas(args),
        m=args.m,
        p=args.p,
        s=args.s,
        seed=args.seed,
    )


def _error_exit(exc: Exception | str) -> int:
    print(f"blockgs: error: {exc}", file=sys.stderr)
    return 2


def cli_main(argv=None) -> int:
    """Run one ``blockgs`` command and return its exit code.

    A sweep and the sync table run BLAS on one thread, as they do when
    called from Python (see :func:`run_sweep`); the large passes split
    over the cores the process may run on, with the bits of one call, and
    blockcore decides when.

    Exit codes: 0 success, 1 bound violations found by ``check-bounds``,
    2 configuration errors, unreadable or unwritable files and sweeps whose
    arrays cannot be allocated.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            config = _config_from_args(args)
            created = not os.path.exists(args.out)
            try:
                # An unwritable --out fails here, before the sweep runs;
                # mode "a" leaves an earlier CSV whole until write_csv.
                open(args.out, "a").close()
            except OSError as exc:
                return _error_exit(f"cannot write CSV to {args.out}: {exc}")
            try:
                records = run_sweep(config)
                write_csv(records, args.out)
            except BaseException as exc:
                # A sweep or write that fails or is interrupted leaves no
                # file where there was none.
                if created:
                    os.remove(args.out)
                if isinstance(exc, (OSError, MemoryError)):
                    return _error_exit(exc)
                raise
            # A piled point runs only when its measured kappa is finite;
            # an overflowing monomial rung reads NaN kappa but runs.
            skipped = sum(
                r.matrix_class == "piled" and math.isnan(r.kappa_actual)
                for r in records
            )
            msg = f"wrote {len(records)} records to {args.out}"
            if skipped:
                msg += f" ({skipped} skipped by calibration)"
            print(msg)
            return 0
        if args.command == "check-bounds":
            try:
                violations = check_bounds(args.csv_path)
            except (OSError, ValueError) as exc:
                return _error_exit(exc)
            return 1 if violations else 0
        if args.command == "syncs":
            rows = sync_table()
            width = max(len(name) for name, _ in rows)
            print(f"{'skeleton':<{width}}  syncs/block")
            for name, value in rows:
                print(f"{name:<{width}}  {value:g}")
            return 0
    except ConfigError as exc:
        return _error_exit(exc)
    raise AssertionError("unreachable")
