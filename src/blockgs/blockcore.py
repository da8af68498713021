"""Dense double-precision kernels shared by every orthogonalization routine.

Matrices are plain float64 ``numpy.ndarray`` objects; the only structured type
is :class:`BlockMatrix`, which pins an explicit column partition onto a tall
dense matrix.  Every kernel here is a pure function of its inputs.

A pass over a large operand may run in panels, one contiguous range of an
independent output dimension per usable core (:func:`_panels`,
:func:`_run_panels`): the tall products :func:`project_out` and
:func:`tall_inner`, each one expression over a range of output columns,
and, through :func:`_split_pass`, the elementwise passes and max/min scans
of the other modules, over ranges of flat buffers.  Each output element is
formed by the same BLAS kernel or ufunc, from the same operands and in the
same order as in one call, so the bits do not depend on the core count.
This module alone decides when and how a pass splits, and alone knows
OpenBLAS: it finds the loaded libraries, reads their thread counts (a
product splits only while each reports one) and pins them to one thread
while a sweep, a single run or a sync table runs (:func:`_one_blas_thread`).
It also loads the compiled scipy modules the package calls, LAPACK, BLAS and
``ndtri``'s, without importing ``scipy.linalg`` or ``scipy.special``
(:func:`_scipy_extension`).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockMatrix",
    "check_partition",
    "all_finite",
    "spectral_norm",
    "cond_2",
    "project_out",
    "tall_inner",
    "zero_pivot",
    "tri_solve_left_transposed",
    "tri_solve_right",
]


def _scipy_extension(package: str, name: str) -> types.ModuleType:
    """scipy's compiled module ``package.name``, loaded from its file and
    registered in ``sys.modules`` under that name, without running
    ``package``'s ``__init__``, whose array-API layer would be most of a
    process's start-up.  A later ``import package`` takes the same module
    object from ``sys.modules``, so its routines are the public ones.

    The module's own init may import from its package (``_ufuncs`` does),
    so while it loads, an empty namespace module whose ``__path__`` is the
    package directory stands in ``sys.modules`` for ``package``: another
    thread importing ``package`` in those few milliseconds gets the stub.
    The public import runs instead when ``package`` is already imported,
    when the file is not found exactly once, or when loading raises; a
    failed load first takes every ``sys.modules`` key it added back out.
    So a scipy that moves its files costs time, never a bit.
    """
    fullname = f"{package}.{name}"
    spec = None if package in sys.modules else importlib.util.find_spec(package)
    dirs = (spec and spec.submodule_search_locations) or []
    files = [
        path
        for d in dirs
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if os.path.isfile(path := os.path.join(d, name + suffix))
    ]
    if len(files) == 1:
        before = set(sys.modules)
        stub = types.ModuleType(package)
        stub.__path__ = list(dirs)
        sys.modules[package] = stub
        try:
            ext = importlib.util.spec_from_file_location(fullname, files[0])
            module = importlib.util.module_from_spec(ext)
            sys.modules[fullname] = module
            ext.loader.exec_module(module)
            return module
        except Exception:  # what fails under the stub may load publicly
            for key in set(sys.modules) - before:
                del sys.modules[key]
        finally:
            if sys.modules.get(package) is stub:
                del sys.modules[package]
    return importlib.import_module(fullname)


# The LAPACK and BLAS wrappers of scipy.linalg.lapack and scipy.linalg.blas.
lapack = _scipy_extension("scipy.linalg", "_flapack")
blas = _scipy_extension("scipy.linalg", "_fblas")


def check_partition(m: int, p: int, s: int) -> None:
    """Raise ``ValueError`` unless m rows split into ``p`` blocks of ``s``
    columns and stay tall: p, s >= 1 and m >= p*s.  The one statement of
    that rule; every generator, BlockMatrix, SweepConfig and read_csv ask it.
    """
    if p < 1 or s < 1:
        rule = "block count and width must be >= 1 (p >= 1, s >= 1)"
    elif m < p * s:
        rule = "matrix must be tall (m >= p*s)"
    else:
        return
    raise ValueError(f"{rule}, got m={m}, p={p}, s={s}")


@dataclass
class BlockMatrix:
    """A tall m-by-(p*s) matrix partitioned into ``p`` blocks of ``s`` columns.

    ``data`` is kept as a column-major float64 array, copied only when it
    is not one already.  ``block_width`` is s; ``block_count`` is p,
    inferred from the column count when 0.  Data that is not 2-d, a shape
    :func:`check_partition` rejects or p*s != cols raises ``ValueError``.
    """

    data: np.ndarray
    block_width: int
    block_count: int = 0

    def __post_init__(self) -> None:
        data = np.asfortranarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={data.ndim}")
        self.data = data
        m, n = data.shape
        s = int(self.block_width)
        # With s = 0 no block count is inferred; check_partition rejects it.
        p = int(self.block_count) or (n // s if s else 0)
        check_partition(m, p, s)
        if n != p * s:
            raise ValueError(
                f"inconsistent partition: {n} columns != {p} blocks x width {s}"
            )
        self.block_width = s
        self.block_count = p

    @property
    def m(self) -> int:
        """Row count."""
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        """Total column count, ``block_count * block_width``."""
        return self.data.shape[1]

    def block(self, k: int) -> np.ndarray:
        """Return block ``k`` (1-indexed) as an m-by-s view."""
        if not 1 <= k <= self.block_count:
            raise IndexError(
                f"block index {k} out of range 1..{self.block_count}"
            )
        s = self.block_width
        return self.data[:, (k - 1) * s : k * s]


# Panels.  An elementwise pass or a max/min over at least PANEL_BYTES
# bytes, and a product whose operand holds at least its own threshold, is
# split into one panel per usable core.  The calling thread runs the first
# and takes back every other that no worker of a lazily made thread pool
# has started; numpy and BLAS release the GIL for the work.  (Two or four
# panels per core were slower on 20000x200 sweeps: each panel of a
# reduction packs the narrow factor again.)
PANEL_BYTES = 4 << 20

# A product is split only into panels of at least this many multiply-adds:
# above OpenBLAS's small-matrix cutoff (10**6 on SkylakeX), so each panel
# takes the blocked kernel the whole product takes.
_PANEL_MIN_WORK = 1 << 21

# (get, set) thread counts of the OpenBLAS in numpy's and scipy's wheels.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)
# A thread count the user chose through any of these is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


@functools.lru_cache(maxsize=4)
def _openblas_threads(maps: str = "/proc/self/maps") -> tuple:
    """(get, set) thread-count functions of each OpenBLAS the memory map
    ``maps`` names, found once per process; none where ``maps`` cannot be
    read, nor of a file that is no library or lacks the pair (MKL)."""
    try:
        with open(maps) as fh:
            names = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in names if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # ctypes's defaults, an int result and int arguments, fit both.
        for get, set_ in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                found.append((getattr(lib, get), getattr(lib, set_)))
                break
    return tuple(found)


def _blas_on_one_thread() -> bool:
    """True while an OpenBLAS is loaded and each one reports one thread."""
    return {get() for get, _ in _openblas_threads()} == {1}


# The pin's state: entries open, and the counts the outermost entry saved.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, unless the
    user chose a count through ``_BLAS_THREAD_VARS``: a sweep's many small
    calls lose more to a second thread than they gain, and one thread
    keeps the bits off the core count.

    Nested and concurrent entries share one pin, set at the outermost
    entry and restored at the last exit; meanwhile the process's other
    threads run BLAS on one thread too.  An entry made before a fork is
    the parent's: leaving it in the child changes nothing.
    """
    global _pin_depth, _pin_saved
    pid = os.getpid()
    with _pin_lock:
        if not _pin_depth and not any(
            os.environ.get(name) for name in _BLAS_THREAD_VARS
        ):
            _pin_saved = [get() for get, _ in _openblas_threads()]
            for _, set_threads in _openblas_threads():
                set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        if os.getpid() == pid:
            with _pin_lock:
                _pin_depth -= 1
                if not _pin_depth:
                    for (_, set_threads), count in zip(
                        _openblas_threads(), _pin_saved
                    ):
                        set_threads(count)
                    _pin_saved = []


# Made at first use: importing the executor's module costs every process
# about 2 ms.
_pool: concurrent.futures.ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cores() -> int:
    """Cores this process may run on (``taskset`` narrows them)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _after_fork_in_child() -> None:
    # The child has none of the pool's threads: it makes a pool of its own.
    # A lock some other thread held at the fork would stay held forever.
    global _pool, _pool_lock, _pin_lock, _pin_depth, _pin_saved
    _pool, _pool_lock = None, threading.Lock()
    _pin_lock, _pin_depth, _pin_saved = threading.Lock(), 0, []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _panels(n: int, *, grain: int = 1, work: int = 0) -> list[int]:
    """Bounds ``[0, b_1, ..., n]`` of the panels a pass over ``range(n)``
    splits into, once its operand holds the caller's byte threshold;
    ``[0, n]`` is one panel.

    There is at most one panel per usable core.  Inner bounds are multiples
    of ``grain``, and every panel holds at least ``grain`` indices and, for
    a product of ``work`` multiply-adds, at least ``_PANEL_MIN_WORK`` of
    them.  A product splits only while every loaded OpenBLAS reports one
    thread (read at each call: the pin of :func:`_one_blas_thread` or a
    caller's own); a BLAS on more threads splits it itself.
    Bounds round up, so the first panel, which the calling thread takes, is
    the largest: a reduction whose caller had the smaller panel ran no
    faster than one call (20000-row products of 96 to 120 columns).
    """
    if work and not _blas_on_one_thread():
        return [0, n]
    k = min(_cores(), n // (2 * grain))
    if work:
        k = min(k, work // _PANEL_MIN_WORK)
    if k < 2:
        return [0, n]
    return [0, *(-(-n * i // (k * grain)) * grain for i in range(1, k)), n]


def _run_panels(fn, bounds: list[int]) -> list:
    """``[fn(lo, hi) for each panel]`` of ``bounds`` (see :func:`_panels`).

    Every panel but the first goes to the shared pool in a copy of the
    caller's context, so ``np.errstate`` holds in it.  The caller runs the
    first, then cancels and runs each one no worker has started: a late or
    busy worker holds up no panel, and a call from a pool worker never
    waits on itself.  Every started panel has finished when this returns
    or raises; once the caller's own panel raises, no other starts.
    """
    global _pool
    first, *rest = zip(bounds, bounds[1:])
    if not rest:
        return [fn(*first)]
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=max(1, _cores() - 1),
                thread_name_prefix="blockgs-panel",
            )
        pool = _pool
    # A cancelled panel stays in the pool's queue, and is not done, until a
    # worker dequeues it; it reaches fn, and so fn's operands, only through
    # ``job``, which is emptied before this returns or raises.
    job = [fn]
    futures = [
        pool.submit(
            contextvars.copy_context().run, lambda *p: job[0](*p), *panel
        )
        for panel in rest
    ]
    try:
        mine = fn(*first)
        taken = [fn(*p) if f.cancel() else None for f, p in zip(futures, rest)]
    except BaseException:
        for f in futures:
            f.cancel()
        raise
    finally:
        concurrent.futures.wait([f for f in futures if not f.cancelled()])
        job.clear()
    return [mine, *(r if f.cancelled() else f.result()
                    for f, r in zip(futures, taken))]


def _split_pass(fn, *arrays) -> list:
    """``[fn(*arrays)]``, an elementwise pass or a max/min over arrays of one
    shape, or ``fn`` of each panel of them (see :func:`_run_panels`).

    Arrays that share their strides, are contiguous in either order and
    hold at least ``PANEL_BYTES`` are split as flat buffers: each panel is
    one range of every array's ``ravel(order="K")`` view.  Anything else, a
    strided array included, runs whole.
    """
    a = arrays[0]
    if (
        a.nbytes >= PANEL_BYTES
        and a.flags.forc
        and all(b.shape == a.shape and b.strides == a.strides for b in arrays)
    ):
        flat = [b.ravel(order="K") for b in arrays]
        return _run_panels(
            lambda lo, hi: fn(*(b[lo:hi] for b in flat)), _panels(a.size)
        )
    return [fn(*arrays)]


def _extrema(a: np.ndarray) -> tuple[float, float]:
    """``(a.max(initial=0.0), a.min(initial=0.0))`` of a float array, so
    ``(0.0, 0.0)`` when it is empty; NaN in any entry makes both NaN.

    An ``a`` of at least ``PANEL_BYTES`` is read in panels
    (:func:`_split_pass`), whose maxima and minima are combined by
    ``np.max`` and ``np.min``: they propagate NaN whatever its panel.  A
    smaller one, as in most calls, skips the helper.
    """
    def read(b):
        return b.max(initial=0.0), b.min(initial=0.0)

    if a.nbytes < PANEL_BYTES:
        return read(a)
    tops, bottoms = zip(*_split_pass(read, a))
    return np.max(tops), np.min(bottoms)


def all_finite(a: np.ndarray) -> bool:
    """True when no entry of the float array ``a`` is NaN or infinite; an
    empty ``a`` is finite.

    Read from ``a``'s extrema (:func:`_extrema`), so no mask the size of
    ``a`` is formed: NaN propagates through ``max``, and an infinity is the
    largest or the smallest entry.
    """
    top, bottom = _extrema(a)
    return math.isfinite(top) and math.isfinite(bottom)


def _singular_values(a) -> np.ndarray:
    """Singular values of ``a``, largest first; a lone NaN for an empty or a
    non-finite ``a``."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0 or not all_finite(a):
        return np.array([math.nan])
    return np.linalg.svd(a, compute_uv=False)


def _finite_or_nan(v: float) -> float:
    return v if math.isfinite(v) else math.nan


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (the induced 2-norm).

    NaN for an empty (no rows or no columns) or a non-finite ``a``, or a
    norm past the double range.
    """
    return _finite_or_nan(float(_singular_values(a)[0]))


def cond_2(a) -> float:
    """2-norm condition number, largest over smallest singular value.

    NaN where it is undefined: an empty or a non-finite ``a``, a zero
    smallest singular value or a ratio that overflows.  Never raises,
    never warns.
    """
    sv = _singular_values(a)
    smin = float(sv[-1])
    return _finite_or_nan(float(sv[0]) / smin) if smin else math.nan


# Row panels of project_out hold at least this many rows: more than one
# OpenBLAS row block (192 rows on SkylakeX), so a panel's last rows take
# the kernel they take in the whole product.
_PROJECT_GRAIN = 256

# A tall product is split into panels of ``left``'s columns only when
# ``left`` holds at least REDUCE_PANEL_BYTES (below it two panels were
# slower than one call) and at most _REDUCE_MAX_COLS columns.  A product
# with more output rows than one OpenBLAS row block (192 on SkylakeX)
# forms its last rows with a kernel that depends on where the block
# starts, which a panel would move.  Panels start on multiples of
# _REDUCE_GRAIN columns, a multiple of the kernels' row unrolling, so a
# one-column product's trailing group stays where one call puts it.
REDUCE_PANEL_BYTES = 16 << 20
_REDUCE_MAX_COLS = 192
_REDUCE_GRAIN = 16


def project_out(x, q, c) -> np.ndarray:
    """Deflate ``X - Q C`` for tall m-by-s ``X``, m-by-n ``Q``, n-by-s ``C``.

    Formed as ``(X^T - C^T Q^T)^T`` in one s-by-m buffer, the orientation
    of :func:`tall_inner`, so a column-major ``Q`` is read in place; the
    result is Fortran-ordered.  For s >= 5 its bits equal those of
    ``x - q @ c``; narrower blocks may differ in the last bits.  Its one
    product fills the buffer whole or, while BLAS runs on one thread and
    ``Q`` holds at least ``PANEL_BYTES``, in panels of rows, one per core
    (see :func:`_panels`), with the same bits.
    """
    m, n = q.shape
    s = c.shape[1]
    t = np.empty_like(q, shape=(s, m), order="C")  # of Q's array type

    def fill(lo, hi):
        panel = t[:, lo:hi]
        np.matmul(c.T, q[lo:hi].T, out=panel)
        np.subtract(x[lo:hi].T, panel, out=panel)

    # Most calls deflate one small block; they skip the panel helper.
    if q.nbytes < PANEL_BYTES:
        fill(0, m)
    else:
        _run_panels(fill, _panels(m, grain=_PROJECT_GRAIN, work=m * n * s))
    return t.T


def tall_inner(left, right) -> np.ndarray:
    """The tall product ``left^T @ right`` of an m-by-n ``left`` and a
    narrow m-by-w ``right``; the n-by-w result is C-ordered.

    Formed as ``(R^T @ left)^T`` with ``R`` a C-ordered copy of ``right``,
    so ``left`` is read in place.  The copy keeps the sweeps' bits: an
    uncopied column-major ``right`` changes the BLAS call and the metric
    digits.  Its one product fills the result whole or, while BLAS runs on
    one thread and ``left`` holds at least ``REDUCE_PANEL_BYTES`` and at
    most ``_REDUCE_MAX_COLS`` columns, in panels of those columns, one per
    core (see :func:`_panels`); each entry is formed by the same BLAS
    kernel in the same order as in one call.
    """
    r = np.ascontiguousarray(right)
    (m, n), w = left.shape, r.shape[1]
    out = np.empty((w, n))

    def fill(lo, hi):
        np.matmul(r.T, left[:, lo:hi], out=out[:, lo:hi])

    # Most calls reduce against a few blocks; they skip the panel helper.
    if left.nbytes < REDUCE_PANEL_BYTES or n > _REDUCE_MAX_COLS:
        fill(0, n)
    else:
        _run_panels(fill, _panels(n, grain=_REDUCE_GRAIN, work=m * n * w))
    return np.ascontiguousarray(out.T)


def zero_pivot(r: np.ndarray) -> bool:
    """True when the square factor ``r`` has an exactly zero (+0 or -0)
    diagonal entry.  A NaN pivot is not zero."""
    return np.count_nonzero(np.diagonal(r)) < r.shape[0]


def _check_triangle(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("triangular factor must be square")
    if zero_pivot(r):
        raise ValueError("singular triangular factor")
    return r


def _solve_upper_transposed(r, b) -> np.ndarray:
    """Solve ``R^T Z = B`` with one LAPACK ``trtrs`` call: the call, and so
    the bits, of ``scipy.linalg.solve_triangular(r, b, trans="T")``.

    A Fortran-ordered ``R`` goes in as an upper triangle to be transposed,
    any other as ``R^T`` (``R``'s row-major data, uncopied), a lower
    triangle.  ``B`` is copied, never overwritten; ``Z`` comes back
    Fortran-ordered.  Both public solves call this helper rather than each
    other, so a wrapper around either counts each solve once.
    """
    r = _check_triangle(r)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != r.shape[0]:
        raise ValueError(
            f"shapes of the factor {r.shape} and right-hand side {b.shape}"
            " are incompatible"
        )
    if r.flags.f_contiguous:
        z, info = lapack.dtrtrs(r, b, lower=0, trans=1)
    else:
        z, info = lapack.dtrtrs(r.T, b, lower=1, trans=0)
    if info != 0:
        raise RuntimeError(f"LAPACK dtrtrs returned info={info}")
    return z


def tri_solve_left_transposed(r, b) -> np.ndarray:
    """Solve ``R^T Z = B`` for ``Z`` with ``R`` upper triangular.

    Forward substitution, one LAPACK ``trtrs`` call.  NaN/Inf entries in
    either argument propagate into ``Z``.  A non-square ``R``, mismatched
    shapes or an exactly zero diagonal entry of ``R`` (see
    :func:`zero_pivot`) raise ``ValueError``.
    """
    return _solve_upper_transposed(r, b)


def tri_solve_right(b, r) -> np.ndarray:
    """Solve ``Z R = B`` for ``Z`` with ``R`` upper triangular.

    Computed as the forward substitution ``R^T Z^T = B^T``, one LAPACK
    ``trtrs`` call; ``Z`` comes back C-ordered.  Errors and NaN propagation
    as in :func:`tri_solve_left_transposed`.
    """
    b = np.asarray(b, dtype=np.float64)
    return np.ascontiguousarray(_solve_upper_transposed(r, b.T).T)
