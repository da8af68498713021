"""Dense double-precision kernels shared by every orthogonalization routine.

Matrices are plain float64 ``numpy.ndarray`` objects; the only structured type
is :class:`BlockMatrix`, which pins an explicit column partition onto a tall
dense matrix.  Every kernel here is a pure function of its inputs.

This module alone knows OpenBLAS: it finds the loaded libraries, reads
their thread counts and pins them to one thread while a sweep, a single run
or a sync table runs (:func:`_one_blas_thread`), so the bits do not depend
on the core count.
It also loads the compiled scipy modules the package calls, LAPACK, BLAS and
``ndtri``'s, without importing ``scipy.linalg`` or ``scipy.special``
(:func:`_scipy_extension`).
"""

from __future__ import annotations

import contextlib
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
    "zero_pivot",
    "tri_solve_left_transposed",
    "tri_solve_right",
]


def _scipy_extension(package: str, name: str) -> types.ModuleType:
    """scipy's compiled module ``package.name``, loaded from its file
    without running ``package``'s ``__init__``, whose array-API layer would
    be most of a process's start-up.

    The module's own init may import from its package (``_ufuncs`` does),
    so while it loads, an empty namespace module whose ``__path__`` is the
    package directory stands in ``sys.modules`` for ``package``: another
    thread importing ``package`` in those few milliseconds gets the stub.
    Nothing binds the modules loaded under the stub as attributes of the
    real package, so a successful load takes them back out of
    ``sys.modules`` as well: a later ``import package`` loads each again
    from the interpreter's cache of extension modules, binds it, and
    exposes the very routine objects returned here.

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
        except Exception:  # what fails under the stub may load publicly
            for key in set(sys.modules) - before:
                del sys.modules[key]
        else:
            for key in set(sys.modules) - before:
                if key.startswith(f"{package}."):
                    del sys.modules[key]
            return module
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


def _after_fork_in_child() -> None:
    # A lock some other thread held at the fork would stay held forever.
    global _pin_lock, _pin_depth, _pin_saved
    _pin_lock, _pin_depth, _pin_saved = threading.Lock(), 0, []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _extrema(a: np.ndarray) -> tuple[float, float]:
    """``(a.max(initial=0.0), a.min(initial=0.0))`` of a float array, so
    ``(0.0, 0.0)`` when it is empty; NaN in any entry makes both NaN."""
    return a.max(initial=0.0), a.min(initial=0.0)


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


def project_out(x, q, c) -> np.ndarray:
    """Deflate ``X - Q C`` for tall m-by-s ``X``, m-by-n ``Q``, n-by-s ``C``.

    Formed as ``(X^T - C^T Q^T)^T`` in the s-by-m product's own buffer, so
    a column-major ``Q`` is read in place; the result is Fortran-ordered.
    Its bits equal those of ``x - q @ c`` on the shapes the tests pin; on
    others, narrow blocks among them, the two agree to rounding.
    """
    t = c.T @ q.T
    np.subtract(x.T, t, out=t)
    return t.T


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
