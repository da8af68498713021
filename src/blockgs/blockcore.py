"""Dense double-precision kernels shared by every orthogonalization routine.

Matrices are plain float64 ``numpy.ndarray`` objects; the only structured type
is :class:`BlockMatrix`, which pins an explicit column partition onto a tall
dense matrix.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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


def all_finite(a: np.ndarray) -> bool:
    """True when no entry of the float array ``a`` is NaN or infinite; an
    empty ``a`` is finite.

    Read from ``a.max()`` and ``a.min()``, so no mask the size of ``a`` is
    formed: NaN propagates through ``max``, and an infinity is the largest
    or the smallest entry.
    """
    return a.size == 0 or (math.isfinite(a.max()) and math.isfinite(a.min()))


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

    Formed as ``(X^T - C^T Q^T)^T`` in one s-by-m buffer, the orientation
    of :meth:`~blockgs.syncmodel.SyncLedger.reduce`, so a column-major
    ``Q`` is read in place; the result is Fortran-ordered.  For s >= 5 its
    bits equal those of ``x - q @ c``; narrower blocks may differ in the
    last bits.
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
