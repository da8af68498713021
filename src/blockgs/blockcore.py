"""Dense double-precision kernels shared by every orthogonalization routine.

Matrices are plain float64 ``numpy.ndarray`` objects; the only structured type
is :class:`BlockMatrix`, which pins an explicit column partition onto a tall
dense matrix.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "BlockMatrix",
    "as_matrix",
    "spectral_norm",
    "cond_2",
    "project_out",
    "tri_solve_left_transposed",
    "tri_solve_right",
]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d float64 array in column-major order.

    Copies only when the input is not already a Fortran-ordered float64
    array.  One-dimensional input is rejected rather than promoted, so that
    shape bugs surface at the boundary instead of deep inside a solver.
    """
    out = np.asfortranarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={out.ndim}")
    return out


@dataclass
class BlockMatrix:
    """A tall m-by-(p*s) matrix partitioned into ``p`` blocks of ``s`` columns.

    Parameters
    ----------
    data : array_like
        The full matrix, m rows by p*s columns, with m >= p*s.
    block_width : int
        Columns per block (``s``).
    block_count : int, optional
        Number of blocks (``p``).  Inferred from the column count when
        omitted; validated against it when given.
    """

    data: np.ndarray
    block_width: int
    block_count: int = 0

    def __post_init__(self) -> None:
        self.data = as_matrix(self.data)
        m, n = self.data.shape
        s = int(self.block_width)
        if s < 1:
            raise ValueError("block_width must be >= 1")
        if self.block_count == 0:
            if n % s != 0:
                raise ValueError(
                    f"column count {n} is not a multiple of block width {s}"
                )
            self.block_count = n // s
        p = int(self.block_count)
        if p < 1 or n != p * s:
            raise ValueError(
                f"inconsistent partition: {n} columns != {p} blocks x width {s}"
            )
        if m < n:
            raise ValueError(f"matrix must be tall: {m} rows < {n} columns")
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


def _singular_values(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix")
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (the induced 2-norm)."""
    return float(_singular_values(a)[0])


def cond_2(a) -> float:
    """2-norm condition number, largest over smallest singular value."""
    sv = _singular_values(a)
    smin = float(sv[-1])
    if smin == 0.0:
        raise ValueError("singular matrix, kappa undefined")
    return float(sv[0]) / smin


def project_out(x, q, c) -> np.ndarray:
    """Deflate ``X - Q C`` for tall m-by-s ``X`` and m-by-n ``Q``.

    The product is formed as ``C^T Q^T``, the orientation of
    :meth:`~blockgs.syncmodel.SyncLedger.reduce`, so BLAS reads a
    column-major ``Q`` in place, and the subtraction runs in place on the
    transposes.  The result is the transpose of a C-ordered s-by-m array,
    that is an m-by-s Fortran-ordered matrix.  For s >= 5 every bit equals
    that of ``x - q @ c``; for narrower blocks BLAS takes another kernel
    for one of the two orientations, and the last bits may differ.
    """
    t = c.T @ q.T
    np.subtract(x.T, t, out=t)
    return t.T


def _check_triangle(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("triangular factor must be square")
    if np.count_nonzero(np.diagonal(r)) < r.shape[0]:
        raise ValueError("singular triangular factor")
    return r


def _solve_upper_transposed(r, b) -> np.ndarray:
    """Solve ``R^T Z = B`` with LAPACK ``trtrs``, exactly as
    ``scipy.linalg.solve_triangular(r, b, trans="T")`` calls it.

    LAPACK reads the factor column-major.  A Fortran-ordered ``R`` goes in
    as it is, as an upper triangle to be transposed; any other ``R`` goes in
    as ``R^T``, whose column-major form is ``R``'s row-major data without a
    copy, as a lower triangle that is not transposed.  Calling ``trtrs``
    directly skips ``solve_triangular``'s batch and array-API wrappers; the
    solve, and so every bit, is the same.  ``B`` is copied, never
    overwritten, and ``Z`` comes back Fortran-ordered.  The two public
    solves share this helper rather than one calling the other, so a
    wrapper around either (as a tracer adds) counts each solve once.
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

    Forward substitution on the transposed factor, one LAPACK ``trtrs``
    call (``_solve_upper_transposed``).  NaN/Inf entries in either argument
    propagate into the result instead of raising, so failed upstream
    computations flow through unchanged.  An exactly zero diagonal entry of
    ``R`` raises ``ValueError``: called directly, the solve treats a
    singular factor as a caller error.  The skeletons test for a zero pivot
    before they call it and report it as a failed run instead.
    """
    return _solve_upper_transposed(r, b)


def tri_solve_right(b, r) -> np.ndarray:
    """Solve ``Z R = B`` for ``Z`` with ``R`` upper triangular.

    Back substitution applied from the right, computed as the forward
    substitution ``R^T Z^T = B^T`` of one LAPACK ``trtrs`` call
    (``_solve_upper_transposed``); ``Z`` comes back C-ordered, the
    transpose of ``trtrs``'s column-major ``Z^T``.  Non-finite entries
    propagate.  An exactly zero diagonal entry of ``R`` raises
    ``ValueError``; the skeletons and ``chol_qr`` test for a zero pivot
    before they call it and report a failed run instead.
    """
    b = np.asarray(b, dtype=np.float64)
    return np.ascontiguousarray(_solve_upper_transposed(r, b.T).T)
