"""Intraorthogonalization routines ("muscles").

Each routine maps one tall block X (m-by-s, m >= s) to an economic QR pair
with the sign convention diag(R) >= 0.  The four choices trade stability for
synchronization cost:

==========  =====================  ==============================
routine     loss of orthogonality  simulated reductions per call
==========  =====================  ==============================
house_qr    O(eps)                 s
givens_qr   O(eps)                 s
mgs_qr      O(eps) * kappa(X)      s
chol_qr     O(eps) * kappa(X)^2    1
==========  =====================  ==============================

``chol_qr`` deliberately has no positive-definiteness fail-safe: when the
Gram matrix is numerically indefinite the Cholesky sweep produces NaNs, runs
to completion, and the output is flagged ``failed`` instead of raising.
Likewise ``mgs_qr`` returns a NaN-filled, ``failed`` output on an exactly
zero pivot.  Downstream consumers treat failure as data.

``house_qr`` calls LAPACK ``geqrf`` and ``orgqr`` on one column-major copy
of X, which becomes Q; its Q and R equal those of numpy's QR bit for bit,
without numpy's internal buffers.

``givens_qr`` issues its rotations in the staggered stages of Sameh & Kuck
(J. ACM 1978), where column j+1 trails column j by two rows: each stage
turns its disjoint row pairs with one stacked product of 2-by-2 rotations,
for which numpy issues one gemm per rotation, so every bit equals that of
rotating one row pair at a time in the bottom-up order.  What does not
depend on the stage is set up once per call: the flattened workspace whose
strided slices give a stage's pivots, and one rotation stack per stage
width with the views its entries are written through.  The stage schedule
is cached per shape.

Every routine works in O(m·s) memory except ``givens_qr``: it rotates R's
rows and an explicit m-by-m Qᵀ in one m-by-(s+m) workspace, so it needs
O(m²).  That exception stands until the Givens muscle stops forming the
full Qᵀ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack

from .blockcore import tri_solve_right
from .syncmodel import SyncLedger

__all__ = [
    "IOSpec",
    "QROutput",
    "CholFactor",
    "HOUSE_QR",
    "GIVENS_QR",
    "MGS",
    "CHOL_QR",
    "IO_BY_NAME",
    "house_qr",
    "givens_qr",
    "mgs_qr",
    "chol_free",
    "chol_qr",
    "apply_io",
]


@dataclass(frozen=True)
class IOSpec:
    """Identity and stability metadata of one intraorthogonalization routine.

    Attributes
    ----------
    kind : str
        Registry key: one of ``houseqr``, ``givensqr``, ``mgs``, ``cholqr``.
    alpha : int
        Exponent of kappa(X) in the routine's loss-of-orthogonality class
        ``O(eps) * kappa(X)**alpha``.
    """

    kind: str
    alpha: int

    def sync_cost(self, block_width: int) -> int:
        """Simulated global reductions for one call on an m-by-w block.

        ``chol_qr`` spends exactly one reduction (its Gram product); the
        column-by-column routines are modeled at one reduction per column.
        """
        if self.kind == "cholqr":
            return 1
        return int(block_width)


HOUSE_QR = IOSpec("houseqr", alpha=0)
GIVENS_QR = IOSpec("givensqr", alpha=0)
MGS = IOSpec("mgs", alpha=1)
CHOL_QR = IOSpec("cholqr", alpha=2)

IO_BY_NAME: dict[str, IOSpec] = {
    spec.kind: spec for spec in (HOUSE_QR, GIVENS_QR, MGS, CHOL_QR)
}


@dataclass
class QROutput:
    """Economic QR pair for one block, plus a failure flag.

    ``failed`` is only ever set by ``chol_qr`` (indefinite Gram matrix), by
    ``mgs_qr`` (exactly zero pivot) or by any routine receiving non-finite
    input downstream of such a failure; in
    that case ``q`` and/or ``r`` contain NaN and must be propagated, not
    trusted.
    """

    q: np.ndarray
    r: np.ndarray
    failed: bool = False


class CholFactor(NamedTuple):
    """Result of the fail-safe-free Cholesky sweep."""

    r: np.ndarray
    failed: bool


def _as_block(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d block, got ndim={x.ndim}")
    m, s = x.shape
    if m < s:
        raise ValueError("block wider than tall")
    if s == 0:
        raise ValueError("block has no columns")
    return x


def _nan_output(m: int, s: int) -> QROutput:
    return QROutput(
        q=np.full((m, s), np.nan), r=np.full((s, s), np.nan), failed=True
    )


def _fix_signs(q: np.ndarray, r: np.ndarray) -> QROutput:
    """Flip Q columns / R rows in place so that diag(R) >= 0.

    ``q`` and ``r`` must be the caller's fresh arrays, never its input.
    Every column of Q and row of R is multiplied by +-1 in its own
    storage: the product is exact, and no flipped columns are gathered
    into an m-by-s temporary.
    """
    neg = np.diagonal(r) < 0.0
    if neg.any():
        signs = np.where(neg, -1.0, 1.0)
        q *= signs
        r *= signs[:, np.newaxis]
    return QROutput(q, r, failed=False)


def house_qr(x) -> QROutput:
    """Householder QR with explicitly assembled economic Q.

    Unconditionally stable: the loss of orthogonality of ``q`` is O(eps)
    independent of kappa(X).  Never fails on finite full-width input.

    X is copied once into a column-major m-by-s buffer.  LAPACK ``geqrf``
    factors it in place, R is read off its upper triangle, and ``orgqr``
    then forms Q in the same buffer, so ``q`` comes back Fortran-ordered
    and the call holds one m-by-s copy plus O(s·nb) workspace.  Both
    routines get their optimal (blocked) workspace from a query, as in
    numpy's QR, whose factors Q and R then equal bit for bit; the minimal
    workspace rounds differently on large blocks.  The ``orgqr`` query
    also passes the buffer with ``overwrite_a``: LAPACK writes only
    ``work(1)`` during a query, and without the flag the wrapper would
    copy the whole buffer to read back that one number.  The sign fix
    flips Q's columns in the same buffer.
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    a = np.array(x, order="F")
    work, _ = lapack.dgeqrf_lwork(m, s)
    a, tau, _, info = lapack.dgeqrf(a, lwork=int(work), overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"LAPACK dgeqrf returned info={info}")
    r = np.triu(a[:s])
    _, work, _ = lapack.dorgqr(a, tau, lwork=-1, overwrite_a=1)
    q, _, info = lapack.dorgqr(a, tau, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"LAPACK dorgqr returned info={info}")
    return _fix_signs(q, r)


# A stage of one rotation turns its row pair alone: there the stacked
# product and its setup cost more than one 2-by-2 product.  With the stacks
# and their views made once per call, two rotations already gain.
_STACK_MIN = 2


@functools.lru_cache(maxsize=16)
def _givens_stages(m: int, s: int) -> tuple[tuple[int, int, int], ...]:
    """The Sameh–Kuck stages of an m-by-s Givens QR, as ``(top, j0, k)``.

    Column j rotates the row pair (i-1, i) at stage t = (m-1-i) + 2j, so
    column j+1 trails column j by two rows.  A stage's k rotations turn the
    row pairs ``(top + 2r, top + 2r + 1)`` in column ``j0 + r`` for
    r = 0..k-1: disjoint pairs that tile rows ``top .. top+2k-1``.  Every
    rotation meets its two rows after the same rotations, and before the
    same ones, as in the bottom-up, column-by-column order.  The stages,
    m+s-2 of them when s < m, come in order, as one immutable tuple that
    is computed once per shape.
    """
    t = np.arange(m - 1 + min(s - 1, m - 2))
    j0 = np.maximum(t - m + 2, 0)
    k = np.minimum(t // 2, s - 1) - j0 + 1
    return tuple(zip((m - 2 - t + 2 * j0).tolist(), j0.tolist(), k.tolist()))


def _rotate_pair(
    w: np.ndarray, top: int, j: int, s: int, rot: np.ndarray
) -> None:
    """One Givens rotation of rows top, top+1 of ``W = [R | Qᵀ]``, zeroing
    ``w[top+1, j]``, with ``rot`` as its 2-by-2 scratch; nothing is done
    when that entry is already zero.

    R's part of the last column (j = s-1) is one column wide, and numpy
    sends a one-column product to gemv, which rounds differently from
    gemm; so that part takes its own product and Qᵀ's part a second one.
    """
    f, g = w[top, j], w[top + 1, j]
    if g == 0.0:
        return
    h = np.hypot(f, g)
    c, sn = f / h, g / h
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1] = sn
    rot[1, 0] = -sn
    if j < s - 1:
        w[top : top + 2, j:] = np.matmul(rot, w[top : top + 2, j:])
    else:
        w[top : top + 2, j:s] = np.matmul(rot, w[top : top + 2, j:s])
        w[top : top + 2, s:] = np.matmul(rot, w[top : top + 2, s:])


def _rotation_stack(k: int):
    """A C-contiguous k×2×2 rotation stack with the views a stage writes
    through: c and s (first rows), c again and -s (second rows), and the
    last rotation."""
    rot = np.empty((k, 2, 2))
    return rot, rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 1], rot[:, 1, 0], rot[-1]


def givens_qr(x) -> QROutput:
    """QR via Givens rotations, eliminating subdiagonals column by column.

    Within each column the rotations run bottom-up, so previously created
    zeros are preserved.  An eliminated entry is left as its rounding
    residue: no later rotation reads it, and ``np.triu`` drops it from R.
    Stability class matches ``house_qr``.

    R's rows and Qᵀ's rows share one C-order m-by-(s+m) workspace
    ``W = [X | I]``.  Its O(m²) memory, the same as that of a separate
    m-by-m Qᵀ, is the one exception to the muscles' O(m·s) contract.

    The rotations are issued in the staggered order of Sameh & Kuck, "On
    stable parallel linear system solvers" (J. ACM 1978): column j turns
    the row pair (i-1, i) at stage (m-1-i) + 2j, so about m·s rotations
    take m+s-2 sequential stages (``_givens_stages``).  A stage's k
    rotations turn disjoint, adjacent row pairs, and each meets its two
    rows in the same state as in the bottom-up loop: only independent
    rotations are reordered.

    A stage reads its f and g as two strided slices of the flattened
    workspace (entry (top+2r, j0+r) lies 2(s+m)+1 elements after entry
    (top+2r-2, j0+r-1)), forms its k rotations with ``np.hypot`` and
    divisions on length-k arrays (the ufunc loops of the scalar case, so
    the same bits), and turns its rows ``W[top:top+2k, j0:]`` with one
    product of a C-contiguous k×2×2 rotation stack, for which numpy issues
    one 2-by-2 gemm per rotation: every element keeps the bits of a
    per-rotation product.  One stack per stage width, with the views its
    entries are written through, is made once per call.  A non-contiguous
    stack sends numpy off BLAS and changes the bits.  The product is
    written back rather than passed ``out=`` the rows it reads: numpy then
    copies the overlapping operand first, which costs more.  The deeper
    rotations also turn columns j0..j-1 of their rows, which hold residues
    that no later rotation reads.  R's part of column s-1 is one column
    wide, and its per-rotation product is a gemv, which rounds differently
    from gemm: that pair's 2-vector, the stage's last f and g, is turned by
    its own product before the stacked one and written back after it.  A
    stage of fewer than ``_STACK_MIN`` rotations, or with an exactly zero
    g (a skipped rotation), turns its pairs one at a time
    (``_rotate_pair``).
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    n = s + m
    w = np.zeros((m, n))
    w[:, :s] = x
    np.fill_diagonal(w[:, s:], 1.0)
    flat = w.reshape(-1)
    step = 2 * n + 1
    stacks = {k: _rotation_stack(k) for k in range(_STACK_MIN, s + 1)}
    pair_rot = np.empty((2, 2))
    for top, j0, k in _givens_stages(m, s):
        if k >= _STACK_MIN:
            a = top * n + j0
            b = a + (k - 1) * step + 1
            g = flat[a + n : b + n : step]
            if np.count_nonzero(g) == k:
                rot, c, sn, c2, nsn, last_rot = stacks[k]
                f = flat[a:b:step]
                h = np.hypot(f, g)
                np.divide(f, h, out=c)
                np.divide(g, h, out=sn)
                c2[...] = c
                np.negative(sn, out=nsn)
                rows = w[top : top + 2 * k, j0:].reshape(k, 2, n - j0)
                if j0 + k < s:
                    rows[...] = np.matmul(rot, rows)
                else:
                    col = flat[b - 1 : b + n : n]
                    last = np.matmul(last_rot, col)
                    rows[...] = np.matmul(rot, rows)
                    col[...] = last
                continue
        for r in range(k):
            _rotate_pair(w, top + 2 * r, j0 + r, s, pair_rot)
    q = w[:s, s:].T.copy()
    r = np.triu(w[:s, :s])
    return _fix_signs(q, r)


def mgs_qr(x) -> QROutput:
    """Column-wise modified Gram-Schmidt.

    Loss of orthogonality grows like O(eps) * kappa(X); the residual stays
    O(eps).  An exactly zero pivot norm means the block is rank deficient;
    the output is then NaN-filled and flagged ``failed``.
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    q = np.empty((m, s))
    r = np.zeros((s, s))
    for j in range(s):
        v = x[:, j].copy()
        for i in range(j):
            rij = q[:, i] @ v
            r[i, j] = rij
            v -= rij * q[:, i]
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return _nan_output(m, s)
        r[j, j] = nrm
        q[:, j] = v / nrm
    return QROutput(q, r, failed=False)


def chol_free(g) -> CholFactor:
    """Right-looking Cholesky with no positive-definiteness fail-safe.

    The input is symmetrized as (G + G^T)/2 first.  A negative pivot turns
    into NaN through the square root; the sweep still runs to completion and
    the result is flagged ``failed`` if any non-finite entry appears.  No
    exception is ever raised: failure is a data state.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("Gram matrix must be square")
    n = g.shape[0]
    a = (g + g.T) / 2.0
    r = np.zeros((n, n))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(n):
            pivot = np.sqrt(a[k, k])
            r[k, k] = pivot
            if k + 1 < n:
                row = a[k, k + 1 :] / pivot
                r[k, k + 1 :] = row
                a[k + 1 :, k + 1 :] -= np.outer(row, row)
    return CholFactor(r=r, failed=not bool(np.isfinite(r).all()))


def chol_qr(x) -> QROutput:
    """Cholesky QR: one Gram product, one local Cholesky, one solve.

    The single tall reduction makes this the cheapest muscle, at the price
    of an O(eps) * kappa(X)^2 loss of orthogonality and outright failure
    once eps * kappa(X)^2 approaches 1.  On failure (NaN in the factor, or
    an exactly zero pivot) ``q`` is NaN-filled and ``failed`` is set.
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    gram = x.T @ x
    fac = chol_free(gram)
    if fac.failed or np.any(np.diagonal(fac.r) == 0.0):
        return QROutput(q=np.full((m, s), np.nan), r=fac.r, failed=True)
    q = tri_solve_right(x, fac.r)
    return QROutput(q=q, r=fac.r, failed=False)


_ROUTINES: dict[str, Callable[[np.ndarray], QROutput]] = {
    "houseqr": house_qr,
    "givensqr": givens_qr,
    "mgs": mgs_qr,
    "cholqr": chol_qr,
}


def apply_io(
    spec: IOSpec,
    x,
    *,
    ledger: SyncLedger | None = None,
    block: int = 1,
) -> QROutput:
    """Dispatch one muscle call, charging its reductions to ``block``.

    The ledger event is labeled ``io-gram`` for the Gram-product muscle
    (``chol_qr``) and ``io-cols`` for the column-sweep muscles, and is
    recorded whether or not the call succeeds numerically — the reductions
    are spent either way.
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        routine = _ROUTINES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown intraorthogonalization {spec.kind!r}") from None
    if ledger is not None:
        label = "io-gram" if spec.kind == "cholqr" else "io-cols"
        ledger.record(block, label, spec.sync_cost(x.shape[1]))
    return routine(x)
