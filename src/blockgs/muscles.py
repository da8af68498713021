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

Every routine raises ``ValueError`` on a block that is not 2-d, is wider
than tall or has no columns.  Numerical failure is data, never an
exception or a warning: non-finite input, an indefinite or overflowing
Gram matrix (``chol_qr``), an exactly zero pivot (``chol_qr``, ``mgs_qr``),
an overflowing one (``mgs_qr``) or an overflowing rotation
(``givens_qr``) gives NaN, and ``failed`` is true exactly when Q or R
holds a non-finite entry.  ``house_qr`` can fail on a finite block near
overflow (see its docstring).  Every routine works in O(m·s) memory.

Skeletons call the routines through :func:`apply_io`, which charges each
call to a sync ledger and serves small blocks from a cache whose hits are
bit-identical to fresh calls and charged like them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blockcore import (
    all_finite,
    lapack,
    project_out,
    tri_solve_right,
    zero_pivot,
)
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
    "chol_normalize",
    "chol_qr",
    "apply_io",
]


@dataclass(frozen=True)
class IOSpec:
    """Identity and stability metadata of one intraorthogonalization routine.

    ``kind`` is the registry key (``houseqr``, ``givensqr``, ``mgs`` or
    ``cholqr``); ``alpha`` is the exponent of kappa(X) in the routine's loss
    of orthogonality, O(eps) * kappa(X)**alpha.
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
    """Economic QR pair for one block; a non-finite Q or R is a failure."""

    q: np.ndarray
    r: np.ndarray

    @property
    def failed(self) -> bool:
        return not (all_finite(self.q) and all_finite(self.r))


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
    return QROutput(q=np.full((m, s), np.nan), r=np.full((s, s), np.nan))


def _fix_signs(q: np.ndarray, r: np.ndarray) -> QROutput:
    """Flip Q columns / R rows in place so that diag(R) >= 0.

    ``q`` and ``r`` must be the caller's fresh arrays, never its input; the
    flips are exact multiplications by -1.
    """
    neg = np.diagonal(r) < 0.0
    if neg.any():
        signs = np.where(neg, -1.0, 1.0)
        q *= signs
        r *= signs[:, np.newaxis]
    return QROutput(q, r)


def house_qr(x) -> QROutput:
    """Householder QR with explicitly assembled economic Q.

    Loss of orthogonality O(eps) independent of kappa(X).  On finite input
    it can still fail near overflow, where LAPACK's reflector overflows
    forming alpha - beta: ``[[1e308, 1], [1e308, 2], [0, 3], [1, 1]]``
    (column norm 1.41e308, true R[0,1] = 2.12) gives R[0,1] = inf, a Q
    with inf and NaN entries, and ``failed``.  LAPACK ``geqrf`` and
    ``orgqr``, each with its queried optimal workspace, run in one
    column-major copy of X, which becomes the Fortran-ordered ``q``: one
    m-by-s array plus O(s·nb) workspace.  Q and R equal numpy's QR bit for
    bit.
    """
    x = _as_block(x)
    m, s = x.shape
    if not all_finite(x):
        return _nan_output(m, s)
    a = np.array(x, order="F")
    # The optimal workspace, as numpy's QR queries it: the minimal one
    # rounds differently on large blocks.
    work, _ = lapack.dgeqrf_lwork(m, s)
    a, tau, _, info = lapack.dgeqrf(a, lwork=int(work), overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"LAPACK dgeqrf returned info={info}")
    r = np.triu(a[:s])
    # A query writes only work(1); overwrite_a spares the wrapper a copy.
    _, work, _ = lapack.dorgqr(a, tau, lwork=-1, overwrite_a=1)
    q, _, info = lapack.dorgqr(a, tau, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"LAPACK dorgqr returned info={info}")
    return _fix_signs(q, r)


# Below two rotations the stacked product costs more than a 2-by-2 one.
_STACK_MIN = 2

# Rows of the Givens window beyond the 2s in play.  Blocks of up to 2s+128
# rows fit in one window; a taller one slides it about every 128 stages.
_GIVENS_SLACK = 128


@functools.lru_cache(maxsize=16)
def _givens_stages(m: int, s: int) -> tuple[tuple[int, int, int], ...]:
    """The Sameh–Kuck stages of an m-by-s Givens QR, as ``(top, j0, k)``.

    Column j rotates the row pair (i-1, i) at stage t = (m-1-i) + 2j.  A
    stage's k rotations turn the disjoint row pairs ``(top + 2r,
    top + 2r + 1)`` in column ``j0 + r`` for r = 0..k-1; each meets its
    rows in the state of the bottom-up, column-by-column order.  One
    immutable tuple per shape, m+s-2 stages when s < m.
    """
    t = np.arange(m - 1 + min(s - 1, m - 2))
    j0 = np.maximum(t - m + 2, 0)
    k = np.minimum(t // 2, s - 1) - j0 + 1
    return tuple(zip((m - 2 - t + 2 * j0).tolist(), j0.tolist(), k.tolist()))


def _rotate_pair(
    w: np.ndarray, top: int, j: int, s: int, rot: np.ndarray
) -> None:
    """One Givens rotation of rows top, top+1 of ``W = [R | Qᵀ]``, zeroing
    ``w[top+1, j]`` (skipped when it is already zero), with ``rot`` as its
    2-by-2 scratch.  R's part of column s-1 takes its own product (a gemv,
    which rounds differently from gemm), Qᵀ's part a second one.
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
    """A k×2×2 rotation stack with the views a stage writes through: c and
    s (first rows), c again and -s (second rows), and the last rotation.
    It must be C-contiguous: a strided stack sends numpy off BLAS and
    changes the bits."""
    rot = np.empty((k, 2, 2))
    return rot, rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 1], rot[:, 1, 0], rot[-1]


def givens_qr(x) -> QROutput:
    """QR via Givens rotations, bottom-up within each column.

    Loss of orthogonality O(eps), as for ``house_qr``.  The rotations run
    in the staggered stages of Sameh & Kuck (J. ACM 1978),
    ``_givens_stages``.  A stage reads its pivots f and g as strided slices
    of the flattened workspace and turns its rows with one product of a
    C-contiguous k×2×2 rotation stack, one 2-by-2 gemm per rotation, so Q
    and R keep every bit of the one-pair-at-a-time bottom-up loop.  R's
    part of column s-1 gets its own product (see ``_rotate_pair``).  A
    stage of fewer than ``_STACK_MIN`` rotations, or with a zero g, turns
    its pairs one at a time.  Eliminated entries keep their rounding
    residue, which no later rotation reads and ``np.triu`` drops.  A
    rotation whose hypot or rotated rows overflow is a breakdown, never a
    zero rotation: the output is NaN.

    R's and Qᵀ's rows are rows of ``W = [X | I]``, m-by-(s+m), but only a
    window of them is held: one C-order buffer of min(m, 2s +
    ``_GIVENS_SLACK``) rows of W, O(m·s) memory.  From stage t on, only
    rows m-2-t .. m+2s-3-t are in play: the rows above are still [X row |
    e_row], and the rows below are never read again.  So when a stage's
    top row lies above the window, the window slides up until it ends at
    that row + 2s-1 (or at row m-1).  Every row keeps its length s+m, so
    every product keeps its operands and its row stride.
    """
    x = _as_block(x)
    m, s = x.shape
    if not all_finite(x):
        return _nan_output(m, s)
    n = s + m
    height = min(m, 2 * s + _GIVENS_SLACK)
    base = m - height
    w = np.zeros((height, n))
    w[:, :s] = x[base:]
    flat = w.reshape(-1)
    flat[s + base :: n + 1] = 1.0
    step = 2 * n + 1
    stacks = {k: _rotation_stack(k) for k in range(_STACK_MIN, s + 1)}
    pair_rot = np.empty((2, 2))
    try:
        with np.errstate(over="raise"):
            for top, j0, k in _givens_stages(m, s):
                if top < base:
                    # Slide the window up to row ``new``: the rows still in
                    # play, at most 2s at its top, move down, and the rows
                    # above them are loaded as [X row | e_row].
                    new = max(0, min(top + 2 * s, m) - height)
                    shift = base - new
                    keep = min(2 * s, height - shift)
                    w[shift : shift + keep] = w[:keep]
                    w[:shift, :s] = x[new:base]
                    w[:shift, s:] = 0.0
                    flat[s + new : shift * n : n + 1] = 1.0
                    base = new
                top -= base
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
    except FloatingPointError:  # a hypot or a rotated row overflowed
        return _nan_output(m, s)
    q = w[:s, s:].T.copy()
    r = np.triu(w[:s, :s])
    return _fix_signs(q, r)


def mgs_qr(x) -> QROutput:
    """Column-wise modified Gram-Schmidt.

    Loss of orthogonality grows like O(eps) * kappa(X); the residual stays
    O(eps).  A pivot norm that is exactly zero (rank deficiency) or not
    finite (its sum of squares overflows) gives a NaN-filled output.
    """
    x = _as_block(x)
    m, s = x.shape
    if not all_finite(x):
        return _nan_output(m, s)
    q = np.empty((m, s))
    r = np.zeros((s, s))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(s):
            v = x[:, j].copy()
            for i in range(j):
                rij = q[:, i] @ v
                r[i, j] = rij
                v -= rij * q[:, i]
            nrm = float(np.linalg.norm(v))
            if nrm == 0.0 or not np.isfinite(nrm):
                return _nan_output(m, s)
            r[j, j] = nrm
            q[:, j] = v / nrm
    return QROutput(q, r)


def chol_free(g) -> CholFactor:
    """Right-looking Cholesky with no positive-definiteness fail-safe.

    It factors the upper triangle of G, as LAPACK's ``dpotrf`` does with
    ``uplo='U'``: the lower triangle is never read.  Every Gram the package
    forms is exactly symmetric.  A negative pivot turns into NaN through
    the square root; the sweep still runs to completion and the result is
    flagged ``failed`` if any non-finite entry appears.  No exception is
    ever raised: failure is a data state.
    """
    a = np.array(g, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("Gram matrix must be square")
    n = a.shape[0]
    r = np.zeros((n, n))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(n):
            pivot = np.sqrt(a[k, k])
            r[k, k] = pivot
            if k + 1 < n:
                row = a[k, k + 1 :] / pivot
                r[k, k + 1 :] = row
                a[k + 1 :, k + 1 :] -= np.outer(row, row)
    return CholFactor(r=r, failed=not all_finite(r))


def chol_normalize(gram, x, q=None, c=None) -> QROutput:
    """The Cholesky cleanup: R is the :func:`chol_free` factor of ``gram``
    and Q is ``B R^{-1}`` for B = X, or ``X - Q C`` when ``q`` and ``c``
    are given (deflated only once R is usable).  A failed factor or an
    exactly zero pivot gives a NaN Q beside that R.
    """
    fac = chol_free(gram)
    if fac.failed or zero_pivot(fac.r):
        return QROutput(q=np.full(x.shape, np.nan), r=fac.r)
    if q is not None:
        x = project_out(x, q, c)
    return QROutput(q=tri_solve_right(x, fac.r), r=fac.r)


def chol_qr(x) -> QROutput:
    """Cholesky QR: one Gram product, one local Cholesky, one solve.

    The single tall reduction makes this the cheapest muscle, at the price
    of an O(eps) * kappa(X)^2 loss of orthogonality and outright failure
    once eps * kappa(X)^2 approaches 1.  On failure (a non-finite factor,
    or an exactly zero pivot) ``q`` is NaN-filled.
    """
    x = _as_block(x)
    if not all_finite(x):
        return _nan_output(*x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x.T @ x
    return chol_normalize(gram, x)


_ROUTINES: dict[str, Callable[[np.ndarray], QROutput]] = {
    "houseqr": house_qr,
    "givensqr": givens_qr,
    "mgs": mgs_qr,
    "cholqr": chol_qr,
}

# The muscle cache holds at most ``_CACHE_ENTRIES`` entries, each of a
# block of at most ``_CACHE_BLOCK_BYTES`` (a 100-by-5 block is 4000 bytes).
# An entry holds that many bytes each of key, Q and R (s*s <= m*s), so the
# cache holds at most 64 * 12 KiB = 768 KiB.  A larger block is never hashed.
_CACHE_ENTRIES = 64
_CACHE_BLOCK_BYTES = 4096

# The one muscle ``apply_io`` never serves from the cache: a ``chol_qr``
# hit would skip a triangular solve that the benchmark counts.
_UNCACHED_KIND = "cholqr"


def _fresh(q: np.ndarray, r: np.ndarray) -> QROutput:
    """Copies of Q and R in their memory layout, strides included (a
    single ``house_qr`` column is Fortran-ordered), shared with no one."""
    return QROutput(
        *(np.array(a, order="F" if a.strides[0] < a.strides[1] else "C")
          for a in (q, r))
    )


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _cached_factor(kind: str, shape: tuple[int, int], data: bytes) -> QROutput:
    """``_ROUTINES[kind]`` of the block of ``shape`` whose C-order float64
    bytes are ``data``.

    A routine's Q and R depend only on its block's values, never on the
    block's memory layout, so a hit equals a fresh call bit for bit.  The
    stored arrays are private: callers get ``_fresh`` copies of them.
    """
    return _ROUTINES[kind](np.frombuffer(data).reshape(shape))


def apply_io(
    spec: IOSpec,
    x,
    *,
    ledger: SyncLedger,
    block: int,
) -> QROutput:
    """Dispatch one muscle call, charging its reductions to ``block``.

    The event goes into ``ledger``, labeled ``io-gram`` for the
    Gram-product muscle (``chol_qr``) and ``io-cols`` for the column-sweep
    muscles, and is recorded whether or not the call succeeds numerically —
    the reductions are spent either way.  A malformed block raises
    ``ValueError`` before anything is charged.

    Calls on blocks of at most 4 KiB, of every muscle but
    ``_UNCACHED_KIND``, are served from a process-wide
    ``functools.lru_cache`` of 64 entries (at most 768 KiB), keyed by the
    muscle, the block's shape and its float64 bytes.
    ``lru_cache`` is thread-safe; two threads that miss on one block at
    once may both factor it, with bit-identical results.  A sweep that puts
    one muscle in every slot factors the same blocks again and again: every
    combo at a point factors the same first block, and BCGS-A and BCGSI+A
    with tied slots repeat BCGS and BCGSI+ call for call.  A hit returns
    fresh copies of Q and R, bit-identical to a fresh call, and is charged
    like one, so ledgers, sync counts and CSV bytes do not depend on the
    cache.  Larger blocks and direct calls of the routines are never cached.
    """
    x = _as_block(x)
    try:
        routine = _ROUTINES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown intraorthogonalization {spec.kind!r}") from None
    label = "io-gram" if spec.kind == "cholqr" else "io-cols"
    ledger.record(block, label, spec.sync_cost(x.shape[1]))
    if spec.kind != _UNCACHED_KIND and x.nbytes <= _CACHE_BLOCK_BYTES:
        out = _cached_factor(spec.kind, x.shape, x.tobytes())
        return _fresh(out.q, out.r)
    return routine(x)
