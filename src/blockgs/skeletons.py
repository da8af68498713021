"""Block Gram-Schmidt outer loops ("skeletons").

Each routine factors a tall :class:`~blockgs.blockcore.BlockMatrix` into an
orthonormal block matrix Q and an upper-triangular R, delegating per-block
orthonormalization to a pluggable muscle from :mod:`blockgs.muscles`.  The
variants differ in how they arrange projections and normalizations, and
therefore in how many simulated global reductions they spend per block
column once Gram-product muscles are plugged in:

* ``bcgs`` / ``bcgs_a``            project, then orthonormalize (2/column)
* ``bcgsi_plus`` / ``bcgsi_plus_a``  project + normalize twice (4/column)
* ``bcgsi_a_3s``                   reorthogonalized, first normalization
                                   skipped (3/column)
* ``bcgsi_a_2s``                   Gram-matrix form with one batched
                                   product (2/column)
* ``bcgsi_a_1s``                   look-ahead batched form (1/column)

All seven share one block loop, ``_run``; a variant is only its per-block
step.  The ``_a`` variants take a distinguished muscle for the first block;
``bcgs`` and ``bcgsi_plus`` tie every muscle slot to one routine.
:data:`SKELETONS` holds each variant's display name, CLI shorthands,
muscle slots, tied-ness and bound envelope.

Every tall product (``proj``, ``proj2``, ``batch``) is formed, and its
one reduction charged, by ``SyncLedger.reduce``; each muscle call charges
its own cost in :func:`~blockgs.muscles.apply_io`.  Batched products read
[Q_prev, V_k] and [V_k, X_{k+1}] as views of the Q workspace, never as
stacked copies.

Breakdown is data: after the first failed muscle call or fused Cholesky
step, NaNs propagate through the remaining blocks and every block still
executes.  ``failed`` is true exactly when Q or R holds a non-finite entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .blockcore import (
    BlockMatrix,
    all_finite,
    project_out,
    tri_solve_left_transposed,
)
from .muscles import IOSpec, apply_io, chol_normalize
from .syncmodel import SyncLedger

class SkeletonKind(str, Enum):
    """Names of the seven supported outer-loop variants, each also the name
    of its skeleton function."""

    BCGS = "bcgs"
    BCGS_A = "bcgs_a"
    BCGSI_PLUS = "bcgsi_plus"
    BCGSI_PLUS_A = "bcgsi_plus_a"
    BCGSI_A_3S = "bcgsi_a_3s"
    BCGSI_A_2S = "bcgsi_a_2s"
    BCGSI_A_1S = "bcgsi_a_1s"


__all__ = [
    "SkeletonKind",
    "BoundSpec",
    "SkeletonSpec",
    "SKELETONS",
    "BGSResult",
    *(kind.value for kind in SkeletonKind),
]


@dataclass(frozen=True)
class BoundSpec:
    """The paper's stability envelope of one skeleton/muscle combination.

    ``theta`` controls applicability (``eps * kappa**theta <= 1/2``);
    ``loo_exponent`` is the power of kappa in the loss-of-orthogonality
    ceiling.  Only a combination a theorem of the paper covers has one.
    """

    theta: float
    loo_exponent: float


# Envelopes: muscles in slot order -> BoundSpec, or None where no
# theorem covers them, a violated premise included.  ``alpha`` is a
# muscle's loss-of-orthogonality exponent (O(eps) * kappa**alpha).


def _no_envelope(io_a, io1):
    """BCGS / BCGS-A: without reorthogonalization the paper proves none."""
    return None


def _reorthogonalized_envelope(io_a, io1, io2):
    """BCGSI+ / BCGSI+A (four syncs per block column): the paper shows a
    "strong" muscle is needed only for the very first block to keep the
    loss of orthogonality at O(eps).  Premise alpha_a = 0; applicable while
    eps * kappa**max(alpha_1, 1) <= 1/2.
    """
    return BoundSpec(max(io1.alpha, 1), 0.0) if io_a.alpha == 0 else None


def _three_sync_envelope(io_a, io1):
    """BCGSI+A-3S: the paper finds that stability degrades with the first
    removed synchronization.  Loss of orthogonality O(eps) *
    kappa**max(alpha_1, 1), applicable while eps * kappa**max(alpha_1 + 1,
    2) <= 1/2; premise alpha_a <= alpha_1.
    """
    a = io1.alpha
    return BoundSpec(max(a + 1, 2), max(a, 1)) if io_a.alpha <= a else None


def _low_sync_envelope(io_a):
    """BCGSI+A-2S / -1S: degraded further; the paper shows the one-sync
    variant cannot be guaranteed stable in practice.  Loss of orthogonality
    O(eps) * kappa**2, applicable only while eps * kappa**3 <= 1/2; premise
    alpha_a <= 2.
    """
    return BoundSpec(3.0, 2.0) if io_a.alpha <= 2 else None


@dataclass(frozen=True)
class SkeletonSpec:
    """Everything the rest of the package knows about one skeleton.

    ``slots`` names the muscle slots a run consumes (fields of a
    :class:`~blockgs.harness.Combo`), in the order the skeleton function
    takes them.  ``envelope`` maps those muscles (in the same order) to
    the :class:`BoundSpec` the paper proves for them, or to None where no
    theorem covers them.  A ``tied`` skeleton
    takes a single muscle, which fills every slot.
    ``shorthands`` are extra CLI spellings beyond the kind's value and the
    display name.
    """

    display: str
    slots: tuple[str, ...]
    envelope: Callable[..., BoundSpec | None]
    tied: bool = False
    shorthands: tuple[str, ...] = ()


SKELETONS: dict[SkeletonKind, SkeletonSpec] = {
    SkeletonKind.BCGS: SkeletonSpec(
        "BCGS", ("io_a", "io1"), _no_envelope, tied=True
    ),
    SkeletonKind.BCGS_A: SkeletonSpec(
        "BCGS-A", ("io_a", "io1"), _no_envelope
    ),
    SkeletonKind.BCGSI_PLUS: SkeletonSpec(
        "BCGSI+", ("io_a", "io1", "io2"), _reorthogonalized_envelope, tied=True
    ),
    SkeletonKind.BCGSI_PLUS_A: SkeletonSpec(
        "BCGSI+A", ("io_a", "io1", "io2"), _reorthogonalized_envelope
    ),
    SkeletonKind.BCGSI_A_3S: SkeletonSpec(
        "BCGSI+A-3S", ("io_a", "io1"), _three_sync_envelope, shorthands=("3s",)
    ),
    SkeletonKind.BCGSI_A_2S: SkeletonSpec(
        "BCGSI+A-2S", ("io_a",), _low_sync_envelope, shorthands=("2s",)
    ),
    SkeletonKind.BCGSI_A_1S: SkeletonSpec(
        "BCGSI+A-1S", ("io_a",), _low_sync_envelope, shorthands=("1s",)
    ),
}


@dataclass
class BGSResult:
    """Outcome of one skeleton run."""

    q: BlockMatrix
    r: np.ndarray
    ledger: SyncLedger
    failed: bool


def _run(x: BlockMatrix, io_a: IOSpec, step) -> BGSResult:
    """The block loop every skeleton shares.

    Block 1 goes to the first-block muscle ``io_a``.  For k = 2..p,
    ``step(ledger, k, q, lo, xk)`` gets the column-major m-by-(p*s) Q
    workspace ``q``, whose first ``lo = (k-1)*s`` columns hold Q_1..Q_{k-1},
    and X_k.  It may use block k's slot and the slots after it as scratch
    (a step may deflate V_k straight into block k's slot), since the loop
    writes Q_k there next; so the Q_k it returns must be an array of its
    own, never a view of those slots.  It returns ``(r_col, r_kk, q_k)``:
    R's column above the diagonal, the diagonal block R_kk and the new
    block Q_k.  The result's Q wraps the workspace uncopied.  Raises
    ``TypeError`` unless X is a ``BlockMatrix``.

    Memory: beside X, the workspace and R, a run holds at most two m-by-s
    blocks at once.  Each step drops an m-by-s temporary once it has read
    it for the last time, and the loop drops each muscle output and Q_k
    once it has copied it into the workspace.
    """
    if not isinstance(x, BlockMatrix):
        raise TypeError("skeletons require a BlockMatrix input")
    s, p = x.block_width, x.block_count
    q_data = np.full((x.m, x.cols), np.nan, order="F")
    r = np.zeros((x.cols, x.cols))
    ledger = SyncLedger()
    # A non-finite X, or a failed block, fills Q with inf and NaN: data,
    # not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_io(io_a, x.block(1), ledger=ledger, block=1)
        q_data[:, :s] = out.q
        r[:s, :s] = out.r
        del out
        for k in range(2, p + 1):
            lo, hi = (k - 1) * s, k * s
            r_col, r_kk, q_k = step(ledger, k, q_data, lo, x.block(k))
            q_data[:, lo:hi] = q_k
            del q_k
            r[:lo, lo:hi] = r_col
            r[lo:hi, lo:hi] = r_kk
    failed = not (all_finite(q_data) and all_finite(r))
    return BGSResult(BlockMatrix(q_data, s, p), r, ledger, failed)


def bcgs_a(x: BlockMatrix, io_a: IOSpec, io: IOSpec) -> BGSResult:
    """Block classical Gram-Schmidt with a distinguished first-block muscle.

    For each block after the first: one fused projection against all
    previous blocks (one reduction), one deflation, one muscle call.
    """

    def step(ledger, k, q, lo, xk):
        qprev = q[:, :lo]
        s_col = ledger.reduce(k, "proj", qprev, xk)
        out = apply_io(
            io, project_out(xk, qprev, s_col), ledger=ledger, block=k
        )
        return s_col, out.r, out.q

    return _run(x, io_a, step)


def bcgs(x: BlockMatrix, io: IOSpec) -> BGSResult:
    """Alias: :func:`bcgs_a` with the first-block muscle tied to ``io``."""
    return bcgs_a(x, io, io)


def bcgsi_plus_a(
    x: BlockMatrix,
    io_a: IOSpec,
    io1: IOSpec,
    io2: IOSpec,
) -> BGSResult:
    """Reorthogonalized block classical Gram-Schmidt (two full passes).

    Each block after the first is projected and normalized twice:
    projection S, muscle ``io1`` giving (U_k, S_kk); projection T of U_k,
    muscle ``io2`` giving (Q_k, T_kk).  The R column is assembled as
    ``S + T @ S_kk`` with diagonal block ``T_kk @ S_kk``.  Four reductions
    per block column when both inner muscles are Gram-product based.
    """

    def step(ledger, k, q, lo, xk):
        qprev = q[:, :lo]
        s_col = ledger.reduce(k, "proj", qprev, xk)
        out1 = apply_io(
            io1, project_out(xk, qprev, s_col), ledger=ledger, block=k
        )
        t_col = ledger.reduce(k, "proj2", qprev, out1.q)
        v = project_out(out1.q, qprev, t_col)
        s_kk = out1.r
        del out1  # U_k, read for the last time
        out2 = apply_io(io2, v, ledger=ledger, block=k)
        return s_col + t_col @ s_kk, out2.r @ s_kk, out2.q

    return _run(x, io_a, step)


def bcgsi_plus(x: BlockMatrix, io: IOSpec) -> BGSResult:
    """Alias: :func:`bcgsi_plus_a` with all three muscle slots tied."""
    return bcgsi_plus_a(x, io, io, io)


def bcgsi_a_3s(x: BlockMatrix, io_a: IOSpec, io: IOSpec) -> BGSResult:
    """Three-sync variant: reorthogonalize, skipping the first normalization.

    The deflated block V_k is *not* normalized between the two projection
    passes, which removes one muscle call per column; the R column becomes
    the plain sum ``S + Y``.  Three reductions per block column with a
    Gram-product muscle.
    """

    def step(ledger, k, q, lo, xk):
        qprev = q[:, :lo]
        s_col = ledger.reduce(k, "proj", qprev, xk)
        v = project_out(xk, qprev, s_col)
        y_col = ledger.reduce(k, "proj2", qprev, v)
        w = project_out(v, qprev, y_col)
        del v  # V_k, read for the last time
        out = apply_io(io, w, ledger=ledger, block=k)
        return s_col + y_col, out.r, out.q

    return _run(x, io_a, step)


def _fused_normalization(
    ledger: SyncLedger,
    k: int,
    q: np.ndarray,
    lo: int,
    s: int,
    ahead: np.ndarray | None = None,
):
    """Batched product [Q_prev, V]^T [V, A], then the Cholesky cleanup.

    The caller has deflated V into block k's slot ``q[:, lo:lo + s]``, so
    [Q_prev, V] is the view ``q[:, :lo + s]``; a look-ahead block A, when
    given, is written into slot k+1 beside V.  One reduction yields Y =
    Q_prev^T V, Omega = V^T V and, with A, Z = Q_prev^T A and P = V^T A.
    :func:`~blockgs.muscles.chol_normalize` of ``Omega - Y^T Y`` and
    ``V - Q_prev Y`` gives the pair (Q_k, Y_kk), Q_k a new array.  Returns
    (Y, that pair, Z, P); Z and P are empty without A.
    """
    hi = lo + s
    right = hi
    if ahead is not None:
        right = hi + s
        q[:, hi:right] = ahead
    v = q[:, lo:hi]
    prods = ledger.reduce(k, "batch", q[:, :hi], q[:, lo:right])
    y_col = prods[:lo, :s]
    out = chol_normalize(prods[lo:, :s] - y_col.T @ y_col, v, q[:, :lo], y_col)
    return y_col, out, prods[:lo, s:], prods[lo:, s:]


def bcgsi_a_2s(x: BlockMatrix, io_a: IOSpec) -> BGSResult:
    """Two-sync variant: fused Gram-product normalization.

    The second projection and the normalization collapse into one batched
    product [Q_prev, V]^T V; the inner muscle is fixed to the fused
    Cholesky step, so only the first-block muscle is pluggable.  Two
    reductions per block column.
    """
    s = x.block_width

    def step(ledger, k, q, lo, xk):
        qprev = q[:, :lo]
        s_col = ledger.reduce(k, "proj", qprev, xk)
        q[:, lo : lo + s] = project_out(xk, qprev, s_col)
        y_col, out, *_ = _fused_normalization(ledger, k, q, lo, s)
        return s_col + y_col, out.r, out.q

    return _run(x, io_a, step)


def bcgsi_a_1s(x: BlockMatrix, io_a: IOSpec) -> BGSResult:
    """One-sync variant: look-ahead batching of projection and normalization.

    Block k's projection coefficients S are, at k = 2, the plain projection
    of X_2 on Q_1 (charged to block 1), and later those carried over from
    block k-1; V_k = X_k - Q_prev S.  For k < p the fused normalization
    takes X_{k+1} as its look-ahead block: one batched product
    [Q_prev, V_k]^T [V_k, X_{k+1}] yields Y, Omega, Z = Q_prev^T X_{k+1}
    and P = V_k^T X_{k+1}; the fused Cholesky step gives Y_kk and Q_k, and
    a transposed triangular solve of ``P - Y^T Z`` the row Q_k^T X_{k+1}.
    Block p has no look-ahead.  Total ledger cost: sync_cost(io_a) + p
    reductions.
    """
    s = x.block_width
    s_next = None  # Q_1..Q_k^T X_{k+1}, carried from block k to block k+1

    def step(ledger, k, q, lo, xk):
        nonlocal s_next
        qprev = q[:, :lo]
        if k == 2:
            # The only standalone projection in the whole run.
            s_col = ledger.reduce(1, "proj", qprev, xk)
        else:
            s_col = s_next
        q[:, lo : lo + s] = project_out(xk, qprev, s_col)
        ahead = x.block(k + 1) if k < x.block_count else None
        y_col, out, z_blk, p_blk = _fused_normalization(
            ledger, k, q, lo, s, ahead
        )
        if ahead is not None and out.failed:
            s_next = np.vstack([z_blk, np.full((s, s), np.nan)])
        elif ahead is not None:
            bottom = tri_solve_left_transposed(out.r, p_blk - y_col.T @ z_blk)
            s_next = np.vstack([z_blk, bottom])
        return s_col + y_col, out.r, out.q

    return _run(x, io_a, step)
