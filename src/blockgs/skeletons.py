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

The ``_a`` variants accept a distinguished, typically stronger muscle for
the first block; ``bcgs`` and ``bcgsi_plus`` are the aliases with all
muscle slots tied to a single routine.  :data:`SKELETONS` holds each
variant's display name, CLI shorthands, muscle slots and tied-ness.

The ledger charges come from the products themselves: every tall product
(``proj``, ``proj2``, ``batch``) is formed by ``SyncLedger.reduce``, which
charges its one reduction, and each muscle call charges its own cost in
:func:`~blockgs.muscles.apply_io`.

Failure handling: after the first failed muscle call (indefinite Gram
matrix inside ``chol_qr`` or the fused Cholesky steps), NaNs propagate
through the remaining blocks, every block still executes, and the result
carries ``failed=True``.  This lets a sweep report *where* a variant broke
down instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blockcore import BlockMatrix, tri_solve_left_transposed, tri_solve_right
from .muscles import IOSpec, apply_io, chol_free
from .syncmodel import SyncEvent, SyncLedger

__all__ = [
    "SkeletonKind",
    "SkeletonSpec",
    "SKELETONS",
    "DISPLAY_NAMES",
    "TraceStep",
    "IterationTrace",
    "BGSResult",
    "bcgs",
    "bcgs_a",
    "bcgsi_plus",
    "bcgsi_plus_a",
    "bcgsi_a_3s",
    "bcgsi_a_2s",
    "bcgsi_a_1s",
]


class SkeletonKind(str, Enum):
    """Names of the seven supported outer-loop variants."""

    BCGS = "bcgs"
    BCGS_A = "bcgs_a"
    BCGSI_PLUS = "bcgsi_plus"
    BCGSI_PLUS_A = "bcgsi_plus_a"
    BCGSI_A_3S = "bcgsi_a_3s"
    BCGSI_A_2S = "bcgsi_a_2s"
    BCGSI_A_1S = "bcgsi_a_1s"


@dataclass(frozen=True)
class SkeletonSpec:
    """What the harness needs to know about one skeleton.

    ``slots`` names the muscle slots a run consumes (fields of a
    :class:`~blockgs.harness.Combo`), in the order the skeleton function
    takes them.  A ``tied`` skeleton takes a single muscle, which fills
    every slot.  ``shorthands`` are extra CLI spellings beyond the kind's
    value and the display name.
    """

    display: str
    slots: tuple[str, ...]
    tied: bool = False
    shorthands: tuple[str, ...] = ()


SKELETONS: dict[SkeletonKind, SkeletonSpec] = {
    SkeletonKind.BCGS: SkeletonSpec("BCGS", ("io_a", "io1"), tied=True),
    SkeletonKind.BCGS_A: SkeletonSpec("BCGS-A", ("io_a", "io1")),
    SkeletonKind.BCGSI_PLUS: SkeletonSpec(
        "BCGSI+", ("io_a", "io1", "io2"), tied=True
    ),
    SkeletonKind.BCGSI_PLUS_A: SkeletonSpec("BCGSI+A", ("io_a", "io1", "io2")),
    SkeletonKind.BCGSI_A_3S: SkeletonSpec(
        "BCGSI+A-3S", ("io_a", "io1"), shorthands=("3s",)
    ),
    SkeletonKind.BCGSI_A_2S: SkeletonSpec(
        "BCGSI+A-2S", ("io_a",), shorthands=("2s",)
    ),
    SkeletonKind.BCGSI_A_1S: SkeletonSpec(
        "BCGSI+A-1S", ("io_a",), shorthands=("1s",)
    ),
}

DISPLAY_NAMES = {kind: spec.display for kind, spec in SKELETONS.items()}


@dataclass
class TraceStep:
    """Intermediates recorded for one block column (trace mode only).

    Which fields are populated depends on the variant: the two-pass loops
    fill ``s_col``/``t_col``, the low-sync loops fill ``y_col``/``omega``,
    and only the one-sync loop fills the look-ahead fields ``z_block``,
    ``p_block`` and ``s_next``.
    """

    s_col: np.ndarray | None = None
    s_kk: np.ndarray | None = None
    t_col: np.ndarray | None = None
    t_kk: np.ndarray | None = None
    y_col: np.ndarray | None = None
    y_kk: np.ndarray | None = None
    u_block: np.ndarray | None = None
    v_block: np.ndarray | None = None
    omega: np.ndarray | None = None
    z_block: np.ndarray | None = None
    p_block: np.ndarray | None = None
    s_next: np.ndarray | None = None


@dataclass
class IterationTrace:
    """Per-block intermediates plus the sync events that produced them."""

    steps: dict[int, TraceStep] = field(default_factory=dict)
    sync_events: list[SyncEvent] = field(default_factory=list)


@dataclass
class BGSResult:
    """Outcome of one skeleton run."""

    q: BlockMatrix
    r: np.ndarray
    trace: IterationTrace | None
    ledger: SyncLedger
    failed: bool


def _require_block_matrix(x) -> BlockMatrix:
    if not isinstance(x, BlockMatrix):
        raise TypeError("skeletons require a BlockMatrix input")
    return x


def _setup(x: BlockMatrix, record_trace: bool):
    m, n = x.m, x.cols
    q_data = np.full((m, n), np.nan)
    r = np.zeros((n, n))
    ledger = SyncLedger()
    trace = IterationTrace() if record_trace else None
    return q_data, r, ledger, trace


def _first_block(
    x: BlockMatrix,
    io_a: IOSpec,
    q_data: np.ndarray,
    r: np.ndarray,
    ledger: SyncLedger,
    trace: IterationTrace | None,
) -> bool:
    out = apply_io(io_a, x.block(1), ledger=ledger, block=1)
    s = x.block_width
    q_data[:, :s] = out.q
    r[:s, :s] = out.r
    if trace is not None:
        trace.steps[1] = TraceStep(v_block=x.block(1).copy(), y_kk=out.r)
    return out.failed


def _finish(
    x: BlockMatrix,
    q_data: np.ndarray,
    r: np.ndarray,
    ledger: SyncLedger,
    trace: IterationTrace | None,
    failed: bool,
) -> BGSResult:
    if trace is not None:
        trace.sync_events = list(ledger.events)
    q = BlockMatrix(q_data, x.block_width, x.block_count)
    return BGSResult(q=q, r=r, trace=trace, ledger=ledger, failed=failed)


def bcgs_a(
    x: BlockMatrix,
    io_a: IOSpec,
    io: IOSpec,
    record_trace: bool = False,
) -> BGSResult:
    """Block classical Gram-Schmidt with a distinguished first-block muscle.

    For each block after the first: one fused projection against all
    previous blocks (one reduction), one deflation, one muscle call.
    """
    x = _require_block_matrix(x)
    s, p = x.block_width, x.block_count
    q_data, r, ledger, trace = _setup(x, record_trace)
    failed = _first_block(x, io_a, q_data, r, ledger, trace)
    for k in range(2, p + 1):
        lo, hi = (k - 1) * s, k * s
        qprev = q_data[:, :lo]
        xk = x.block(k)
        s_col = ledger.reduce(k, "proj", qprev, xk)
        w = xk - qprev @ s_col
        out = apply_io(io, w, ledger=ledger, block=k)
        q_data[:, lo:hi] = out.q
        r[:lo, lo:hi] = s_col
        r[lo:hi, lo:hi] = out.r
        failed = failed or out.failed
        if trace is not None:
            trace.steps[k] = TraceStep(s_col=s_col, s_kk=out.r, v_block=w)
    return _finish(x, q_data, r, ledger, trace, failed)


def bcgs(x: BlockMatrix, io: IOSpec, record_trace: bool = False) -> BGSResult:
    """Alias: :func:`bcgs_a` with the first-block muscle tied to ``io``."""
    return bcgs_a(x, io, io, record_trace=record_trace)


def bcgsi_plus_a(
    x: BlockMatrix,
    io_a: IOSpec,
    io1: IOSpec,
    io2: IOSpec,
    record_trace: bool = False,
) -> BGSResult:
    """Reorthogonalized block classical Gram-Schmidt (two full passes).

    Each block after the first is projected and normalized twice:
    projection S, muscle ``io1`` giving (U_k, S_kk); projection T of U_k,
    muscle ``io2`` giving (Q_k, T_kk).  The R column is assembled as
    ``S + T @ S_kk`` with diagonal block ``T_kk @ S_kk``.  Four reductions
    per block column when both inner muscles are Gram-product based.
    """
    x = _require_block_matrix(x)
    s, p = x.block_width, x.block_count
    q_data, r, ledger, trace = _setup(x, record_trace)
    failed = _first_block(x, io_a, q_data, r, ledger, trace)
    for k in range(2, p + 1):
        lo, hi = (k - 1) * s, k * s
        qprev = q_data[:, :lo]
        xk = x.block(k)
        s_col = ledger.reduce(k, "proj", qprev, xk)
        w = xk - qprev @ s_col
        out1 = apply_io(io1, w, ledger=ledger, block=k)
        t_col = ledger.reduce(k, "proj2", qprev, out1.q)
        v = out1.q - qprev @ t_col
        out2 = apply_io(io2, v, ledger=ledger, block=k)
        q_data[:, lo:hi] = out2.q
        r[:lo, lo:hi] = s_col + t_col @ out1.r
        r[lo:hi, lo:hi] = out2.r @ out1.r
        failed = failed or out1.failed or out2.failed
        if trace is not None:
            trace.steps[k] = TraceStep(
                s_col=s_col,
                s_kk=out1.r,
                t_col=t_col,
                t_kk=out2.r,
                u_block=out1.q,
                v_block=v,
            )
    return _finish(x, q_data, r, ledger, trace, failed)


def bcgsi_plus(
    x: BlockMatrix, io: IOSpec, record_trace: bool = False
) -> BGSResult:
    """Alias: :func:`bcgsi_plus_a` with all three muscle slots tied."""
    return bcgsi_plus_a(x, io, io, io, record_trace=record_trace)


def bcgsi_a_3s(
    x: BlockMatrix,
    io_a: IOSpec,
    io: IOSpec,
    record_trace: bool = False,
) -> BGSResult:
    """Three-sync variant: reorthogonalize, skipping the first normalization.

    The deflated block V_k is *not* normalized between the two projection
    passes, which removes one muscle call per column; the R column becomes
    the plain sum ``S + Y``.  Three reductions per block column with a
    Gram-product muscle.
    """
    x = _require_block_matrix(x)
    s, p = x.block_width, x.block_count
    q_data, r, ledger, trace = _setup(x, record_trace)
    failed = _first_block(x, io_a, q_data, r, ledger, trace)
    for k in range(2, p + 1):
        lo, hi = (k - 1) * s, k * s
        qprev = q_data[:, :lo]
        xk = x.block(k)
        s_col = ledger.reduce(k, "proj", qprev, xk)
        v = xk - qprev @ s_col
        y_col = ledger.reduce(k, "proj2", qprev, v)
        w = v - qprev @ y_col
        out = apply_io(io, w, ledger=ledger, block=k)
        q_data[:, lo:hi] = out.q
        r[:lo, lo:hi] = s_col + y_col
        r[lo:hi, lo:hi] = out.r
        failed = failed or out.failed
        if trace is not None:
            trace.steps[k] = TraceStep(
                s_col=s_col, y_col=y_col, y_kk=out.r, v_block=v
            )
    return _finish(x, q_data, r, ledger, trace, failed)


def _fused_cholesky(qprev, v, y_col, omega):
    """The Cholesky-based cleanup shared by the two- and one-sync loops.

    Y_kk is the fail-safe-free Cholesky factor of ``Omega - Y^T Y`` and the
    new Q block is ``(V - Q_prev Y) Y_kk^{-1}``; a failed factor or an
    exactly zero pivot gives a NaN Q block instead.  Returns
    ``(y_kk, q_k, failed)``.
    """
    fac = chol_free(omega - y_col.T @ y_col)
    if fac.failed or np.any(np.diagonal(fac.r) == 0.0):
        return fac.r, np.full(v.shape, np.nan), True
    return fac.r, tri_solve_right(v - qprev @ y_col, fac.r), False


def _fused_normalization(
    qprev: np.ndarray,
    v: np.ndarray,
    ledger: SyncLedger,
    k: int,
):
    """Batched product [Q_prev, V]^T V, then the Cholesky-based cleanup.

    One reduction yields both the reorthogonalization coefficients Y and the
    Gram block Omega.  Returns ``(y_col, omega, y_kk, q_k, failed)``.
    """
    prods = ledger.reduce(k, "batch", (qprev, v), v)
    n_prev = qprev.shape[1]
    y_col = prods[:n_prev, :]
    omega = prods[n_prev:, :]
    return (y_col, omega, *_fused_cholesky(qprev, v, y_col, omega))


def bcgsi_a_2s(
    x: BlockMatrix,
    io_a: IOSpec,
    record_trace: bool = False,
) -> BGSResult:
    """Two-sync variant: fused Gram-product normalization.

    The second projection and the normalization collapse into one batched
    product [Q_prev, V]^T V; the inner muscle is fixed to the fused
    Cholesky step, so only the first-block muscle is pluggable.  Two
    reductions per block column.
    """
    x = _require_block_matrix(x)
    s, p = x.block_width, x.block_count
    q_data, r, ledger, trace = _setup(x, record_trace)
    failed = _first_block(x, io_a, q_data, r, ledger, trace)
    for k in range(2, p + 1):
        lo, hi = (k - 1) * s, k * s
        qprev = q_data[:, :lo]
        xk = x.block(k)
        s_col = ledger.reduce(k, "proj", qprev, xk)
        v = xk - qprev @ s_col
        y_col, omega, y_kk, qk, step_failed = _fused_normalization(
            qprev, v, ledger, k
        )
        q_data[:, lo:hi] = qk
        r[:lo, lo:hi] = s_col + y_col
        r[lo:hi, lo:hi] = y_kk
        failed = failed or step_failed
        if trace is not None:
            trace.steps[k] = TraceStep(
                s_col=s_col, y_col=y_col, y_kk=y_kk, omega=omega, v_block=v
            )
    return _finish(x, q_data, r, ledger, trace, failed)


def bcgsi_a_1s(
    x: BlockMatrix,
    io_a: IOSpec,
    record_trace: bool = False,
) -> BGSResult:
    """One-sync variant: look-ahead batching of projection and normalization.

    The projection coefficients of block k+1 are reverse-engineered from
    the same batched product that normalizes block k, so the steady-state
    loop spends exactly one reduction per block column:

    * setup: project X_2 against Q_1 (charged to block 1 as a boundary
      cost) and deflate it into V_2;
    * for k = 2..p-1: one batched product [Q_prev, V_k]^T [V_k, X_{k+1}]
      yields Y (reorthogonalization), Omega (Gram block), Z (projection of
      X_{k+1} on Q_prev) and P (V_k^T X_{k+1}); Y_kk and Q_k come from the
      fused Cholesky step, the missing coefficient row Q_k^T X_{k+1} from a
      transposed triangular solve of ``P - Y^T Z``, and V_{k+1} is deflated
      locally;
    * final block: the plain fused normalization, no look-ahead.

    Total ledger cost: sync_cost(io_a) + p reductions (1 setup projection,
    p-2 loop batches, 1 final batch).
    """
    x = _require_block_matrix(x)
    s, p = x.block_width, x.block_count
    q_data, r, ledger, trace = _setup(x, record_trace)
    failed = _first_block(x, io_a, q_data, r, ledger, trace)
    if p == 1:
        return _finish(x, q_data, r, ledger, trace, failed)

    # Setup: the only standalone projection in the whole run.
    q1 = q_data[:, :s]
    s_col = ledger.reduce(1, "proj", q1, x.block(2))
    v = x.block(2) - q1 @ s_col

    for k in range(2, p):
        lo, hi = (k - 1) * s, k * s
        qprev = q_data[:, :lo]
        x_next = x.block(k + 1)
        prods = ledger.reduce(k, "batch", (qprev, v), (v, x_next))
        y_col = prods[:lo, :s]
        z_blk = prods[:lo, s:]
        omega = prods[lo:, :s]
        p_blk = prods[lo:, s:]
        y_kk, qk, step_failed = _fused_cholesky(qprev, v, y_col, omega)
        if step_failed:
            bottom = np.full((s, s), np.nan)
        else:
            bottom = tri_solve_left_transposed(y_kk, p_blk - y_col.T @ z_blk)
        q_data[:, lo:hi] = qk
        r[:lo, lo:hi] = s_col + y_col
        r[lo:hi, lo:hi] = y_kk
        failed = failed or step_failed
        s_next = np.vstack([z_blk, bottom])
        v = x_next - q_data[:, :hi] @ s_next
        if trace is not None:
            trace.steps[k] = TraceStep(
                s_col=s_col,
                y_col=y_col,
                y_kk=y_kk,
                omega=omega,
                z_block=z_blk,
                p_block=p_blk,
                s_next=s_next,
            )
        s_col = s_next

    # Final block: identical to the two-sync inner step, without look-ahead.
    lo = (p - 1) * s
    qprev = q_data[:, :lo]
    y_col, omega, y_kk, qk, step_failed = _fused_normalization(
        qprev, v, ledger, p
    )
    q_data[:, lo:] = qk
    r[:lo, lo:] = s_col + y_col
    r[lo:, lo:] = y_kk
    failed = failed or step_failed
    if trace is not None:
        trace.steps[p] = TraceStep(
            s_col=s_col, y_col=y_col, y_kk=y_kk, omega=omega
        )
    return _finish(x, q_data, r, ledger, trace, failed)
