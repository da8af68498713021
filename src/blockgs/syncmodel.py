"""Accounting of simulated global reductions ("sync points").

The cost model charges one sync per tall inner-product batch, i.e. per
reduction across the m-dimensional row space: a Gram product ``X^T X``, a
projection ``Q^T X``, or a fused product of several such factors counts as a
single reduction regardless of how many small columns it produces.  Purely
local work on s-by-s quantities (Cholesky factors, triangular solves, sums)
is free.  :meth:`SyncLedger.reduce` forms such a product and charges it in
one step, so a skeleton's ledger is the list of products it computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcore import _panels, _run_panels

__all__ = ["SyncEvent", "SyncLedger", "syncs_per_block"]


# A reduction is split into panels of ``left``'s columns only when
# ``left`` holds at least this many bytes (below it two panels were
# slower than one call) and at most _REDUCE_MAX_COLS columns.  A product
# with more output rows than one OpenBLAS row block (192 on SkylakeX)
# forms its last rows with a kernel that depends on where the block
# starts, which a panel would move.  Panels start on multiples of
# _REDUCE_GRAIN columns, a multiple of the kernels' row unrolling, so a
# one-column product's trailing group stays where one call puts it.
REDUCE_PANEL_BYTES = 16 << 20
_REDUCE_MAX_COLS = 192
_REDUCE_GRAIN = 16


@dataclass(frozen=True)
class SyncEvent:
    """One recorded reduction: which block column paid for it, and why."""

    block: int
    label: str
    cost: int


@dataclass
class SyncLedger:
    """Append-only log of reductions charged during a single skeleton run."""

    events: list[SyncEvent] = field(default_factory=list)

    def record(self, block: int, label: str, cost: int) -> None:
        """Append one event."""
        cost = int(cost)
        if cost < 1:
            raise ValueError("sync cost must be >= 1")
        self.events.append(SyncEvent(int(block), str(label), cost))

    def reduce(self, block: int, label: str, left, right) -> np.ndarray:
        """One tall reduction ``left^T @ right``, charged to ``block``.

        ``left`` is m-by-n, ``right`` a narrow m-by-w; a fused product such
        as ``[Q, V]^T [V, X]`` is one call and one charge.  Formed as
        ``(R^T @ left)^T`` with ``R`` a C-ordered copy of ``right``, so
        ``left`` is read in place; the n-by-w result is C-ordered.  The
        copy keeps the sweeps' bits: an uncopied column-major ``right``
        changes the BLAS call and the metric digits.

        While BLAS runs on one thread, a ``left`` of at least
        ``REDUCE_PANEL_BYTES`` and at most 192 columns is reduced in panels
        of its columns, one per core (see
        :func:`~blockgs.blockcore._panels`); each entry of the result is
        formed by the same BLAS kernel in the same order as in one call.
        """
        self.record(block, label, 1)
        r = np.ascontiguousarray(right)
        (m, n), w = left.shape, r.shape[1]
        if left.nbytes >= REDUCE_PANEL_BYTES and n <= _REDUCE_MAX_COLS:
            bounds = _panels(
                n,
                left.nbytes,
                REDUCE_PANEL_BYTES,
                grain=_REDUCE_GRAIN,
                work=m * n * w,
            )
            if len(bounds) > 2:
                out = np.empty((w, n))

                def product(lo, hi):
                    np.matmul(r.T, left[:, lo:hi], out=out[:, lo:hi])

                _run_panels(product, bounds)
                return np.ascontiguousarray(out.T)
        return np.ascontiguousarray((r.T @ left).T)

    @property
    def total(self) -> int:
        """Sum of all recorded costs."""
        return sum(e.cost for e in self.events)


def syncs_per_block(result) -> float:
    """Steady-state reductions per interior block column of a ``BGSResult``.

    Averages the ledger cost of blocks 2..p-1, leaving out the first block
    (its muscle is a boundary effect) and the last (no look-ahead work in
    the one-sync variant).  NaN when p < 3: no interior block.
    """
    p = result.q.block_count
    if p < 3:
        return math.nan
    interior = sum(
        e.cost for e in result.ledger.events if 2 <= e.block <= p - 1
    )
    return interior / (p - 2)
