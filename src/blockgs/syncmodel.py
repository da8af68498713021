"""Accounting of simulated global reductions ("sync points").

The cost model charges one sync per tall inner-product batch, i.e. per
reduction across the m-dimensional row space: a Gram product ``X^T X``, a
projection ``Q^T X``, or a fused product of several such factors counts as a
single reduction regardless of how many small columns it produces.  Purely
local work on s-by-s quantities (Cholesky factors, triangular solves, sums)
is free.  :meth:`SyncLedger.reduce` charges such a product and forms it by
:func:`~blockgs.blockcore.tall_inner` in one step, so a skeleton's ledger
is the list of products it computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcore import tall_inner

__all__ = ["SyncEvent", "SyncLedger", "syncs_per_block"]


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
        as ``[Q, V]^T [V, X]`` is one call and one charge.  The product is
        :func:`~blockgs.blockcore.tall_inner`'s: C-ordered, and split over
        the cores only where that kernel decides.
        """
        self.record(block, label, 1)
        return tall_inner(left, right)

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
