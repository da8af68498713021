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

from dataclasses import dataclass, field

import numpy as np

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

    def record(self, block: int, label: str, cost: int) -> "SyncLedger":
        """Append one event and return the ledger (for chaining)."""
        cost = int(cost)
        if cost < 1:
            raise ValueError("sync cost must be >= 1")
        self.events.append(SyncEvent(int(block), str(label), cost))
        return self

    def reduce(self, block: int, label: str, left, right) -> np.ndarray:
        """One tall reduction ``left^T @ right``, charged to ``block``.

        A tuple operand is stacked column-wise first, so a fused product
        such as ``[Q, V]^T [V, X]`` is a single call and a single charge.
        """
        self.record(block, label, 1)
        if isinstance(left, tuple):
            left = np.hstack(left)
        if isinstance(right, tuple):
            right = np.hstack(right)
        return left.T @ right

    @property
    def total(self) -> int:
        """Sum of all recorded costs."""
        return sum(e.cost for e in self.events)

    def block_total(self, k: int) -> int:
        """Total cost attributed to block column ``k``."""
        return sum(e.cost for e in self.events if e.block == k)


def syncs_per_block(result) -> float:
    """Steady-state reductions per interior block column.

    Averages the ledger cost attributed to blocks 2..p-1 over the p-2
    interior columns, excluding the first block (whose muscle choice is a
    boundary effect) and the final column (which lacks look-ahead work in
    the one-sync variant).

    Parameters
    ----------
    result : BGSResult
        A finished skeleton run with ``result.q.block_count >= 3``.
    """
    p = result.q.block_count
    if p < 3:
        raise ValueError("steady state undefined")
    interior = sum(
        e.cost for e in result.ledger.events if 2 <= e.block <= p - 1
    )
    return interior / (p - 2)
