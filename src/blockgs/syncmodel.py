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

        A fused product such as ``[Q, V]^T [V, X]`` is still one call and
        one charge: the skeletons lay its factors side by side in their
        column-major Q workspace and pass views of it, so nothing is
        stacked here.  The product is formed as ``(R^T @ left)^T`` with
        ``R`` a C-ordered copy of the narrow ``right``, the orientation of
        :func:`~blockgs.blockcore.project_out`: BLAS then streams ``left``
        in place, and the result, returned C-ordered, has the bits of
        ``left.T @ right`` on views of a row-major workspace.  Only a
        single-column operand, which numpy hands to gemv, may round
        differently.

        The copy of ``right`` holds those bits, even when ``right`` is
        already a column-major view: passing such a view uncopied changes
        the BLAS call numpy makes, and with it the digits of ``loo``,
        ``rel_res`` and ``rel_chol_res`` in every piled-calib row at
        s = 5 (and the ``failed`` flag of two).
        """
        self.record(block, label, 1)
        r = np.ascontiguousarray(right)
        return np.ascontiguousarray((r.T @ left).T)

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
