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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

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
    rho_class : str
        Residual class; ``"eps"`` (i.e. O(eps)) for every supported routine.
    """

    kind: str
    alpha: int
    rho_class: str = "eps"

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
    return x


def _nan_output(m: int, s: int) -> QROutput:
    return QROutput(
        q=np.full((m, s), np.nan), r=np.full((s, s), np.nan), failed=True
    )


def _fix_signs(q: np.ndarray, r: np.ndarray) -> QROutput:
    """Flip Q columns / R rows so that diag(R) >= 0."""
    neg = np.diagonal(r) < 0.0
    if neg.any():
        q = q.copy()
        r = r.copy()
        q[:, neg] *= -1.0
        r[neg, :] *= -1.0
    return QROutput(q, r, failed=False)


def house_qr(x) -> QROutput:
    """Householder QR with explicitly assembled economic Q.

    Unconditionally stable: the loss of orthogonality of ``q`` is O(eps)
    independent of kappa(X).  Never fails on finite full-width input.
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    q, r = np.linalg.qr(x, mode="reduced")
    return _fix_signs(q, r)


def givens_qr(x) -> QROutput:
    """QR via Givens rotations, eliminating subdiagonals column by column.

    Rotations are applied bottom-up within each column, so previously
    created zeros are preserved.  Stability class matches ``house_qr``.
    """
    x = _as_block(x)
    m, s = x.shape
    if not np.isfinite(x).all():
        return _nan_output(m, s)
    a = x.copy()
    qt = np.eye(m)
    for j in range(s):
        for i in range(m - 1, j, -1):
            f, g = a[i - 1, j], a[i, j]
            if g == 0.0:
                continue
            h = np.hypot(f, g)
            c, sn = f / h, g / h
            rot = np.array([[c, sn], [-sn, c]])
            a[i - 1 : i + 1, j:] = rot @ a[i - 1 : i + 1, j:]
            a[i, j] = 0.0
            qt[i - 1 : i + 1, :] = rot @ qt[i - 1 : i + 1, :]
    q = qt[:s, :].T.copy()
    r = np.triu(a[:s, :])
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
