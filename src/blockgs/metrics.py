"""Stability metrics and theoretical bound envelopes.

Three spectral-norm measures summarize a factorization X ~ Q R:

* ``loo``           loss of orthogonality, ||I - Q^T Q||
* ``rel_res``       relative residual, ||X - Q R|| / ||X||
* ``rel_chol_res``  relative Cholesky residual, ||X^T X - R^T R|| / ||X||^2

No m-by-n matrix is ever handed to an SVD here.  The norm of a tall matrix
A is taken as sqrt(lambda_max(A^T A)) from a symmetric eigensolver on the
n-by-n Gram matrix, after A is scaled by the power of two that brings its
largest entry into [1/2, 1): no finite input overflows or underflows, and
scaling the inputs by a power of two leaves every ratio bit-identical.  The
largest eigenvalue of a Gram matrix is accurate to a few units of roundoff
relative to itself, so these norms agree with the SVD definitions to about
1e-15 relative (1e-12 is the tested tolerance), residuals at roundoff level
included, and an exactly zero residual gives exactly 0.0.  The n-by-n
quantities (I - Q^T Q and X^T X - R^T R) keep their SVD spectral norm; the
only SVD of a tall matrix a sweep takes is that of ``cond_2``, which needs
sigma_min as well.

Metrics of failed (NaN-bearing) computations are NaN, never an exception,
so sweep curves can simply terminate the way failed runs do.

:func:`bound_for` maps a (skeleton, muscle choices) combination to the
envelope its theory predicts: an applicability condition of the form
``eps * kappa**theta <= 1/2`` plus a loss-of-orthogonality ceiling
``100 * eps * kappa**loo_exponent``.  The plain BCGS family gets an
envelope whose exponent grows with the block count; it is recorded for
diagnostics but never enforced, since no known input attains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockcore import BlockMatrix, spectral_norm
from .muscles import IOSpec
from .skeletons import SkeletonKind

__all__ = [
    "EPS",
    "C_TOL",
    "BoundSpec",
    "loo",
    "rel_res",
    "rel_chol_res",
    "bound_for",
    "bound_envelope",
]

EPS = 2.0**-53
C_TOL = 100.0


def _dense(a) -> np.ndarray:
    if isinstance(a, BlockMatrix):
        return a.data
    return np.asarray(a, dtype=np.float64)


def loo(q) -> float:
    """Loss of orthogonality ||I - Q^T Q|| (spectral norm).

    NaN when Q contains non-finite entries (failed run).
    """
    qd = _dense(q)
    if not np.isfinite(qd).all():
        return float("nan")
    n = qd.shape[1]
    return spectral_norm(np.eye(n) - qd.T @ qd)


def _binary_exponent(a: np.ndarray) -> int:
    """The ``e`` that brings the largest entry of ``a * 2**-e`` into [1/2, 1).

    0 for a zero matrix.  Raises ``ValueError`` on non-finite input.
    """
    amax = max(float(a.max()), -float(a.min()))
    if not math.isfinite(amax):
        raise ValueError("non-finite matrix")
    return math.frexp(amax)[1]


def _lambda_max(g: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric matrix ``g``, clamped at +0.0."""
    return max(0.0, float(np.linalg.eigvalsh(g)[-1]))


def rel_res(x, q, r) -> float:
    """Relative residual ||X - Q R|| / ||X|| (spectral norm)."""
    xd, qd, rd = _dense(x), _dense(q), _dense(r)
    if not (np.isfinite(qd).all() and np.isfinite(rd).all()):
        return float("nan")
    # One m-by-n buffer holds the scaled residual, then the scaled X.
    buf = np.matmul(qd, rd, out=np.empty_like(xd))
    np.subtract(xd, buf, out=buf)
    e_res = _binary_exponent(buf)
    np.ldexp(buf, -e_res, out=buf)
    lam_res = _lambda_max(buf.T @ buf)
    e_x = _binary_exponent(xd)
    np.ldexp(xd, -e_x, out=buf)
    lam_x = _lambda_max(buf.T @ buf)
    return math.ldexp(math.sqrt(lam_res / lam_x), e_res - e_x)


def rel_chol_res(x, r) -> float:
    """Relative Cholesky residual ||X^T X - R^T R|| / ||X||^2."""
    xd, rd = _dense(x), _dense(r)
    if not np.isfinite(rd).all():
        return float("nan")
    # X and R share one power-of-two scale, so the ratio needs no unscaling.
    e = _binary_exponent(xd)
    xs = np.ldexp(xd, -e)
    rs = np.ldexp(rd, -e)
    gram = xs.T @ xs
    return spectral_norm(gram - rs.T @ rs) / _lambda_max(gram)


@dataclass(frozen=True)
class BoundSpec:
    """Predicted stability envelope of one skeleton/muscle combination.

    ``theta`` controls applicability (``eps * kappa**theta <= 1/2``);
    ``loo_exponent`` is the power of kappa in the loss-of-orthogonality
    ceiling.  ``io_a_ok`` records whether the first-block muscle meets the
    strength premise of the corresponding theory; a violated premise makes
    the envelope inapplicable rather than wrong.  ``enforced`` is False for
    the diagnostic-only BCGS/BCGS-A envelopes.
    """

    skeleton: SkeletonKind
    theta: float
    loo_exponent: float
    io_a_ok: bool = True
    enforced: bool = True


def bound_for(
    kind: SkeletonKind | str,
    io_a: IOSpec,
    io1: IOSpec | None = None,
    io2: IOSpec | None = None,
    p: int | None = None,
) -> BoundSpec:
    """Envelope metadata for one combination.

    For the tied aliases pass the tied muscle in every slot it occupies
    (``io_a`` and ``io1`` for ``bcgs``; all three for ``bcgsi_plus``).
    ``p`` is only needed for the BCGS-family diagnostic exponent.
    """
    kind = SkeletonKind(kind)
    if kind in (SkeletonKind.BCGSI_PLUS, SkeletonKind.BCGSI_PLUS_A):
        if io1 is None:
            raise ValueError("reorthogonalized variants need io1")
        return BoundSpec(
            skeleton=kind,
            theta=max(io1.alpha, 1),
            loo_exponent=0.0,
            io_a_ok=(io_a.alpha == 0),
        )
    if kind is SkeletonKind.BCGSI_A_3S:
        if io1 is None:
            raise ValueError("the three-sync variant needs io1")
        a = io1.alpha
        return BoundSpec(
            skeleton=kind,
            theta=max(a + 1, 2),
            loo_exponent=max(a, 1),
            io_a_ok=(io_a.alpha <= a),
        )
    if kind in (SkeletonKind.BCGSI_A_2S, SkeletonKind.BCGSI_A_1S):
        return BoundSpec(
            skeleton=kind,
            theta=3.0,
            loo_exponent=2.0,
            io_a_ok=(io_a.alpha <= 2),
        )
    # Plain BCGS family: exponent grows with the block count; diagnostic
    # only — no known input attains it, so it is never enforced.
    if io1 is None:
        raise ValueError("the BCGS family needs io1")
    if p is None:
        raise ValueError("the BCGS family envelope needs the block count p")
    exponent = (p - 2) + max(io_a.alpha + 1, io1.alpha)
    return BoundSpec(
        skeleton=kind,
        theta=1.0,
        loo_exponent=float(exponent),
        io_a_ok=True,
        enforced=False,
    )


def bound_envelope(
    spec: BoundSpec, kappa: float, eps: float = EPS
) -> tuple[bool, float]:
    """Evaluate an envelope at a measured condition number.

    Returns ``(applicable, loo_bound)`` with
    ``applicable = io_a_ok and eps * kappa**theta <= 1/2`` and
    ``loo_bound = 100 * eps * kappa**loo_exponent``.  A non-finite kappa
    (unmeasurable conditioning) is never applicable.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    bound = C_TOL * eps * kappa**spec.loo_exponent
    if not spec.io_a_ok or not np.isfinite(kappa):
        return False, bound
    applicable = eps * kappa**spec.theta <= 0.5
    return bool(applicable), bound
