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
so sweep curves can simply terminate the way failed runs do.  The relative
residuals of an all-zero X are NaN too: 0/0 has no relative size.

:func:`bound_for` looks up the envelope a (skeleton, muscle choices)
combination's theory predicts; each envelope lives in its skeleton's
:data:`~blockgs.skeletons.SKELETONS` entry.  An envelope is an
applicability condition of the form ``eps * kappa**theta <= 1/2`` plus a
loss-of-orthogonality ceiling ``100 * eps * kappa**loo_exponent``, which
:func:`bound_envelope` evaluates at a measured condition number.
"""

from __future__ import annotations

import math

import numpy as np

from .blockcore import BlockMatrix, spectral_norm
from .muscles import IOSpec
from .skeletons import SKELETONS, BoundSpec, SkeletonKind

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
    """Relative residual ||X - Q R|| / ||X|| (spectral norm).

    NaN when Q or R has non-finite entries (failed run) or X is zero.
    """
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
    if lam_x == 0.0:
        return float("nan")
    return math.ldexp(math.sqrt(lam_res / lam_x), e_res - e_x)


def rel_chol_res(x, r) -> float:
    """Relative Cholesky residual ||X^T X - R^T R|| / ||X||^2.

    NaN when R has non-finite entries (failed run) or X is zero.
    """
    xd, rd = _dense(x), _dense(r)
    if not np.isfinite(rd).all():
        return float("nan")
    # X and R share one power-of-two scale, so the ratio needs no unscaling.
    e = _binary_exponent(xd)
    xs = np.ldexp(xd, -e)
    rs = np.ldexp(rd, -e)
    gram = xs.T @ xs
    lam_x = _lambda_max(gram)
    if lam_x == 0.0:
        return float("nan")
    return spectral_norm(gram - rs.T @ rs) / lam_x


def bound_for(
    kind: SkeletonKind | str,
    io_a: IOSpec,
    io1: IOSpec | None = None,
    io2: IOSpec | None = None,
    p: int | None = None,
) -> BoundSpec:
    """The envelope of one combination, read from its ``SKELETONS`` entry.

    Every muscle slot the skeleton consumes must be given; for the tied
    aliases pass the tied muscle in each (``io_a`` and ``io1`` for
    ``bcgs``; all three for ``bcgsi_plus``).  ``p`` is only needed for the
    BCGS-family diagnostic exponent.
    """
    kind = SkeletonKind(kind)
    spec = SKELETONS[kind]
    given = {"io_a": io_a, "io1": io1, "io2": io2}
    muscles = [given[slot] for slot in spec.slots]
    for slot, io in zip(spec.slots, muscles):
        if io is None:
            raise ValueError(f"the {spec.display} envelope needs {slot}")
    return spec.envelope(kind, *muscles, p=p)


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
