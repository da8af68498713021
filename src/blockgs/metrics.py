"""Stability metrics and theoretical bound envelopes.

Three spectral-norm measures summarize a factorization X ~ Q R:

* ``loo``           loss of orthogonality, ||I - Q^T Q||
* ``rel_res``       relative residual, ||X - Q R|| / ||X||, for an upper
                    triangular R
* ``rel_chol_res``  relative Cholesky residual, ||X^T X - R^T R|| / ||X||^2

No m-by-n matrix is handed to an SVD here.  The norm of a tall matrix A is
sqrt(lambda_max(A^T A)) of its n-by-n Gram matrix, after A is scaled by
the power of two that brings its largest entry into [1/2, 1): no finite
input overflows or underflows, power-of-two scaling of the inputs leaves
every ratio bit-identical, an exactly zero residual gives exactly 0.0, and
the value agrees with the SVD norm to about 1e-15 relative (1e-12 is the
tested tolerance).  The n-by-n quantities keep their SVD spectral norm.

Every measurement returns a float, NaN exactly when its value is
undefined: an empty input (no rows or no columns), a non-finite input (a
failed run), a Q^T Q, Q R, R^T R or ratio past the double range, or a zero
X under a relative residual (0/0).  None raises or warns for such a value,
nor does ``cond_2`` or ``syncs_per_block``.

The envelope the paper proves for a (skeleton, muscle choices, block
width) combination comes from the ``envelope`` of its skeleton's
:data:`~blockgs.skeletons.SKELETONS` entry, called with those muscles in
slot order and ``s``; it is None where no theorem covers the combination.
An envelope is an applicability condition of the form
``eps * kappa**theta <= 1/2`` plus a loss-of-orthogonality ceiling
``100 * eps * kappa**loo_exponent``, which :func:`bound_envelope`
evaluates at a measured condition number.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .blockcore import (
    BlockMatrix,
    _extrema,
    _finite_or_nan,
    all_finite,
    blas,
    spectral_norm,
)
from .skeletons import BoundSpec

__all__ = [
    "EPS",
    "C_TOL",
    "loo",
    "rel_res",
    "rel_chol_res",
    "ScaledGram",
    "scaled_gram",
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

    NaN when Q is empty, contains non-finite entries (failed run) or Q^T Q
    overflows.  Q's finiteness is read off Q^T Q: a non-finite entry of Q
    makes a diagonal entry of Q^T Q non-finite, and the norm of that is NaN.
    """
    qd = _dense(q)
    if qd.size == 0:
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        return spectral_norm(np.eye(qd.shape[1]) - qd.T @ qd)


class ScaledGram(NamedTuple):
    """X's statistics that both relative residuals share.

    ``exponent`` is the ``e`` that brings X's largest entry into [1/2, 1)
    after scaling by ``2**-e``, ``gram`` the Gram matrix of that scaled X
    and ``lam_max`` its largest eigenvalue (0.0 for an all-zero X).  For an
    empty or a non-finite X they are 0, a NaN matrix and NaN.
    """

    exponent: int
    gram: np.ndarray
    lam_max: float


def _scale_and_gram(a: np.ndarray, out: np.ndarray) -> ScaledGram:
    """:class:`ScaledGram` of ``a``, scaled into ``out`` (``a`` itself in
    place).  One read of ``a``'s extrema gives its exponent and finiteness;
    an empty or a non-finite ``a`` is neither scaled nor multiplied.  Scaled
    entries are below 1, so the Gram of finite data is finite.
    """
    hi, lo = _extrema(a)
    top = max(float(hi), -float(lo))
    n = a.shape[1]
    if a.size == 0 or not math.isfinite(top):
        return ScaledGram(0, np.full((n, n), math.nan), math.nan)
    e = math.frexp(top)[1]
    np.ldexp(a, -e, out=out)
    gram = out.T @ out
    return ScaledGram(e, gram, max(0.0, float(np.linalg.eigvalsh(gram)[-1])))


def scaled_gram(x) -> ScaledGram:
    """X's power-of-two scale, scaled Gram matrix and its largest eigenvalue.

    A sweep forms these once per matrix and hands them to :func:`rel_res`
    and :func:`rel_chol_res` for every run on it.  X is read once for its
    scale and finiteness, then scaled into a fresh copy; no Gram is formed
    for an empty or a non-finite X.
    """
    xd = _dense(x)
    return _scale_and_gram(xd, np.empty_like(xd))


def rel_res(
    x,
    q,
    r,
    x_gram: ScaledGram | None = None,
    *,
    overwrite_q: bool = False,
) -> float:
    """Relative residual ||X - Q R|| / ||X|| (spectral norm).

    R must be upper triangular; a non-zero entry below its diagonal raises
    ``ValueError``.  Q R (one BLAS ``trmm``) and then the residual are
    formed in one m-by-n buffer: a copy of Q, or with ``overwrite_q=True``
    a Fortran-ordered float64 Q's own storage, which is then destroyed.
    The residual is scaled in place by the power of two that one max/min
    read of it gives, with its finiteness, before its Gram is formed.
    ``x_gram`` is :func:`scaled_gram` of X, formed here when not given.
    NaN when R or the residual has non-finite entries (a failed run, or an
    overflow), when X is zero or when the ratio overflows.  A non-finite
    entry of Q makes the residual's entry in its place non-finite, since
    R's diagonal multiplies every column of Q, so Q is not scanned on its
    own.
    """
    xd, qd, rd = _dense(x), _dense(q), _dense(r)
    if not all_finite(rd):
        return float("nan")
    if np.tril(rd, -1).any():
        raise ValueError("R must be upper triangular")
    # The buffer is freed before scaled_gram, when called here, allocates
    # the scaled X.
    buf = blas.dtrmm(1.0, rd, qd, side=1, overwrite_b=overwrite_q)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(xd, buf, out=buf)
        e_res, _, lam_res = _scale_and_gram(buf, buf)
    del buf
    e_x, _, lam_x = scaled_gram(xd) if x_gram is None else x_gram
    if lam_x == 0.0:
        return float("nan")
    with np.errstate(over="ignore"):
        ratio = np.ldexp(math.sqrt(lam_res / lam_x), e_res - e_x)
    return _finite_or_nan(float(ratio))


def rel_chol_res(x, r, x_gram: ScaledGram | None = None) -> float:
    """Relative Cholesky residual ||X^T X - R^T R|| / ||X||^2.

    ``x_gram`` is :func:`scaled_gram` of X, formed here when not given.
    NaN when X or R has non-finite entries (failed run), when R^T R or the
    ratio overflows, or when X is zero.
    """
    rd = _dense(r)
    # X and R share one power-of-two scale, so the ratio needs no unscaling.
    e, gram, lam_x = scaled_gram(x) if x_gram is None else x_gram
    if lam_x == 0.0:
        return float("nan")
    rs = np.ldexp(rd, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        d = gram - rs.T @ rs
    return _finite_or_nan(spectral_norm(d) / lam_x)


def _pow(kappa: float, exponent: float) -> float:
    """``kappa**exponent``, infinite where it leaves the double range."""
    try:
        return math.pow(kappa, exponent)
    except OverflowError:
        return math.inf


def bound_envelope(spec: BoundSpec, kappa: float) -> tuple[bool, float]:
    """Evaluate an envelope at a measured condition number.

    Returns ``(applicable, loo_bound)`` with
    ``applicable = EPS * kappa**theta <= 1/2`` and
    ``loo_bound = 100 * EPS * kappa**loo_exponent``, infinite where the
    power overflows.  A non-finite kappa (unmeasurable conditioning) is
    never applicable.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    bound = C_TOL * EPS * _pow(kappa, spec.loo_exponent)
    applicable = math.isfinite(kappa) and EPS * _pow(kappa, spec.theta) <= 0.5
    return applicable, bound
