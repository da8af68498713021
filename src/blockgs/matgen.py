"""Seeded generators for the three conditioning-controlled matrix families.

All randomness flows through the Philox (4x64-10) counter-based generator,
so a (family, dimensions, seed) triple pins down the matrix bit for bit.
Uniform variates are 53-bit integer draws mapped into (0, 1); Gaussian
variates are their inverse normal CDF, with no rejection sampling.

Families
--------
Each generator takes (m, p, s, seed) and one knob, and raises ``ValueError``
on a shape :func:`~blockgs.blockcore.check_partition` rejects, a seed
:func:`make_rng` rejects or a kappa knob :func:`check_kappa` rejects.

monomial
    Krylov-style panels [v, A v, ..., A^(t-1) v] for a fixed diagonal A with
    evenly distributed eigenvalues in (0.1, 10); conditioning grows with the
    panel length t.
piled
    A cumulative-sum family: X_1 plus increasingly similar blocks
    X_k = X_{k-1} + Z_k, where every increment Z_k has the same prescribed
    condition number and shrinking spectral norm 1/kappa_z; conditioning
    grows as the increments shrink.
default
    An explicit SVD with log-spaced singular values from 1 down to
    1/kappa_target.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blockcore import (
    BlockMatrix,
    _scipy_extension,
    check_partition,
    cond_2,
)
from .muscles import house_qr

__all__ = [
    "SEED_LIMIT",
    "make_rng",
    "check_kappa",
    "uniform_open",
    "standard_normal",
    "svd_with_cond",
    "gen_default",
    "gen_monomial",
    "gen_piled",
    "calibrate_piled",
]

_TWO53 = float(1 << 53)

# The standard normal inverse CDF, scipy.special.ndtri.
ndtri = _scipy_extension("scipy.special", "_ufuncs").ndtri

# Philox takes a 128-bit key: seeds are the integers in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 128

# Piled calibration bisects log10(kappa_z) on [0, CALIBRATION_MAX_LOG_KZ]
# in CALIBRATION_STEPS steps.
CALIBRATION_MAX_LOG_KZ = 16.0
CALIBRATION_STEPS = 40

# Condition number of the piled family's first block X_1, a fixed choice
# of the family as in the BlockStab toolbox.
PILED_KAPPA_X1 = 10.0

# The family names, in the order the CLI lists them.
MATRIX_CLASSES = ("monomial", "piled", "default")


def make_rng(seed: int) -> np.random.Generator:
    """Philox-keyed generator; the sole randomness source of this module.

    Raises ``ValueError`` unless ``0 <= seed < 2**128``.
    """
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def check_kappa(kappa: float, name: str = "kappa") -> None:
    """Raise ``ValueError`` unless ``kappa`` (called ``name``) is finite and
    >= 1."""
    if not kappa >= 1.0 or not math.isfinite(kappa):
        raise ValueError(f"{name} must be finite and >= 1, got {kappa}")


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform variates in the open interval (0, 1) with 53-bit resolution."""
    u = rng.integers(1, 1 << 53, size=size, dtype=np.int64).astype(np.float64)
    u /= _TWO53
    return u


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates via the inverse CDF of uniform draws."""
    u = uniform_open(rng, size)
    return ndtri(u, out=u)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = standard_normal(rng, (rows, cols))
    return house_qr(g).q


def _svd_factors(
    rng: np.random.Generator, rows: int, cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the orthonormal factors U (rows×cols) and V (cols×cols), U first."""
    u = _orthonormal_columns(rng, rows, cols)
    v = _orthonormal_columns(rng, cols, cols)
    return u, v


def _log_sigma(kappa: float, cols: int) -> np.ndarray:
    """Singular values log-spaced from 1 down to 1/kappa."""
    return np.logspace(0.0, -np.log10(kappa), cols)


def svd_with_cond(
    rows: int,
    cols: int,
    kappa: float,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Matrix with prescribed log-spaced singular values, largest = 1.

    Built as U diag(sigma) V^T with U, V drawn from ``rng`` as QR factors
    of Gaussian matrices and sigma log-spaced from 1 down to 1/kappa.
    ``kappa`` must be finite and >= 1.
    """
    if rows < cols:
        raise ValueError("matrix must be tall: rows >= cols")
    check_kappa(kappa)
    # X's storage is taken before the factors', so theirs, freed on return,
    # leaves no X-sized hole below X in the heap.  cond_2's SVD copy of X
    # is a few KB larger than such a hole; when it does not fit, it takes
    # fresh memory while the hole stays resident, one X more at the peak.
    out = np.empty((rows, cols), order="F")
    u, v = _svd_factors(rng, rows, cols)
    # U is this call's own, so sigma scales it in place: no third tall array.
    sigma = _log_sigma(kappa, cols)
    return np.matmul(np.multiply(u, sigma, out=u), v.T, out=out)


def gen_default(
    m: int, p: int, s: int, seed: int, *, kappa: float
) -> BlockMatrix:
    """Explicit-SVD family: cond_2 lands within a factor ~2 of ``kappa``."""
    check_partition(m, p, s)
    x = svd_with_cond(m, p * s, kappa, rng=make_rng(seed))
    return BlockMatrix(x, s, p)


def gen_monomial(
    m: int, p: int, s: int, seed: int, *, t: int
) -> BlockMatrix:
    """Krylov-panel family.

    With n = p*s columns and panel length t, a divisor of n, the matrix is
    the concatenation of r = n/t panels [v_i, A v_i, ..., A^(t-1) v_i]
    re-partitioned into p blocks of width s.  A sweep walks every divisor
    of n once, and each kappa target gets the rung nearest in log10 kappa;
    a tie keeps the earlier rung.  A is diagonal with m eigenvalues evenly
    distributed strictly inside (0.1, 10); the v_i are independent uniform
    [-1, 1]^m vectors normalized to unit 2-norm.  A long panel may overflow
    to inf: that is data, not an error.
    """
    check_partition(m, p, s)
    if t < 1:
        raise ValueError("monomial class needs a panel length t >= 1")
    n = p * s
    if n % t != 0:
        raise ValueError(f"panel length {t} must divide p*s = {n}")
    rng = make_rng(seed)
    lam = np.linspace(0.1, 10.0, m + 2)[1:-1]
    cols = np.empty((m, n), order="F")
    j = 0
    with np.errstate(over="ignore"):
        for _ in range(n // t):
            v = 2.0 * uniform_open(rng, m) - 1.0
            v /= np.linalg.norm(v)
            for _ in range(t):
                cols[:, j] = v
                v = lam * v
                j += 1
    return BlockMatrix(cols, s, p)


@functools.lru_cache(maxsize=1)
def _piled_factors(
    m: int, p: int, s: int, seed: int
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """X_1 and the p-1 factor pairs (U_k, V_k) of the piled increments,
    drawn from the seed's stream in the order the matrix uses them and
    returned read-only, since every caller of the cache shares them."""
    rng = make_rng(seed)
    x1 = svd_with_cond(m, s, PILED_KAPPA_X1, rng=rng)
    pairs = tuple(_svd_factors(rng, m, s) for _ in range(p - 1))
    for a in (x1, *(f for pair in pairs for f in pair)):
        a.setflags(write=False)
    return x1, pairs


def gen_piled(
    m: int, p: int, s: int, seed: int, *, kappa_z: float
) -> BlockMatrix:
    """Cumulative-sum family X_k = X_{k-1} + Z_k.

    X_1 has condition number ``PILED_KAPPA_X1`` and unit spectral norm; every
    increment Z_k = U_k diag(sigma) V_k^T / kappa_z has condition number
    ``kappa_z`` and spectral norm 1/kappa_z.  X_1, U_k and V_k do not depend
    on ``kappa_z``: the last such set is cached (about one matrix of
    memory), bit-identical to a fresh draw.
    """
    check_partition(m, p, s)
    check_kappa(kappa_z, "kappa knobs")
    x1, pairs = _piled_factors(m, p, s, seed)
    # Column-major, so BlockMatrix takes the array without copying it.
    out = np.empty((m, p * s), order="F")
    out[:, :s] = x1
    sigma = _log_sigma(kappa_z, s)
    for k, (u, v) in enumerate(pairs, start=1):
        z = np.matmul(u * sigma, v.T, out=np.empty_like(u))
        z /= kappa_z
        np.add(out[:, (k - 1) * s : k * s], z, out=out[:, k * s : (k + 1) * s])
    return BlockMatrix(out, s, p)


def calibrate_piled(
    m: int, p: int, s: int, kappa_target: float, seed: int
) -> tuple[float, float]:
    """Find the kappa_z knob whose generated matrix measures near a target.

    Bisects log10(kappa_z) on [0, ``CALIBRATION_MAX_LOG_KZ``] in
    ``CALIBRATION_STEPS`` steps against the measured cond_2 of each probe;
    an unmeasurable probe (NaN) counts as above every target.  Returns
    ``(kappa_z, measured)``, the knob and measured condition number nearest
    the target in log10, or an end probe's when the target lies outside
    their range; callers decide how far off is acceptable.  Raises
    ``ValueError`` unless ``kappa_target`` is finite and >= 1.
    """
    check_kappa(kappa_target)

    def measure(log_kz: float) -> tuple[float, float]:
        kappa_z = 10.0**log_kz
        # gen_piled is read from the module at call time, so a rebound one
        # sees every probe.
        x = gen_piled(m, p, s, seed, kappa_z=kappa_z)
        return kappa_z, cond_2(x.data)

    target = np.log10(kappa_target)
    lo, hi = 0.0, CALIBRATION_MAX_LOG_KZ
    kz_lo, kappa_lo = measure(lo)
    kz_hi, kappa_hi = measure(hi)
    # Each comparison sends a NaN kappa the way of one above the target.
    if not target > np.log10(kappa_lo):
        return kz_lo, kappa_lo
    if target >= np.log10(kappa_hi):
        return kz_hi, kappa_hi
    best, best_kappa = kz_lo, kappa_lo
    for _ in range(CALIBRATION_STEPS):
        mid = (lo + hi) / 2.0
        kz_mid, kappa_mid = measure(mid)
        if abs(np.log10(kappa_mid) - target) < abs(
            np.log10(best_kappa) - target
        ):
            best, best_kappa = kz_mid, kappa_mid
        if np.log10(kappa_mid) < target:
            lo = mid
        else:
            hi = mid
    return best, best_kappa
