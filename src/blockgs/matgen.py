"""Seeded generators for the three conditioning-controlled matrix families.

All randomness flows through the Philox (4x64-10) counter-based generator,
so a (family, dimensions, seed) triple pins down the matrix bit for bit.
Uniform variates are 53-bit integer draws mapped into (0, 1); Gaussian
variates are their inverse normal CDF, with no rejection sampling.

Families
--------
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
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .blockcore import BlockMatrix, cond_2
from .muscles import house_qr

__all__ = [
    "MatrixClassSpec",
    "SEED_LIMIT",
    "make_rng",
    "uniform_open",
    "standard_normal",
    "svd_with_cond",
    "gen_default",
    "gen_monomial",
    "gen_piled",
    "calibrate_piled",
    "generate",
    "save_bgsm",
    "load_bgsm",
    "save_matrix_market",
    "load_matrix_market",
]

_TWO53 = float(1 << 53)

# Philox takes a 128-bit key: seeds are the integers in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 128

# Piled calibration bisects log10(kappa_z) on [0, CALIBRATION_MAX_LOG_KZ]
# in CALIBRATION_STEPS steps.
CALIBRATION_MAX_LOG_KZ = 16.0
CALIBRATION_STEPS = 40

# Condition number of the piled family's first block X_1, a fixed choice
# of the family as in the BlockStab toolbox.
PILED_KAPPA_X1 = 10.0


def make_rng(seed: int) -> np.random.Generator:
    """Philox-keyed generator; the sole randomness source of this module.

    Raises ``ValueError`` unless ``0 <= seed < 2**128``.
    """
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform variates in the open interval (0, 1) with 53-bit resolution."""
    u = rng.integers(1, 1 << 53, size=size, dtype=np.int64).astype(np.float64)
    u /= _TWO53
    return u


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates via the inverse CDF of uniform draws."""
    u = uniform_open(rng, size)
    return ndtri(u, out=u)


@dataclass(frozen=True)
class MatrixClassSpec:
    """Full description of one generated matrix.

    ``kappa`` is the target condition number for the default family;
    ``t`` is the monomial panel length (must divide p*s, the number of
    panels is then r = p*s/t); ``kappa_z`` is the piled knob.  Unused
    parameters may stay at their defaults.
    """

    matrix_class: str
    m: int
    p: int
    s: int
    seed: int
    kappa: float | None = None
    t: int | None = None
    kappa_z: float | None = None

    def __post_init__(self) -> None:
        if self.matrix_class not in MATRIX_CLASSES:
            raise ValueError(f"unknown matrix class {self.matrix_class!r}")
        if self.m < self.p * self.s:
            raise ValueError("matrix must be tall: m >= p*s")
        if self.p < 1 or self.s < 1:
            raise ValueError("need p >= 1 and s >= 1")


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = standard_normal(rng, (rows, cols))
    return house_qr(g).q


def _check_kappa(kappa: float, name: str = "kappa") -> None:
    if not kappa >= 1.0 or not math.isfinite(kappa):
        raise ValueError(f"{name} must be >= 1 and finite")


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


def _compose(
    u: np.ndarray, v: np.ndarray, sigma: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """U diag(sigma) V^T, written into the caller's fresh column-major
    ``out``.

    U is scaled by sigma in its own storage, so it must be the caller's to
    overwrite; no third tall array is made.
    """
    return np.matmul(np.multiply(u, sigma, out=u), v.T, out=out)


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
    _check_kappa(kappa)
    # X's storage is taken before the factors', so theirs, freed on return,
    # leaves no X-sized hole below X in the heap.  cond_2's SVD copy of X
    # is a few KB larger than such a hole; when it does not fit, it takes
    # fresh memory while the hole stays resident, one X more at the peak.
    out = np.empty((rows, cols), order="F")
    u, v = _svd_factors(rng, rows, cols)
    return _compose(u, v, _log_sigma(kappa, cols), out)


def gen_default(spec: MatrixClassSpec) -> BlockMatrix:
    """Explicit-SVD family: cond_2 lands within a factor ~2 of the target."""
    if spec.kappa is None:
        raise ValueError("default class needs a kappa target")
    x = svd_with_cond(
        spec.m, spec.p * spec.s, spec.kappa, rng=make_rng(spec.seed)
    )
    return BlockMatrix(x, spec.s, spec.p)


def gen_monomial(spec: MatrixClassSpec) -> BlockMatrix:
    """Krylov-panel family.

    With n = p*s columns and panel length t (sweep index j maps to the j-th
    smallest divisor t of n, with r = n/t panels), the matrix is the
    concatenation of r panels [v_i, A v_i, ..., A^(t-1) v_i] re-partitioned
    into p blocks of width s.  A is diagonal with m eigenvalues evenly
    distributed strictly inside (0.1, 10); the v_i are independent uniform
    [-1, 1]^m vectors normalized to unit 2-norm.
    """
    t = spec.t
    if t is None or t < 1:
        raise ValueError("monomial class needs a panel length t >= 1")
    n = spec.p * spec.s
    if n % t != 0:
        raise ValueError(f"panel length {t} must divide p*s = {n}")
    r_panels = n // t
    rng = make_rng(spec.seed)
    lam = np.linspace(0.1, 10.0, spec.m + 2)[1:-1]
    cols = np.empty((spec.m, n), order="F")
    j = 0
    for _ in range(r_panels):
        v = 2.0 * uniform_open(rng, spec.m) - 1.0
        v /= np.linalg.norm(v)
        for _ in range(t):
            cols[:, j] = v
            v = lam * v
            j += 1
    return BlockMatrix(cols, spec.s, spec.p)


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


def gen_piled(spec: MatrixClassSpec) -> BlockMatrix:
    """Cumulative-sum family X_k = X_{k-1} + Z_k.

    X_1 has condition number ``PILED_KAPPA_X1`` and unit spectral norm; every
    increment Z_k = U_k diag(sigma) V_k^T / kappa_z has condition number
    ``kappa_z`` and spectral norm 1/kappa_z.  X_1, U_k and V_k do not depend
    on ``kappa_z``: the last such set is cached (about one matrix of
    memory), bit-identical to a fresh draw.
    """
    if spec.kappa_z is None:
        raise ValueError("piled class needs a kappa_z knob")
    _check_kappa(spec.kappa_z, "kappa knobs")
    m, p, s = spec.m, spec.p, spec.s
    x1, pairs = _piled_factors(m, p, s, spec.seed)
    # Column-major, so BlockMatrix takes the array without copying it.
    out = np.empty((m, p * s), order="F")
    out[:, :s] = x1
    sigma = _log_sigma(spec.kappa_z, s)
    for k, (u, v) in enumerate(pairs, start=1):
        # np.array keeps U_k's column-major layout, and with it the bits.
        u = np.array(u)
        z = _compose(u, v, sigma, np.empty_like(u)) / spec.kappa_z
        np.add(out[:, (k - 1) * s : k * s], z, out=out[:, k * s : (k + 1) * s])
    return BlockMatrix(out, s, p)


def calibrate_piled(
    m: int, p: int, s: int, kappa_target: float, seed: int
) -> tuple[MatrixClassSpec, float]:
    """Find the kappa_z knob whose generated matrix measures near a target.

    Bisects log10(kappa_z) on [0, ``CALIBRATION_MAX_LOG_KZ``] in
    ``CALIBRATION_STEPS`` steps against the measured cond_2 (inf when
    singular) of each probe.  Returns the spec and measured condition
    number nearest the target in log10, or an end probe's when the target
    lies outside their range; callers decide how far off is acceptable.
    Raises ``ValueError`` unless ``kappa_target`` is finite and >= 1.
    """
    _check_kappa(kappa_target)

    def measure(log_kz: float) -> tuple[MatrixClassSpec, float]:
        spec = MatrixClassSpec("piled", m, p, s, seed, kappa_z=10.0**log_kz)
        x = gen_piled(spec)
        try:
            return spec, cond_2(x.data)
        except ValueError:
            return spec, np.inf

    target = np.log10(kappa_target)
    lo, hi = 0.0, CALIBRATION_MAX_LOG_KZ
    spec_lo, kappa_lo = measure(lo)
    spec_hi, kappa_hi = measure(hi)
    if target <= np.log10(kappa_lo):
        return spec_lo, kappa_lo
    if target >= np.log10(kappa_hi):
        return spec_hi, kappa_hi
    best, best_kappa = spec_lo, kappa_lo
    for _ in range(CALIBRATION_STEPS):
        mid = (lo + hi) / 2.0
        spec_mid, kappa_mid = measure(mid)
        if abs(np.log10(kappa_mid) - target) < abs(
            np.log10(best_kappa) - target
        ):
            best, best_kappa = spec_mid, kappa_mid
        if np.log10(kappa_mid) < target:
            lo = mid
        else:
            hi = mid
    return best, best_kappa


_GENERATORS = {
    "monomial": gen_monomial,
    "piled": gen_piled,
    "default": gen_default,
}
MATRIX_CLASSES = tuple(_GENERATORS)


def generate(spec: MatrixClassSpec) -> BlockMatrix:
    """Dispatch to the family named by ``spec.matrix_class``."""
    return _GENERATORS[spec.matrix_class](spec)


# ---------------------------------------------------------------------------
# Interop formats
# ---------------------------------------------------------------------------

_BGSM_MAGIC = b"BGSM"


def save_bgsm(path, a) -> None:
    """Write a matrix in the BGSM binary format.

    Layout: magic bytes ``BGSM``, two little-endian u64 (rows, cols), then
    rows*cols little-endian float64 values in column-major order.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("BGSM stores 2-d matrices only")
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(_BGSM_MAGIC)
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(np.asfortranarray(a, dtype="<f8").tobytes(order="F"))


def load_bgsm(path) -> np.ndarray:
    """Read a matrix written by :func:`save_bgsm`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BGSM_MAGIC:
            raise ValueError(f"{path}: not a BGSM file")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise ValueError(f"{path}: truncated BGSM payload")
    data = np.frombuffer(payload, dtype="<f8")
    return data.reshape((rows, cols), order="F").copy(order="F")


def save_matrix_market(path, a) -> None:
    """Write dense MatrixMarket array text (interop with other toolchains)."""
    import scipy.io  # not at module level: no sweep reads MatrixMarket

    scipy.io.mmwrite(str(path), np.asarray(a, dtype=np.float64))


def load_matrix_market(path) -> np.ndarray:
    """Read a dense MatrixMarket array file."""
    import scipy.io

    return np.asarray(scipy.io.mmread(str(path)), dtype=np.float64)
