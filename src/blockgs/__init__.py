"""blockgs: block Gram-Schmidt QR variants and a sweep harness.

The library splits a block QR factorization into a *skeleton* (the outer
loop over block columns, :mod:`blockgs.skeletons`) and a *muscle* (the inner
per-block orthonormalization, :mod:`blockgs.muscles`), instruments every run
with a ledger of simulated global reductions (:mod:`blockgs.syncmodel`),
measures stability (:mod:`blockgs.metrics`) on seeded test-matrix families
(:mod:`blockgs.matgen`), and drives condition-number sweeps from a CLI
(:mod:`blockgs.harness`).
"""

from .blockcore import (
    BlockMatrix,
    cond_2,
    spectral_norm,
    tri_solve_left_transposed,
    tri_solve_right,
)
from .matgen import (
    MatrixClassSpec,
    calibrate_piled,
    gen_default,
    gen_monomial,
    gen_piled,
    generate,
    load_bgsm,
    save_bgsm,
    svd_with_cond,
)
from .metrics import (
    C_TOL,
    EPS,
    BoundSpec,
    bound_envelope,
    bound_for,
    loo,
    rel_chol_res,
    rel_res,
)
from .muscles import (
    CHOL_QR,
    GIVENS_QR,
    HOUSE_QR,
    IO_BY_NAME,
    MGS,
    IOSpec,
    QROutput,
    apply_io,
    chol_free,
    chol_qr,
    givens_qr,
    house_qr,
    mgs_qr,
)
from .skeletons import (
    BGSResult,
    SkeletonKind,
    bcgs,
    bcgs_a,
    bcgsi_a_1s,
    bcgsi_a_2s,
    bcgsi_a_3s,
    bcgsi_plus,
    bcgsi_plus_a,
)
from .syncmodel import SyncEvent, SyncLedger, syncs_per_block

__version__ = "0.1.0"

# The harness is imported on first use, not here: ``python -m
# blockgs.harness`` imports this package before it runs the harness as
# ``__main__``, and an eager import would load a second copy of it.
_HARNESS_NAMES = (
    "Combo",
    "ConfigError",
    "RunRecord",
    "SweepConfig",
    "check_bounds",
    "make_combo",
    "run_single",
    "run_sweep",
    "sync_table",
    "write_csv",
)


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BGSResult",
    "BlockMatrix",
    "BoundSpec",
    "C_TOL",
    "CHOL_QR",
    "Combo",
    "ConfigError",
    "EPS",
    "GIVENS_QR",
    "HOUSE_QR",
    "IO_BY_NAME",
    "IOSpec",
    "MGS",
    "MatrixClassSpec",
    "QROutput",
    "RunRecord",
    "SkeletonKind",
    "SweepConfig",
    "SyncEvent",
    "SyncLedger",
    "apply_io",
    "bcgs",
    "bcgs_a",
    "bcgsi_a_1s",
    "bcgsi_a_2s",
    "bcgsi_a_3s",
    "bcgsi_plus",
    "bcgsi_plus_a",
    "bound_envelope",
    "bound_for",
    "calibrate_piled",
    "check_bounds",
    "chol_free",
    "chol_qr",
    "cond_2",
    "gen_default",
    "gen_monomial",
    "gen_piled",
    "generate",
    "givens_qr",
    "house_qr",
    "load_bgsm",
    "loo",
    "make_combo",
    "mgs_qr",
    "rel_chol_res",
    "rel_res",
    "run_single",
    "run_sweep",
    "save_bgsm",
    "spectral_norm",
    "svd_with_cond",
    "sync_table",
    "syncs_per_block",
    "tri_solve_left_transposed",
    "tri_solve_right",
    "write_csv",
]
