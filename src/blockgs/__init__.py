"""blockgs: block Gram-Schmidt QR variants and a sweep harness.

The library splits a block QR factorization into a *skeleton* (the outer
loop over block columns, :mod:`blockgs.skeletons`) and a *muscle* (the inner
per-block orthonormalization, :mod:`blockgs.muscles`), instruments every run
with a ledger of simulated global reductions (:mod:`blockgs.syncmodel`),
measures stability (:mod:`blockgs.metrics`) on seeded test-matrix families
(:mod:`blockgs.matgen`), and drives condition-number sweeps from a CLI
(:mod:`blockgs.harness`).

The package exports every name in the ``__all__`` of the six library
modules, bound here at import, and the harness names below, which are
resolved on first use.
"""

from . import blockcore, matgen, metrics, muscles, skeletons, syncmodel

__version__ = "0.1.0"

_LIBRARY = {
    name: getattr(module, name)
    for module in (blockcore, matgen, metrics, muscles, skeletons, syncmodel)
    for name in module.__all__
}
globals().update(_LIBRARY)

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

__all__ = [*_LIBRARY, *_HARNESS_NAMES]


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
