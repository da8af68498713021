"""blockgs: block Gram-Schmidt QR variants and a sweep harness.

The library splits a block QR factorization into a *skeleton* (the outer
loop over block columns, :mod:`blockgs.skeletons`) and a *muscle* (the inner
per-block orthonormalization, :mod:`blockgs.muscles`), instruments every run
with a ledger of simulated global reductions (:mod:`blockgs.syncmodel`),
measures stability (:mod:`blockgs.metrics`) on seeded test-matrix families
(:mod:`blockgs.matgen`), and drives condition-number sweeps from a CLI
(:mod:`blockgs.harness`).

The package exports every name in the ``__all__`` of its seven modules.
"""

from . import blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel

__version__ = "0.1.0"

_MODULES = (blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel)
__all__ = [name for module in _MODULES for name in module.__all__]
globals().update(
    (name, getattr(module, name)) for module in _MODULES for name in module.__all__
)
