"""Fixtures shared by the test modules.

No test needs the OpenBLAS thread counts restored after it: the library's
sweeps, single runs and sync tables (the CLI's too) restore the counts they
pin when they return.  A module that calls the kernels or skeletons directly
and wants them on one thread, as a sweep runs them, asks for
``blas_on_one_thread``.
"""

import pytest

from blockgs import blockcore


def _set_threads(counts) -> None:
    for (_, set_threads), count in zip(blockcore._openblas_threads(), counts):
        set_threads(count)


def _counts() -> list[int]:
    return [get() for get, _ in blockcore._openblas_threads()]


@pytest.fixture(scope="module")
def blas_on_one_thread():
    """Every OpenBLAS on one thread, as a sweep runs it, for a module."""
    before = _counts()
    _set_threads([1] * len(before))
    yield
    _set_threads(before)
