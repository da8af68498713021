"""Fixtures shared by the test modules.

Every test runs between a snapshot of the OpenBLAS thread counts and their
restoration: a test that runs ``harness.cli_main`` in-process, which sets
every count to one for the rest of the process, leaves later tests the
library's default of the host's BLAS threads.
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
    """Every OpenBLAS on one thread, as the CLI runs it, for a module."""
    before = _counts()
    _set_threads([1] * len(before))
    yield
    _set_threads(before)


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    counts = _counts()
    yield
    _set_threads(counts)
