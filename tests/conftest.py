"""Fixtures shared by the test modules.

Every test runs between a snapshot of the OpenBLAS thread counts and
``blockcore._blas_pinned`` and their restoration: a test that runs
``harness.cli_main`` in-process, which sets both for the rest of the
process, leaves later tests the library's default of the host's BLAS
threads.
"""

import ctypes

import pytest

from blockgs import blockcore

_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _set_threads(found, counts) -> None:
    for (_, set_threads), count in zip(found, counts):
        set_threads(count)


@pytest.fixture(scope="session")
def openblas_threads():
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process (none where the memory map cannot be read)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1] for line in fh if "openblas" in line.lower()
            }
    except OSError:
        paths = set()
    found = []
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for get, set_ in _THREAD_SYMBOLS:
            if hasattr(lib, get):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                found.append((getter, setter))
                break
    return found


@pytest.fixture(scope="module")
def blas_on_one_thread(openblas_threads):
    """Every OpenBLAS on one thread, as the CLI runs it, for a module."""
    before = [get() for get, _ in openblas_threads]
    _set_threads(openblas_threads, [1] * len(openblas_threads))
    yield
    _set_threads(openblas_threads, before)


@pytest.fixture(autouse=True)
def _restore_blas_state(openblas_threads):
    counts = [get() for get, _ in openblas_threads]
    pinned = blockcore._blas_pinned
    yield
    _set_threads(openblas_threads, counts)
    blockcore._blas_pinned = pinned
