"""Tall passes split into panels: bit for bit one call, and only where they
pay.

Panel counts are forced by replacing ``blockcore._cores`` and zeroing the
byte thresholds, as ``test_muscles.py`` does with ``_GIVENS_SLACK``; the
product floor ``_PANEL_MIN_WORK`` stays, since below it BLAS takes another
kernel.  The checks that start or fork a pool run in a fresh interpreter
with a timeout, so a deadlock fails rather than hangs.
"""

import contextlib
import math
import re
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockgs import blockcore
from blockgs.blockcore import all_finite, project_out
from blockgs.harness import SweepConfig, make_combo, run_sweep, write_csv
from blockgs.matgen import make_rng, standard_normal
from blockgs.metrics import rel_res, scaled_gram
from blockgs.syncmodel import SyncLedger


# Products are split only while BLAS runs on one thread, as in a sweep.
pytestmark = pytest.mark.usefixtures("blas_on_one_thread")


class _CountingPool:
    """A panel pool that counts the panels handed to it."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(3)
        self.submitted = 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


@contextlib.contextmanager
def _panels_forced(k, panel_bytes=0):
    """Every pass splits into up to ``k`` panels (one core: none), as far as
    its grain and the product floor allow, and an elementwise pass once it
    holds ``panel_bytes``; yields the counting pool."""
    pool = _CountingPool()
    try:
        with mock.patch.multiple(
            blockcore,
            _cores=lambda: k,
            PANEL_BYTES=panel_bytes,
            REDUCE_PANEL_BYTES=0,
            _pool=pool,
            _blas_on_one_thread=lambda: True,
        ):
            yield pool
    finally:
        pool.pool.shutdown()


def _same(a, b) -> bool:
    """Byte-for-byte equality of two results: arrays, floats, ints or
    bools, or tuples of them.  NaN payloads and the signs of zeros count."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (bool, int)):
        return type(a) is type(b) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.strides == b.strides
        and a.tobytes() == b.tobytes()
    )


_POISON = st.sampled_from([None, math.nan, math.inf, -math.inf])


@st.composite
def _tall_cases(draw):
    m = draw(st.integers(1024, 3072))
    n = draw(st.integers(64, 192))
    s = draw(st.integers(1, 32))
    poison = draw(_POISON)
    where = (draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)))
    return m, n, s, poison, where, draw(st.integers(0, 2**32 - 1))


def _sites(m, n, s, poison, where, seed):
    """Each panelled site on one case, and whether it splits when more than
    one core is forced: a product needs two panels of the product floor,
    and a deflation at least four grains of rows."""
    rng = np.random.default_rng(seed)
    q = np.asfortranarray(rng.standard_normal((m, n)))
    x = np.asfortranarray(rng.standard_normal((m, n)))
    xk = np.asfortranarray(rng.standard_normal((m, s)))
    c = rng.standard_normal((n, s))
    r = np.triu(rng.standard_normal((n, n)))
    if poison is not None:
        q[where] = poison
    qc = np.ascontiguousarray(q)
    x_gram = scaled_gram(x)
    product = m * n * s >= 2 * blockcore._PANEL_MIN_WORK
    return {
        "project_out": (
            lambda: project_out(xk, q, c),
            product and m >= 4 * blockcore._PROJECT_GRAIN,
        ),
        "reduce": (lambda: SyncLedger().reduce(1, "proj", q, xk), product),
        "all_finite": (lambda: all_finite(q), True),
        "all_finite, C order": (lambda: all_finite(qc), True),
        "_extrema": (lambda: blockcore._extrema(q), True),
        "_extrema, C order": (lambda: blockcore._extrema(qc), True),
        "rel_res": (lambda: rel_res(x, q, r, x_gram), True),
        "scaled_gram": (lambda: tuple(scaled_gram(q)), True),
        "standard_normal": (
            lambda: standard_normal(make_rng(seed), (m, n)),
            True,
        ),
    }


@example(case=(3072, 192, 32, math.nan, (3000, 150), 1), k=2)
@example(case=(3072, 192, 32, math.nan, (3000, 190), 1), k=4)
@example(case=(2048, 96, 24, -math.inf, (5, 80), 2), k=3)
# Row panels whose bounds are not multiples of the kernels' row blocking
# move the bits of the rows at their edges.
@example(case=(1100, 192, 40, None, (0, 0), 3), k=3)
@example(case=(1540, 192, 32, math.inf, (1539, 191), 4), k=4)
# A last row panel of at most one OpenBLAS row block (192 rows) forms its
# trailing rows with another kernel than the whole product does.
@example(case=(772, 192, 64, None, (0, 0), 5), k=4)
@given(case=_tall_cases(), k=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_panelled_sites_equal_one_call_byte_for_byte(case, k):
    # Python's max over per-panel maxima that hold a NaN depends on their
    # order; a NaN or an infinity in any one panel must read as it does in
    # one call.
    m, n, s, poison, where, seed = case
    with np.errstate(over="ignore", invalid="ignore"):
        sites = _sites(*case)
        for name, (site, splits) in sites.items():
            with _panels_forced(1):
                want = site()
            with _panels_forced(k) as pool:
                got = site()
            assert _same(want, got), name
            if k == 1:
                assert pool.submitted == 0, name
            elif splits:
                assert pool.submitted >= 1, name


def test_a_sweep_writes_the_same_csv_with_panels_forced_on_and_off(tmp_path):
    # 3072x192 in blocks of 24 columns: from the fourth block on, every
    # deflation and reduction is split at k = 3.
    combos = tuple(
        make_combo(kind)
        for kind in ("bcgs", "bcgsi_plus_a", "bcgsi_a_3s", "bcgsi_a_2s", "1s")
    )
    config = SweepConfig(
        matrix_class="default", combos=combos, kappas=(1e4, 1e10),
        m=3072, p=8, s=24, seed=7,
    )
    with _panels_forced(1):
        write_csv(run_sweep(config), tmp_path / "whole.csv")
    with _panels_forced(3) as pool:
        write_csv(run_sweep(config), tmp_path / "panels.csv")
    assert pool.submitted > 100
    whole = (tmp_path / "whole.csv").read_bytes()
    assert whole == (tmp_path / "panels.csv").read_bytes()


def _run_script(body):
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")


def test_sweeps_shaped_like_the_small_workloads_never_use_the_pool():
    # Every operand of a 1000x100 piled sweep or a 100x50 muscle grid is
    # below the thresholds, so on any core count no pass is split and no
    # panel's hand-off is paid.
    _run_script("""
        import os
        from blockgs import blockcore
        from blockgs.harness import SweepConfig, make_combo, run_sweep
        from blockgs.muscles import IO_BY_NAME
        from blockgs.skeletons import SkeletonKind

        class RefusingPool:
            def submit(self, *args):
                os._exit(3)

        blockcore._pool = RefusingPool()
        blockcore._cores = lambda: 4
        blockcore._blas_on_one_thread = lambda: True
        combos = tuple(make_combo(kind) for kind in SkeletonKind)
        run_sweep(SweepConfig(matrix_class="piled", combos=combos,
                              kappas=(1e4, 1e10), m=1000, p=20, s=5))
        for io in IO_BY_NAME.values():
            combos = tuple(make_combo(kind, io, io, io) for kind in SkeletonKind)
            for matrix in ("default", "monomial"):
                run_sweep(SweepConfig(matrix_class=matrix, combos=combos,
                                      kappas=(1e1, 1e14), m=100, p=10, s=5))
        print("ok")
    """)


_STARTED_POOL = """
    import os
    import numpy as np
    from blockgs import blockcore

    blockcore._cores = lambda: 2
    a = np.ones((1000, 1100), order="F")
    a[-1, -1] = np.nan
    assert not blockcore.all_finite(a)
    assert blockcore._pool is not None
"""


def test_a_child_forked_after_the_pool_started_splits_with_its_own_pool():
    # The child has none of the pool's threads; it makes a pool of its own
    # and splits as its parent does.  A child that hangs is killed.
    _run_script(_STARTED_POOL + """
    import signal
    import time
    pid = os.fork()
    if pid == 0:
        fresh = blockcore._pool is None
        two = blockcore._panels(1100) == [0, 550, 1100]
        # The NaN is the last entry in memory, so in the second panel.
        nans = blockcore._split_pass(lambda b: int(np.isnan(b).sum()), a)
        ok = fresh and two and nans == [0, 1] and not blockcore.all_finite(a)
        os._exit(0 if ok and blockcore._pool is not None else 1)
    deadline = time.monotonic() + 60
    while not (done := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            raise SystemExit("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
    print("ok")
    """)


def test_a_panelled_call_from_a_pool_worker_finishes():
    # The pool has one worker at two cores; the job it runs splits its pass
    # and takes back the panel queued behind itself.  A job that waits on
    # its own panel is abandoned without joining the worker.
    _run_script(_STARTED_POOL + """
    import concurrent.futures
    job = blockcore._pool.submit(
        lambda: (blockcore._panels(1100), blockcore.all_finite(a))
    )
    try:
        got = job.result(timeout=60)
    except concurrent.futures.TimeoutError:
        os._exit(4)
    assert got == ([0, 550, 1100], False)
    print("ok")
    """)


def test_panel_bounds_are_grain_aligned_and_cover_the_range():
    work = 3 * blockcore._PANEL_MIN_WORK
    with mock.patch.multiple(blockcore, _cores=lambda: 4,
                             _blas_on_one_thread=lambda: False):
        # A BLAS on its own threads splits a product itself.
        assert blockcore._panels(1000, work=work) == [0, 1000]
        assert blockcore._panels(100) == [0, 25, 50, 75, 100]
    with mock.patch.multiple(blockcore, _cores=lambda: 4,
                             _blas_on_one_thread=lambda: True):
        assert blockcore._panels(100) == [0, 25, 50, 75, 100]
        assert blockcore._panels(190, grain=16) == [0, 48, 96, 144, 190]
        assert blockcore._panels(64, grain=16) == [0, 32, 64]
        assert blockcore._panels(63, grain=16) == [0, 63]
        assert blockcore._panels(1000, work=work) == [0, 334, 667, 1000]
    with mock.patch.object(blockcore, "_cores", lambda: 1):
        assert blockcore._panels(100) == [0, 100]


def _named_outside_blockcore(pattern):
    """What each other module of the package matches of ``pattern``."""
    package = Path(blockcore.__file__).parent
    return {
        path.name: sorted(set(re.findall(pattern, path.read_text())))
        for path in sorted(package.glob("*.py"))
        if path.name != "blockcore.py"
    }


def test_only_blockcore_names_the_panel_machinery():
    # When and how a pass splits is decided in blockcore alone; the other
    # modules call its kernels and _split_pass.
    named = _named_outside_blockcore(
        r"\b(?:_panels|_run_panels|\w*PANEL_\w*|_REDUCE_\w+|_PROJECT_GRAIN)\b"
    )
    assert not any(named.values()), named


def test_only_blockcore_knows_openblas():
    # Finding the loaded OpenBLAS libraries, reading their thread counts
    # and pinning them while a sweep runs happen in blockcore alone.
    named = _named_outside_blockcore(
        r"\bctypes\b|/proc/self/maps|openblas_\w*num_threads"
    )
    assert not any(named.values()), named


def _subtract_into(a, b):
    np.subtract(a, b, out=b)


def _whole_cases():
    rng = np.random.default_rng(8)
    f = np.asfortranarray(rng.standard_normal((64, 48)))
    g = np.asfortranarray(rng.standard_normal((64, 48)))
    return {
        "mixed strides": (f, np.ascontiguousarray(g)),
        "strided rows": (f[::2], g[::2]),
        "strided columns": (f[:, ::2], g[:, ::2]),
    }


@pytest.mark.parametrize("case", list(_whole_cases()))
def test_split_pass_runs_whole_unless_its_arrays_share_a_contiguous_layout(
    case,
):
    a, b = _whole_cases()[case]
    want = np.subtract(a, b)
    with _panels_forced(4) as pool:
        parts = blockcore._split_pass(_subtract_into, a, b)
    assert pool.submitted == 0
    assert parts == [None]
    assert want.tobytes() == b.tobytes()


@pytest.mark.parametrize("layout", ["F", "C", "1-d"])
def test_split_pass_splits_flat_buffers_from_panel_bytes_on(layout):
    # Panels are ranges of the flat buffers in memory order; an odd size
    # puts a bound inside a column (F) or a row (C).  One element below
    # the threshold runs whole.
    rng = np.random.default_rng(9)
    shape = (511 * 1023,) if layout == "1-d" else (511, 1023)
    order = "C" if layout == "1-d" else layout
    a = np.asarray(rng.standard_normal(shape), order=order)
    start = a.__array_interface__["data"][0]
    for threshold, splits in ((a.nbytes, True), (a.nbytes + 8, False)):
        b = np.asarray(rng.standard_normal(shape), order=order)
        want = np.subtract(a, b)
        seen = []

        def pass_(x, y):
            # Each panel as (its first element's offset in a, x's shape).
            offset = (x.__array_interface__["data"][0] - start) // 8
            seen.append((offset, x.shape))
            _subtract_into(x, y)

        with _panels_forced(2, threshold) as pool:
            blockcore._split_pass(pass_, a, b)
        assert (pool.submitted == 1) is splits
        if splits:
            (lo, (n,)), (mid, (rest,)) = sorted(seen)
            assert (lo, mid, n + rest) == (0, n, a.size)
        else:
            assert seen == [(0, shape)]
        assert _same(want, b)


@pytest.mark.parametrize("cols", [196, 212])
def test_reduce_splits_only_products_of_at_most_192_columns(cols):
    ledger = SyncLedger()
    left = np.asfortranarray(np.random.default_rng(3).random((3000, cols)))
    right = left[:, :20]
    with _panels_forced(1):
        want = ledger.reduce(1, "batch", left, right)
    with _panels_forced(4) as pool:
        got = ledger.reduce(1, "batch", left, right)
    assert _same(want, got)
    assert pool.submitted == 0


def test_single_column_products_split_bit_for_bit():
    # With one column (s = 1) both products are matrix-vector products,
    # whose kernels treat a trailing group of columns apart: a column
    # panel of ``left`` must start on the grain.  100 columns and 42000
    # rows just reach two panels of the product floor.
    rng = np.random.default_rng(11)
    q = np.asfortranarray(rng.standard_normal((42000, 100)))
    xk = np.asfortranarray(rng.standard_normal((42000, 1)))
    c = rng.standard_normal((100, 1))
    for site in (
        lambda: SyncLedger().reduce(1, "proj", q, xk),
        lambda: project_out(xk, q, c),
    ):
        with _panels_forced(1):
            want = site()
        with _panels_forced(2) as pool:
            got = site()
        assert pool.submitted == 1
        assert _same(want, got)


def test_threads_sharing_the_panel_pool_keep_every_bit():
    # Six callers race to make the pool and hand it panels of shared
    # operands; with a 1 µs switch interval every call still equals one
    # call, and every caller finishes.
    rng = np.random.default_rng(5)
    q = np.asfortranarray(rng.standard_normal((2048, 192)))
    q[1000, 150] = math.nan
    xk = np.asfortranarray(rng.standard_normal((2048, 24)))
    c = rng.standard_normal((192, 24))
    sites = (
        lambda: project_out(xk, q, c),
        lambda: SyncLedger().reduce(1, "proj", q, xk),
        lambda: all_finite(q),
        lambda: blockcore._extrema(xk),
    )
    with _panels_forced(1):
        want = [site() for site in sites]
    results, errors = [], []

    def caller():
        try:
            for _ in range(5):
                results.append([site() for site in sites])
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(
            blockcore,
            _cores=lambda: 4,
            PANEL_BYTES=0,
            REDUCE_PANEL_BYTES=0,
            _pool=None,
            _blas_on_one_thread=lambda: True,
        ):
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            pool = blockcore._pool
            assert pool is not None
    finally:
        sys.setswitchinterval(interval)
    pool.shutdown()
    assert errors == []
    assert len(results) == 30
    assert all(all(map(_same, want, got)) for got in results)


def test_the_caller_takes_back_every_panel_no_worker_has_started():
    # The pool's one worker is held on an event, so no worker starts a
    # panel: the caller runs all three itself and returns before the worker
    # is freed.  The cancelled panels left in the pool's queue keep the
    # panel function, and so its operands, alive no longer.  A caller that
    # waited on the worker would not return, so the call runs in a thread
    # joined with a timeout.
    held = threading.Event()
    pool = ThreadPoolExecutor(1)
    pool.submit(held.wait)
    runners, got, refs = [], [], []

    class Panel:
        def __call__(self, lo, hi):
            runners.append(threading.get_ident())
            return lo, hi

    def call():
        panel = Panel()
        refs.append(weakref.ref(panel))
        got.append(blockcore._run_panels(panel, [0, 10, 20, 30]))

    caller = threading.Thread(target=call)
    try:
        with mock.patch.object(blockcore, "_pool", pool):
            caller.start()
            caller.join(timeout=10)
            returned = not caller.is_alive()
            freed = refs[0]() is None
            held.set()
            caller.join(timeout=10)
    finally:
        held.set()
        pool.shutdown()
    assert returned
    assert freed
    assert got == [[(0, 10), (10, 20), (20, 30)]]
    assert runners == [caller.ident] * 3


def test_a_panel_that_raises_stops_the_panels_no_worker_has_started():
    # The pool's one worker starts the second panel, and the caller's own
    # panel raises once it has.  The error comes back only after the
    # started panel has finished, and the third, which no worker had
    # started, never runs.
    started = threading.Event()
    ran, finished = [], []

    def panel(lo, hi):
        ran.append(lo)
        if lo == 0:
            assert started.wait(10)
            raise ValueError("the caller's panel")
        started.set()
        time.sleep(0.2)
        finished.append(lo)

    pool = ThreadPoolExecutor(1)
    try:
        with mock.patch.object(blockcore, "_pool", pool):
            with pytest.raises(ValueError, match="the caller's panel"):
                blockcore._run_panels(panel, [0, 10, 20, 30])
            at_return = list(finished)
    finally:
        pool.shutdown()
    assert at_return == [10]
    assert sorted(ran) == [0, 10]


def test_a_worker_runs_its_panel_in_the_callers_context():
    # The caller's panel waits until a worker has run the other one; the
    # error state the caller set holds in that worker.
    started = threading.Event()
    seen = []

    def panel(lo, hi):
        if lo == 0:
            assert started.wait(10)
        else:
            seen.append((threading.get_ident(), np.geterr()["invalid"]))
            started.set()

    pool = ThreadPoolExecutor(1)
    try:
        with mock.patch.object(blockcore, "_pool", pool):
            with np.errstate(invalid="ignore"):
                blockcore._run_panels(panel, [0, 10, 20])
    finally:
        pool.shutdown()
    [(worker, invalid)] = seen
    assert worker != threading.get_ident()
    assert invalid == "ignore"
