"""The package surface: ``blockgs.__all__``, the README's import line, the
module-level caches and what ``import blockgs`` loads of scipy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import blockgs
from blockgs import blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel

MODULES = (blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel)
README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_has_no_duplicates():
    assert len(blockgs.__all__) == len(set(blockgs.__all__))


def test_all_is_the_modules_lists_plus_the_harness_names():
    # A list, not a set or dict, so a name two modules export shows twice.
    assert blockgs.__all__ == [
        name for module in MODULES for name in module.__all__
    ]


def test_every_exported_name_resolves_to_its_module_binding():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(blockgs, name) is getattr(module, name), name


def test_harness_names_import_from_the_package():
    from blockgs import cli_main, read_csv

    assert read_csv is harness.read_csv
    assert cli_main is harness.cli_main


def test_readme_quick_start_import_line_runs():
    lines = [
        line for line in README.read_text().splitlines()
        if line.startswith("from blockgs import ")
    ]
    assert lines
    for line in lines:
        namespace = {}
        exec(line, namespace)
        names = line.removeprefix("from blockgs import ").split(",")
        for name in names:
            assert namespace[name.strip()] is getattr(blockgs, name.strip())


def test_every_module_cache_is_bounded():
    # Memory stays O(m*s) only while every functools cache has a maxsize;
    # an unbounded one reports None.
    maxsizes = {
        f"{module.__name__}.{name}": value.cache_info().maxsize
        for module in MODULES
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert len(maxsizes) >= 3, maxsizes
    assert all(isinstance(size, int) for size in maxsizes.values()), maxsizes


def _python(*parts):
    """Run the ``parts`` of a script, each dedented, in a fresh interpreter
    with this tree's ``src`` on ``PYTHONPATH``; it must exit 0 and print
    ``ok`` last."""
    env = dict(os.environ)
    src = str(Path(blockgs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "".join(map(textwrap.dedent, parts))], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok", proc.stdout


# Every routine blockgs calls, as ``scipy.linalg``'s and ``scipy.special``'s
# public modules expose it, and every submodule of theirs bound on its
# package, as in a process that never imported blockgs.
_PUBLIC_ROUTINES = """
    import sys
    import scipy.linalg, scipy.special
    from blockgs import blockcore, matgen, metrics, muscles
    for name in ("dtrtrs", "dgeqrf", "dgeqrf_lwork", "dorgqr"):
        assert getattr(blockcore.lapack, name) is getattr(scipy.linalg.lapack, name)
        assert getattr(blockcore.lapack, name) is getattr(scipy.linalg._flapack, name)
    assert muscles.lapack is blockcore.lapack
    assert metrics.blas is blockcore.blas
    assert blockcore.blas.dtrmm is scipy.linalg.blas.dtrmm
    assert blockcore.blas.dtrmm is scipy.linalg._fblas.dtrmm
    assert matgen.ndtri is scipy.special.ndtri is scipy.special._ufuncs.ndtri
    for package in (scipy.linalg, scipy.special):
        assert package.__file__.endswith("__init__.py")
    loaded = ("scipy.linalg.", "scipy.special.")
    for key in [k for k in sys.modules if k.startswith(loaded)]:
        parent, _, name = key.rpartition(".")
        assert getattr(sys.modules[parent], name) is sys.modules[key], key
"""


def test_import_runs_neither_scipy_linalg_nor_scipy_special():
    _python("""
        import sys
        import blockgs
        assert not {"scipy.linalg", "scipy.special"} & set(sys.modules)
        print("ok")
    """)


def test_a_sweep_of_megabyte_passes_starts_no_thread():
    # 3072x192 in blocks of 24 columns: deflations, reductions and
    # elementwise passes of megabytes all run on the calling thread, so no
    # thread is started and neither concurrent.futures nor the logging it
    # imports is loaded.
    _python("""
        import sys, threading
        from blockgs.harness import SweepConfig, make_combo, run_sweep
        run_sweep(SweepConfig(
            matrix_class="default", combos=(make_combo("bcgsi_a_1s"),),
            kappas=(1e4,), m=3072, p=8, s=24,
        ))
        assert threading.active_count() == 1
        assert not {"concurrent.futures", "logging"} & set(sys.modules)
        print("ok")
    """)


def test_a_later_scipy_stats_import_works():
    # scipy.stats imports from scipy's top-level package, which the loader
    # leaves to the public import.
    _python("""
        import blockgs
        import scipy.stats
        assert scipy.stats.norm.cdf(0.0) == 0.5
        print("ok")
    """)


def test_a_later_scipy_import_exposes_the_routines_blockgs_calls():
    _python("""
        import blockgs
    """, _PUBLIC_ROUTINES, """
        assert scipy.special.gamma(5.0) == 24.0
        q, r = scipy.linalg.qr([[3.0, 1.0], [4.0, 2.0]])
        assert abs(abs(r[0, 0]) - 5.0) < 1e-12
        print("ok")
    """)


@pytest.mark.parametrize("first", ["scipy.special", "scipy.linalg"])
def test_a_process_that_imported_scipy_first_gets_the_public_objects(first):
    _python(f"""
        import {first}
        import blockgs
    """, _PUBLIC_ROUTINES, """
        print("ok")
    """)


def test_import_finds_every_openblas_scipy_linalg_loads():
    # The BLAS pin sets the thread count of each library found at its
    # first use; one it missed would run a sweep on several threads.
    _python("""
        from blockgs import blockcore
        found = len(blockcore._openblas_threads())
        import scipy.linalg
        blockcore._openblas_threads.cache_clear()
        assert found == len(blockcore._openblas_threads()) >= 1
        print("ok")
    """)


# A scipy whose file is not where it was: no extension suffix matches.
_MISSING_FILE = """
    importlib.machinery.EXTENSION_SUFFIXES = [".moved"]
"""
# A load that raises once the module's own init has run.
_RAISING_EXEC = """
    loader = importlib.machinery.ExtensionFileLoader
    real_exec = loader.exec_module

    def exec_then_raise(self, module):
        loader.exec_module = real_exec
        real_exec(self, module)
        raise ImportError("exec_module failed")

    loader.exec_module = exec_then_raise
"""


@pytest.mark.parametrize("fault", [_MISSING_FILE, _RAISING_EXEC],
                         ids=["missing file", "raising exec_module"])
def test_a_failed_load_falls_back_to_the_public_import(fault):
    # The fallback starts from the keys sys.modules held before the
    # attempt: no stub, no half-made module.
    _python("""
        import importlib, importlib.machinery, sys
        from blockgs import blockcore, matgen
        assert "scipy.special._ufuncs" not in sys.modules
    """, fault, """
        before = set(sys.modules)
        at_fallback = []
        public = importlib.import_module

        def spy(name, *args):
            at_fallback.append(set(sys.modules))
            return public(name, *args)

        importlib.import_module = spy
        ufuncs = blockcore._scipy_extension("scipy.special", "_ufuncs")
        importlib.import_module = public
        assert at_fallback and at_fallback[0] == before
        import scipy.special
        assert scipy.special.__file__.endswith("__init__.py")
        assert ufuncs is sys.modules["scipy.special._ufuncs"]
        assert ufuncs.ndtri is matgen.ndtri is scipy.special.ndtri
        assert scipy.special.gamma(5.0) == 24.0
        print("ok")
    """)
