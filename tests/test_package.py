"""The package surface: ``blockgs.__all__`` and what ``import blockgs`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import blockgs
from blockgs import blockcore, harness, matgen, metrics, muscles, skeletons, syncmodel

LIBRARY = (blockcore, matgen, metrics, muscles, skeletons, syncmodel)
HARNESS_NAMES = {
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
}
README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_has_no_duplicates():
    assert len(blockgs.__all__) == len(set(blockgs.__all__))


def test_all_is_the_modules_lists_plus_the_harness_names():
    union = {name for module in LIBRARY for name in module.__all__}
    assert set(blockgs.__all__) == union | HARNESS_NAMES
    assert HARNESS_NAMES <= set(harness.__all__)


def test_every_exported_name_resolves_to_its_module_binding():
    for name in blockgs.__all__:
        if name in HARNESS_NAMES:
            owners = [harness]
        else:
            owners = [m for m in LIBRARY if name in m.__all__]
        for owner in owners:
            assert getattr(blockgs, name) is getattr(owner, name), name


def test_import_blockgs_leaves_the_harness_and_scipy_io_unloaded():
    env = dict(os.environ)
    src = str(Path(blockgs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    body = (
        "import sys, blockgs\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'blockgs.harness' or m.startswith('scipy.io')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", body], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
