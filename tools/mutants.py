"""Apply each mutant of a standing catalog to a copy of the repository, run
tier-1 there and report the tests that catch it.

    python3 tools/mutants.py [REV]

``REV`` (default ``HEAD``) is exported with ``git archive`` into a temporary
directory, so the repository's own state is left alone.  Tier-1 runs once on
that copy as it is, then once per mutant of ``MUTANTS`` on a fresh copy with
the mutant's old text replaced by its new one, each with the copy's ``src``
on ``PYTHONPATH`` and no BLAS thread variable.  A test that fails on the
unmutated copy too (the environmental ``test_installed_console_script``, on
a host where the package is not installed) catches nothing.  One line per
mutant gives its name and how many tests caught it, then one line per
catching test, marked ``[data]`` when its module checks the envelopes on
measured runs rather than on constants.  Exits 1 when a mutant survives,
caught by no test, and 0 otherwise.  A full run takes one tier-1 run per
mutant, plus one.

Each old text occurs exactly once in its file (``tests/test_mutants_tool.py``
checks this on today's ``src``), so a change that rewrites a mutated line
updates its mutant in the same change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bits import THREAD_VARS, _export  # noqa: E402

# Tier-1 as ROADMAP.md states it, reporting each failure and error on a
# line of its own.  The catalog's own test is left out: it fails on every
# mutant, whose old text is gone, so it would catch them all.
TIER1 = (
    sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
    "--continue-on-collection-errors", "--ignore=tests/test_mutants_tool.py",
)
# Modules whose tests check the envelopes on measured runs.
DATA_MODULES = (
    "tests/test_acceptance.py",
    "tests/test_envelope_attainment.py",
    "tests/test_envelope_separations.py",
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    Mutant(
        "chol_free reads the lower triangle",
        "src/blockgs/muscles.py",
        "    a = np.array(g, dtype=np.float64)\n",
        "    a = np.array(g, dtype=np.float64).T\n",
    ),
    Mutant(
        "Givens without its overflow guard",
        "src/blockgs/muscles.py",
        '        with np.errstate(over="raise"):\n',
        '        with np.errstate(over="ignore"):\n',
    ),
    Mutant(
        "HouseQR without its sign fix",
        "src/blockgs/muscles.py",
        '        raise RuntimeError(f"LAPACK dorgqr returned info={info}")\n'
        "    return _fix_signs(q, r)\n",
        '        raise RuntimeError(f"LAPACK dorgqr returned info={info}")\n'
        "    return QROutput(q, r)\n",
    ),
    Mutant(
        "MGS's alpha 1 -> 2",
        "src/blockgs/muscles.py",
        'MGS = IOSpec("mgs", alpha=1)',
        'MGS = IOSpec("mgs", alpha=2)',
    ),
    Mutant(
        "cholqr admitted to the muscle cache",
        "src/blockgs/muscles.py",
        "if not spec.gram and x.nbytes <= _CACHE_BLOCK_BYTES:",
        "if x.nbytes <= _CACHE_BLOCK_BYTES:",
    ),
    Mutant(
        "CholQR loses its Gram flag",
        "src/blockgs/muscles.py",
        'CHOL_QR = IOSpec("cholqr", alpha=2, gram=True)',
        'CHOL_QR = IOSpec("cholqr", alpha=2)',
    ),
    Mutant(
        "the ledger's product formed from an uncopied right",
        "src/blockgs/syncmodel.py",
        "        r = np.ascontiguousarray(right)\n",
        "        r = right\n",
    ),
    Mutant(
        "-1S without the triangular solve of its look-ahead row",
        "src/blockgs/skeletons.py",
        "bottom = tri_solve_left_transposed(out.r, p_blk - y_col.T @ z_blk)",
        "bottom = p_blk - y_col.T @ z_blk",
    ),
    Mutant(
        "BCGSI+A without its alpha_a = 0 premise",
        "src/blockgs/skeletons.py",
        "return BoundSpec(max(io1.alpha, 1), 0.0) if io_a.alpha == 0 else None",
        "return BoundSpec(max(io1.alpha, 1), 0.0)",
    ),
    Mutant(
        "BCGSI+A's loo exponent 0 -> -1",
        "src/blockgs/skeletons.py",
        "BoundSpec(max(io1.alpha, 1), 0.0)",
        "BoundSpec(max(io1.alpha, 1), -1.0)",
    ),
    Mutant(
        "-3S without its alpha_a <= alpha_1 premise",
        "src/blockgs/skeletons.py",
        "return BoundSpec(max(a + 1, 2), max(a, 1)) if io_a.alpha <= a else None",
        "return BoundSpec(max(a + 1, 2), max(a, 1))",
    ),
    Mutant(
        "-3S's loo exponent max(alpha_1, 1) lowered by one",
        "src/blockgs/skeletons.py",
        "BoundSpec(max(a + 1, 2), max(a, 1))",
        "BoundSpec(max(a + 1, 2), max(a, 1) - 1)",
    ),
    Mutant(
        "-2S/-1S loo exponent 2 -> 1",
        "src/blockgs/skeletons.py",
        "return BoundSpec(3.0, 2.0) if io_a.alpha <= 2 else None",
        "return BoundSpec(3.0, 1.0) if io_a.alpha <= 2 else None",
    ),
    Mutant(
        "check-bounds ignoring a NaN loo",
        "src/blockgs/harness.py",
        "if math.isnan(rec.loo) or rec.loo > bound:",
        "if rec.loo > bound:",
    ),
    Mutant(
        "the CLI skip count without its piled filter",
        "src/blockgs/harness.py",
        'r.matrix_class == "piled" and math.isnan(r.kappa_actual)',
        "math.isnan(r.kappa_actual)",
    ),
    Mutant(
        "run_sweep without the BLAS pin",
        "src/blockgs/harness.py",
        "@blockcore._one_blas_thread()\ndef run_sweep(",
        "def run_sweep(",
    ),
    Mutant(
        "run_single without the BLAS pin",
        "src/blockgs/harness.py",
        "@blockcore._one_blas_thread()\ndef run_single(",
        "def run_single(",
    ),
    Mutant(
        "sync_table without the BLAS pin",
        "src/blockgs/harness.py",
        "@blockcore._one_blas_thread()\ndef sync_table(",
        "def sync_table(",
    ),
    Mutant(
        "the BLAS pin sets no thread count",
        "src/blockgs/blockcore.py",
        "                set_threads(1)\n",
        "                pass\n",
    ),
    Mutant(
        "the BLAS pin ignores a count the user set",
        "src/blockgs/blockcore.py",
        "        if not _pin_depth and not any(\n"
        "            os.environ.get(name) for name in _BLAS_THREAD_VARS\n"
        "        ):\n",
        "        if not _pin_depth:\n",
    ),
    Mutant(
        "the BLAS pin never restores the counts",
        "src/blockgs/blockcore.py",
        "                        set_threads(count)\n",
        "                        pass\n",
    ),
    Mutant(
        "the BLAS pin restores at the first exit, not the last",
        "src/blockgs/blockcore.py",
        "                if not _pin_depth:\n",
        "                if True:\n",
    ),
    Mutant(
        "a forked child keeps the parent's pin state",
        "src/blockgs/blockcore.py",
        "    _pin_lock, _pin_depth, _pin_saved = threading.Lock(), 0, []\n",
        "",
    ),
    Mutant(
        "a forked child leaves its parent's pin entry",
        "src/blockgs/blockcore.py",
        "        if os.getpid() == pid:\n",
        "        if True:\n",
    ),
    Mutant(
        "muscles back on scipy.linalg's package import",
        "src/blockgs/muscles.py",
        "from .blockcore import (\n    all_finite,\n    lapack,\n",
        "from scipy.linalg import lapack\n\n"
        "from .blockcore import (\n    all_finite,\n",
    ),
    Mutant(
        "the loader leaves its package stub in sys.modules",
        "src/blockgs/blockcore.py",
        "            if sys.modules.get(package) is stub:\n"
        "                del sys.modules[package]\n",
        "            pass\n",
    ),
    Mutant(
        "the loader leaves what it loaded in sys.modules",
        "src/blockgs/blockcore.py",
        "                if key.startswith(f\"{package}.\"):\n"
        "                    del sys.modules[key]\n",
        "                pass\n",
    ),
    Mutant(
        "the loader's fallback keeps what the failed load added",
        "src/blockgs/blockcore.py",
        "            for key in set(sys.modules) - before:\n"
        "                del sys.modules[key]\n",
        "            pass\n",
    ),
    Mutant(
        "each piled increment added to X_1, not X_(k-1)",
        "src/blockgs/matgen.py",
        "np.add(out[:, (k - 1) * s : k * s], z,",
        "np.add(out[:, :s], z,",
    ),
    Mutant(
        "piled increments not scaled by 1/kappa_z",
        "src/blockgs/matgen.py",
        "        z /= kappa_z\n",
        "",
    ),
    Mutant(
        "svd_with_cond without its singular values",
        "src/blockgs/matgen.py",
        "np.matmul(np.multiply(u, sigma, out=u), v.T, out=out)",
        "np.matmul(u, v.T, out=out)",
    ),
)


def mutated(text: str, mutant: Mutant) -> str:
    """``text``, the mutant's file, with its one old text replaced by its
    new one; exits when the old text does not occur exactly once."""
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(
            f"mutants: the old text of {mutant.name!r} occurs {found} times"
            f" in {mutant.file}, not once"
        )
    return text.replace(mutant.old, mutant.new)


def failures(tree: Path) -> set[str]:
    """The tier-1 tests that fail or err on ``tree``'s sources."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run(
        TIER1, cwd=tree, env=env, capture_output=True, text=True
    )
    # "FAILED <id> - <message>"; an id may hold spaces (a parameter's).
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        _export(args.rev, base)
        for mutant in MUTANTS:  # every old text is found before any run
            mutated((base / mutant.file).read_text(), mutant)
        baseline = failures(base)
        print(f"{args.rev}: {len(baseline)} test(s) fail unmutated")
        for test in sorted(baseline):
            print(f"    {test}")
        for mutant in MUTANTS:
            tree = shutil.copytree(base, Path(tmp) / "mutant")
            path = tree / mutant.file
            path.write_text(mutated(path.read_text(), mutant))
            caught = sorted(failures(tree) - baseline)
            shutil.rmtree(tree)
            survivors += not caught
            verdict = f"caught by {len(caught)}" if caught else "SURVIVED"
            print(f"{mutant.name}: {verdict}")
            for test in caught:
                data = test.split("::")[0] in DATA_MODULES
                print(f"    {test}{'  [data]' if data else ''}")
    print(f"{survivors} of {len(MUTANTS)} mutant(s) survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
