"""The repository's pytest configuration, run on a throwaway test session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""

LATER = """\
def test_later():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # pytest turns warnings into errors.  While hypothesis reports a
    # failure, its plugin meets a DeprecationWarning from mypy_extensions;
    # unless the configuration ignores that one warning, the report ends
    # in INTERNALERROR and no later test runs.
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_later.py").write_text(LATER)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "test_a_fails.py", "test_b_later.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out.splitlines()[-1], out
