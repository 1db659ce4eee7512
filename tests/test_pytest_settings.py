"""The suite's own pytest settings: warnings are errors, but a failing
test still ends in a report of every test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    """hypothesis imports libcst to report a failing example, and libcst
    raises a DeprecationWarning; under the suite's settings that must
    not end the session as an INTERNALERROR before other tests run."""
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
