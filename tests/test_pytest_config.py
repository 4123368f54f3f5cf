"""The repository's pytest settings report a failing hypothesis test like
any other failure, with its falsifying example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_shows_its_falsifying_example(tmp_path):
    # Every warning is an error there, and hypothesis's report hook once
    # tripped over a DeprecationWarning and ended the run in INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example:" in out
    assert "1 failed" in out
    assert done.returncode == 1
