"""The suite's own pytest settings, `[tool.pytest.ini_options]` in pyproject.toml."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    """Every warning is an error, yet hypothesis's report of a failure, which
    imports libcst and with it the deprecated mypy_extensions.TypedDict, is no
    INTERNALERROR that stops the run: the later test runs and is counted."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 failed, 1 passed" in proc.stdout
