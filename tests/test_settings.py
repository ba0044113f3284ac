"""Tests of the repository's pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_other_deprecation_is_an_error():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_failing_property_test_shows_its_example(tmp_path):
    # Warnings are errors, but the one hypothesis's reporting raises is
    # not: a failing @given test ends as a failure (exit 1) that prints its
    # example, not as an INTERNALERROR (exit 3).  Every other warning
    # still fails its test.
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "2 failed" in output
