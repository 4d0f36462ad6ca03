"""The test suite's own settings: a failing test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # On a failure hypothesis's plugin imports libcst, which imports a
    # deprecated mypy_extensions name; under filterwarnings = ["error"]
    # that warning would end the session with INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
