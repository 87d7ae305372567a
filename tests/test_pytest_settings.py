"""A failing property test is reported as a failure, not an internal error.

pyproject.toml turns every warning into an error.  When a @given test
fails, hypothesis's report hook imports libcst, and that import raises a
DeprecationWarning; the settings ignore that one warning, so pytest
reports the failure and runs the tests after it instead of stopping with
an internal error (exit code 3).
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_ends_with_exit_code_1(tmp_path):
    (tmp_path / "test_failing.py").write_text(_FAILING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
