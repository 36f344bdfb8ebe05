"""The repository's pytest settings: a failing property test is reported.

pytest turns every warning into an error here. A failing @given test makes
hypothesis import its patch writer, and a warning raised by that import
must not abort the session before the failure is shown.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_is_reported_not_internal_error(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
