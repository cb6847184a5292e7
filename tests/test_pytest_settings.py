"""The suite's own pytest settings report a failing property as a failure."""

import subprocess
import sys

from conftest import ROOT

FAILING_PROPERTY = """from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_negative(n):
    assert n < 0
"""


def test_failing_property_gives_a_falsifying_example(tmp_path):
    """Warnings are errors in this suite; one raised inside hypothesis's
    report hook would end the run in INTERNALERROR instead."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed" in out
    assert result.returncode == 1, out
