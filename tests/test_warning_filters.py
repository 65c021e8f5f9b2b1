"""The suite's warning filters turn every warning into an error, yet a
failing hypothesis test must fail on its own and let the run go on."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_runs_after():
    pass
'''


def test_failing_given_test_leaves_the_run_going(tmp_path):
    # reporting a failing example imports libcst, which warns through
    # mypy_extensions; under the "error" filter that ended the run with
    # INTERNALERROR (exit code 3) before the next test
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "-rA",
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_probe.py::test_fails" in run.stdout
    assert "PASSED test_probe.py::test_runs_after" in run.stdout
