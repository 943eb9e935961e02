"""The project's pytest settings turn warnings into errors, yet a failing
Hypothesis test is reported as a failure and the run goes on."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_that_fails(i):
    assert i < 0


def test_a_later_test():
    pass
'''


def test_a_failing_property_is_a_failure_not_an_internal_error(tmp_path,
                                                               fresh_python):
    # reporting a failing example imports libcst, whose mypy_extensions
    # TypedDict raises a DeprecationWarning inside a pytest hook
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = fresh_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "-c", str(ROOT / "pyproject.toml"),
                        "--rootdir", str(tmp_path), str(path))
    assert proc.returncode == 1, (proc.stdout + proc.stderr)[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
