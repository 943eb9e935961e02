"""Every demo script runs to completion against the current package."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, fresh_python):
    proc = fresh_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
