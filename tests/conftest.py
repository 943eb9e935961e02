"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports this checkout's
    ``src``; returns the finished process, output captured as text."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))

    def run(*args, timeout=120):
        return subprocess.run([sys.executable, *args], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=timeout)

    return run


@pytest.fixture
def traced_peak():
    """``peak(call)`` returns ``call()``'s result and the peak bytes that
    tracemalloc saw it hold; NumPy reports its array buffers to tracemalloc.
    A first untraced call builds the caches outside the trace."""

    def peak(call):
        call()
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
