"""Run Python in a fresh interpreter that imports stokesim from this
checkout's `src/`, for the tests that probe what a process imports or
does on its way out."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` with `src/` first on PYTHONPATH, its output captured as text."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
