"""Packaging metadata: ``pip install -e .`` must build ``repro``, not UNKNOWN."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_package_metadata_resolves():
    # pyproject.toml names the package and reads the version dynamically
    # from repro.__version__; setup.py is only a shim over it.
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", repro.__version__]

