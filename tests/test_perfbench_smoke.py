"""The benchmark's self-test: every workload's first items, traced and
checked, and every check shown to reject a corrupted output.  It fails
when a library change breaks a name the tracer wraps or an output a check
reads."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    for mod in ("numpy", "scipy", "jsonschema"):
        pytest.importorskip(mod)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
