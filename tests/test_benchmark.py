"""The benchmark's own self-test, run as part of the test suite.

perfbench pins facts of the library (how many times complete_magic calls
violations, that a fresh triangle table classifies triangles), so a change
to the library must keep it passing.  It runs in a fresh interpreter: the
triangle table is cached per process, and a table that an earlier test has
built would hide the calls it counts.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
