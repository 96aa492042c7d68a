"""The benchmark hooks vodsim's functions by name; its self-test plants a
fault for every check and must catch each one. Running it here makes a
refactor that renames a hooked name fail the test suite, not only the
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
