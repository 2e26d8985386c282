"""The scripts under scripts/ run end to end against the sources in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_oracle_sweep_finds_no_mismatch():
    run = _run("oracle_sweep.py", "--count", "3")
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.fullmatch(r"total: \d+ instances, 0 mismatches", run.stdout.splitlines()[-1])


def test_worked_example_runs():
    run = _run("worked_example.py")
    assert run.returncode == 0, run.stderr
    assert "AV scores: {'a': 7, 'b': 5, 'c': 4, 'p': 1}" in run.stdout
    assert "  rav: {'a': 0, 'b': 0, 'c': 1, 'p': 3}" in run.stdout
