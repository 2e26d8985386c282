"""The scripts under scripts/ run end to end against the sources in src/."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from abcbribery import CertificationError
from abcbribery.solve import ROUTES, route

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_oracle_sweep_finds_no_mismatch():
    run = _run("oracle_sweep.py", "--count", "3")
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.fullmatch(r"total: \d+ instances, 0 mismatches", run.stdout.splitlines()[-1])


def _sweep_module():
    spec = importlib.util.spec_from_file_location("oracle_sweep",
                                                  ROOT / "scripts" / "oracle_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_oracle_sweep_reaches_every_route():
    # A lane's shape fixes its cell, so its first instance shows the row it
    # sweeps; every lane also asks the oracle row for the optimum.
    sweep = _sweep_module()
    reached = set()
    for lane, (rule, algorithm, _) in sweep.LANES.items():
        instance = next(sweep.lane_instances(lane, 1, 1))
        reached |= {ROUTES.index(route(instance, rule, name)) for name in (algorithm, "oracle")}
    assert sorted(reached) == list(range(len(ROUTES)))


def test_oracle_sweep_counts_every_uncertified_answer(monkeypatch, capsys):
    # A solver whose answers fail certification on every instance with p = 0:
    # the sweep reports each one as a mismatch and goes on, then exits 1.
    sweep = _sweep_module()
    failed = []
    real = sweep.solve

    def faulty(instance, rule, algorithm="auto"):
        if instance.p == 0:
            failed.append(algorithm)
            raise CertificationError("the actions do not make p a co-winner")
        return real(instance, rule, algorithm)

    monkeypatch.setattr(sweep, "solve", faulty)
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", "--count", "6",
                                      "--lanes", "av-add", "margins"])
    assert sweep.main() == 1
    out = capsys.readouterr().out
    assert "exact" in failed and "oracle" in failed
    assert out.count("uncertified: the actions do not make p a co-winner") == len(failed) > 2
    assert out.splitlines()[-1] == f"total: {6 + 6 * 3} instances, {len(failed)} mismatches"


def test_worked_example_runs():
    run = _run("worked_example.py")
    assert run.returncode == 0, run.stderr
    assert "AV scores: {'a': 7, 'b': 5, 'c': 4, 'p': 1}" in run.stdout
    assert "  rav: {'a': 0, 'b': 0, 'c': 1, 'p': 3}" in run.stdout
