"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the smoke scale, untraced and traced, through the
same command line the full benchmark uses, and checks that each run is
correct and prints exactly the metrics BENCHMARK.json names, with their
units.  Then it corrupts solutions in process and checks that the
certification counts each one as failed.  Exits non-zero on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run as bench
import workloads


def expected_metrics() -> tuple[dict, dict]:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_command(workload: str, trace: int, want: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed",
         str(bench.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    return problems


def tamper(task, change) -> None:
    original = task.run
    task.run = lambda: change(original())


def reverse_rank(result):
    code, text = result
    header, *lines = text.splitlines()
    return code, "\n".join([header] + lines[::-1]) + "\n"


def check_corruption() -> list[str]:
    """Tamper with two is-swap answers, one cli-mix answer and one fpt-mix
    answer; all four must fail."""
    problems = []
    _, tasks, _, _ = bench.setup("is-swap", bench.DEFAULT_SEED, workloads.SCALES["smoke"])
    overpriced, truncated = [t for t in tasks if t.id.startswith("is-") and t.id.endswith("-h1")][:2]
    tamper(overpriced, lambda s: dataclasses.replace(s, cost=s.cost + 1))
    tamper(truncated, lambda s: dataclasses.replace(s, actions=s.actions[:-1]))
    _, failures, _ = bench.run_pass(tasks, bench.load_reference("is-swap", bench.DEFAULT_SEED))
    if sorted(message.split(":")[0] for message in failures) != sorted([overpriced.id, truncated.id]):
        problems.append(f"is-swap corruption: failures {failures}")

    _, tasks, _, _ = bench.setup("cli-mix", bench.DEFAULT_SEED, workloads.SCALES["smoke"])
    rank = next(t for t in tasks if t.id.startswith("rank-") and t.id.endswith("-sav-add"))
    tamper(rank, reverse_rank)
    _, failures, _ = bench.run_pass(tasks, bench.load_reference("cli-mix", bench.DEFAULT_SEED))
    if [message.split(":")[0] for message in failures] != [rank.id]:
        problems.append(f"cli-mix corruption: failures {failures}")

    # A bare "infeasible" claims nothing certification can replay, so off the
    # default seed only the first pass's oracle check can catch a wrong one.
    mods, tasks, _, _ = bench.setup("fpt-mix", bench.DEFAULT_SEED + 1, workloads.SCALES["smoke"])
    feasible = next(t for t in tasks if t.run().feasible)
    tamper(feasible, lambda s: mods.core.BriberySolution((), None, False))
    _, failures, _ = bench.run_pass(tasks, None, mods.core.ResourceGuardError)
    if [message.split(":")[0] for message in failures] != [feasible.id]:
        problems.append(f"fpt-mix corruption: failures {failures}")
    return problems


def main() -> int:
    end_to_end, per_layer = expected_metrics()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            problems += check_command(workload, trace, want)
    problems += check_corruption()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
