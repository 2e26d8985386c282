"""Record the reference answers of the default seed in reference.json.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every full-scale solve of the default seed once, certifies it, and
cross-checks it with the exhaustive oracle wherever the oracle stays within
its resource guard (the independent-set reductions are checked against
``independent_set_exists`` instead).  Refuses to write when any check fails.
Run it only on code whose answers are trusted: the benchmark compares later
code against what it writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import run as bench
import workloads


def record(workload: str) -> tuple[dict, dict, list[str]]:
    mods, tasks, _, _ = bench.setup(workload, bench.DEFAULT_SEED, workloads.SCALES["full"])
    answers, problems = {}, []
    tally = {"checked": 0, "guarded": 0, "not_applicable": 0}
    for task in tasks:
        result = task.run()
        problem = task.certify(result)
        if problem is None and task.oracle_check is None:
            tally["not_applicable"] += 1
        elif problem is None:
            try:
                problem = task.oracle_check(result)
                tally["checked"] += 1
            except mods.core.ResourceGuardError:
                tally["guarded"] += 1
        if problem is not None:
            problems.append(f"{task.id}: {problem}")
        answers[task.id] = task.answer(result)
    return answers, tally, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    try:
        with open(bench.REFERENCE, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {"seed": bench.DEFAULT_SEED, "workloads": {}, "oracle": {}}
    failed = False
    for workload in args.workload:
        start = perf_counter()
        answers, tally, problems = record(workload)
        print(f"{workload}: {len(answers)} answers, oracle {tally}, "
              f"{perf_counter() - start:.1f} s", flush=True)
        for problem in problems:
            print(f"  FAILED {problem}")
        failed = failed or bool(problems)
        data["workloads"][workload] = answers
        data["oracle"][workload] = tally
    if failed:
        print("not written: some answers failed their checks", file=sys.stderr)
        return 1
    with open(bench.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
