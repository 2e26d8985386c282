"""Closed-loop benchmark of the abcbribery solvers.

One client, one solve at a time, no threads.  Run from the root of a source
checkout:

    python3 perfbench/run.py --workload fpt-mix --seed 1 --seconds 50 --trace 0

``--trace 0`` times whole passes over the workload's solve list until the
time is used (at least one pass) and reports the end-to-end metrics over each
solve's fastest repetition.
``--trace 1`` runs two untraced passes and one traced pass over the same list
and reports the per-layer metrics, the tracing overhead and the exact work
counters.  Every result is certified outside the timed call, and the first
pass also checks each answer against the exhaustive oracle where the task has
such a check; on the default seed the answers must also match
``reference.json``.  The last line of standard output is one JSON object; the
lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MODULES = ("core", "rules", "flows", "generators", "avbribery", "fpt", "approx", "oracle", "cli")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The program to benchmark cannot be found or imported."""


def import_program() -> tuple[SimpleNamespace, float]:
    """Import abcbribery afresh from this checkout; returns (modules, seconds)."""
    if not (SRC / "abcbribery" / "__init__.py").is_file():
        raise SetupError(f"no abcbribery sources under {SRC}")
    for name in [n for n in sys.modules if n == "abcbribery" or n.startswith("abcbribery.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    mods = SimpleNamespace(**{name: importlib.import_module(f"abcbribery.{name}") for name in MODULES})
    elapsed = perf_counter() - start
    if Path(mods.core.__file__).resolve().parent != (SRC / "abcbribery").resolve():
        raise SetupError(f"abcbribery was imported from {mods.core.__file__}, not from {SRC}")
    return mods, elapsed


def setup(workload: str, seed: int, scale) -> tuple[SimpleNamespace, list, float, float]:
    """Import and generate the inputs SETUP_REPEATS times; the last copy is used.

    Returns (modules, tasks, median set-up seconds, median generation seconds).
    """
    totals, generation = [], []
    for _ in range(SETUP_REPEATS):
        mods, import_s = import_program()
        start = perf_counter()
        tasks = workloads.build(mods, workload, seed, scale, WORK)
        gen_s = perf_counter() - start
        totals.append(import_s + gen_s)
        generation.append(gen_s)
    return mods, tasks, statistics.median(totals), statistics.median(generation)


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop: a machine-speed reading."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) & 0xFFFFF
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples)


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"].get(workload, {})


def run_pass(tasks, reference, oracle_guard=None) -> tuple[list[float], list[str], dict]:
    """Solve every task once, certifying each result outside its timed call.

    With ``oracle_guard`` (the oracle's resource-guard exception) each result
    is also checked against the exhaustive oracle where the task has such a
    check.  Returns the per-solve wall times, one message per failed solve,
    and the tally of oracle checks made and skipped by the guard.
    """
    times, failures = [], []
    oracle = {"checked": 0, "guarded": 0}
    for task in tasks:
        start = perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # a guard trip or crash is a failed solve
            times.append(perf_counter() - start)
            failures.append(f"{task.id}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - start)
        problem = task.certify(result)
        if problem is None and reference is not None:
            want = reference.get(task.id)
            got = task.answer(result)
            if want is None:
                problem = "no reference answer recorded"
            elif got != want:
                problem = f"answer {got!r} differs from reference {want!r}"
        if problem is None and oracle_guard is not None and task.oracle_check is not None:
            try:
                problem = task.oracle_check(result)
                oracle["checked"] += 1
            except oracle_guard:
                oracle["guarded"] += 1
        if problem is not None:
            failures.append(f"{task.id}: {problem}")
    return times, failures, oracle


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "abcbribery").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counters(workload: str, seed: int, scale_name: str, counters: dict) -> str | None:
    """Compare with the counters an earlier traced run of the same code wrote."""
    path = WORK / "counters" / f"{workload}-s{seed}-{scale_name}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counters:
            diff = sorted(k for k in set(before) | set(counters) if before.get(k) != counters.get(k))
            return f"work counters differ from an earlier traced run: {', '.join(diff)}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, indent=1, sort_keys=True), encoding="utf-8")
    return None


def p90(times: list[float]) -> float:
    """Nearest-rank 90th percentile; ten samples lie beyond it from 100 solves up."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, scale_name: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    mods, tasks, setup_s, generation_s = setup(workload, seed, workloads.SCALES[scale_name])
    reference = load_reference(workload, seed)
    calib_start = calibrate()
    failures: list[str] = []
    report: list[str] = []
    if not trace:
        passes: list[list[float]] = []
        started = pass_started = perf_counter()
        while True:
            pass_times, pass_failures, tally = run_pass(
                tasks, reference, None if passes else mods.core.ResourceGuardError)
            if not passes:
                oracle_tally = tally
            passes.append(pass_times)
            failures += pass_failures
            now = perf_counter()
            # The next pass is expected to last as long as the last one; the
            # first also ran the oracle checks, so only its solve time counts.
            expected = now - pass_started if len(passes) > 1 else sum(pass_times)
            if now - started + expected > seconds:
                break
            pass_started = now
        # Every pass repeats the same solves, so a solve's repetitions differ
        # only in how fast the shared machine ran at the time; each solve's
        # fastest repetition is its time.
        times = [min(repeats) for repeats in zip(*passes)]
        metrics = {
            "solve_p50_ms": (statistics.median(times) * 1000, "ms"),
            "solve_p90_ms": (p90(times) * 1000, "ms"),
            "solves_per_s": (len(times) / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        attempted = len(tasks) * len(passes)
        report.append(f"passes: {len(passes)} of {len(tasks)} solves, pass seconds "
                      + " ".join(f"{sum(t):.2f}" for t in passes)
                      + f"; samples: {len(times)}, each the fastest of {len(passes)}")
    else:
        # The first pass runs the oracle checks and warms up; the overhead is
        # the traced pass against the second, plain one.
        first_times, first_failures, oracle_tally = run_pass(
            tasks, reference, mods.core.ResourceGuardError)
        plain_times, plain_failures, _ = run_pass(tasks, reference)
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            traced_times, traced_failures, _ = run_pass(tasks, reference)
        finally:
            tracer.uninstall()
        failures += first_failures + plain_failures + traced_failures
        attempted = len(first_times) + len(plain_times) + len(traced_times)
        counters = tracer.counters()
        counter_problem = check_counters(workload, seed, scale_name, counters)
        if counter_problem is not None:
            failures.append(counter_problem)
        metrics = tracer.metrics()
        metrics["generators.busy_s"] = (generation_s, "s")
        metrics["trace.overhead_frac"] = (sum(traced_times) / sum(plain_times) - 1, "ratio")
        report.append("counters: " + json.dumps(counters, sort_keys=True))
        report += ["span " + line for line in tracer.call_tree()]
    calib_end = calibrate()
    calib_ms = (calib_start + calib_end) / 2
    if trace:
        metrics["calib_ms"] = (calib_ms, "ms")
    report.append(f"calib_ms: start {calib_start:.3f} end {calib_end:.3f}")
    report.append(f"oracle checks: {oracle_tally['checked']} made, {oracle_tally['guarded']} "
                  "skipped by the oracle's guard")
    report.append(f"failed_frac: {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
    report += [f"FAILED {message}" for message in failures[:20]]
    report += [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return {
        "report": report,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="solve counts; 'smoke' is a tiny subset for the smoke test")
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  scale: {args.scale}")
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
