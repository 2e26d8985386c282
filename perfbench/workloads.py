"""Seeded inputs and the solve list of each benchmark workload.

Every input comes from ``abcbribery.generators`` and the workload seed; the
same seed gives the same solve list.  A solve is one ``Task``: a timed
zero-argument call that goes through the public entry point by module
attribute (so the tracer's wrappers see it), a certifier that runs outside
the timed call, and the answer that is compared with the recorded reference.
Task ids are stable across scales, so the smoke scale is a subset of the full
one and shares its reference answers.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("is-swap", "fpt-mix", "cli-mix")
RULE_NAMES = ("av", "sav", "ccav", "pav", "gav", "rav")


@dataclass(frozen=True)
class Scale:
    is_vertices: tuple[int, ...]  # cubic graph orders of the independent-set reductions
    is_random: int                # random priced-swap elections in is-swap
    enum_per_rule: dict[str, int]  # unit-swap type enumerations per rule in fpt-mix
    flow_per_rule: int            # priced-deletion flow solves per coverage rule in fpt-mix
    cli_files: int                # .elect files in cli-mix, each ranked 18 ways and bribed 6 ways


SCALES = {
    # Every pass has at least 100 solves (so ten lie beyond the 90th
    # percentile) and takes a few seconds, so a run repeats each solve many
    # times.  fpt-mix: the 40 small enumerations and 24 RAV enumerations put
    # the median inside RAV's narrow band, and the 16 PAV enumerations, the
    # slowest solves, hold the 90th percentile.
    "full": Scale(is_vertices=(4, 6, 8), is_random=74,
                  enum_per_rule=dict(av=10, sav=10, ccav=10, pav=16, gav=10, rav=24),
                  flow_per_rule=10, cli_files=12),
    "smoke": Scale(is_vertices=(4, 6), is_random=2, enum_per_rule=dict.fromkeys(RULE_NAMES, 1),
                   flow_per_rule=1, cli_files=1),
}

# Shapes (fixed; the scale only sets counts).  Where a solver's work grows
# exponentially in one input property, only draws in which that property has
# a fixed value are kept, so that every seed asks for about the same work:
# - type-enumeration instances: p has no approvals, so one swap seldom
#   suffices and most solves scan every single swap of the type pool;
# - flow instances: the number of approver-set types reachable by deletions
#   (the solver enumerates subsets of them) and p's approval count;
# - cli files: the total number of approvals (the oracle enumerates subsets
#   of them for deletions), the number of candidates nobody approves (each
#   needs a near-exhaustive deletion search) and the highest approval count
#   (the approvals a weak candidate must gain, which sets the depth of the
#   oracle's search over additions), and the number of voters who approve
#   both of the two highest-scoring candidates (with it fixed, a file's oracle
#   work varies about a third as much as without).
IS_RANDOM = dict(m=8, n=12, k=4, prob=0.5, budget=4, prices=(1, 3))
ENUM = dict(m=8, n=6, k=3, prob=0.5, budget=1, p_approvals=0)
FLOW = dict(m=6, n=4, k=2, prob=0.5, budget=4, prices=(1, 3), universe=8, p_approvals=1)
CLI = dict(m=6, n=6, k=2, prob=0.22, approvals=8, unapproved=1, top_score=3, top_overlap=2,
           budget=3)

_PART_SALT = {"is-random": 11, "enum": 23, "flow": 37, "cli": 53}


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    certify: Callable[[object], str | None]
    answer: Callable[[object], object]
    # Compares a result with the exhaustive oracle; used when the reference is
    # recorded and on a run's first pass, outside the timed call.  May raise
    # ResourceGuardError.
    oracle_check: Callable[[object], str | None] | None = None


# Draws screened per stream, keyed by part or by part and rule.  At the
# measured acceptance rates each pool holds two to six times the draws the
# full scale needs (CCAV seldom leaves an unapproved candidate out, hence its
# larger pool), so that no seed runs short.
POOL = {"is-random": 150, "enum": 600, "enum-ccav": 3000, "flow": 1500, "cli": 5000}


def _instance_seed(seed: int, part: str, index: int, attempt: int) -> int:
    return ((seed * 1_000_003 + _PART_SALT[part]) * 100_003 + index) * 101 + attempt


def _shuffle(mods, stream_seed: int, items: list) -> None:
    stream = mods.generators.Stream64(stream_seed)
    for i in range(len(items) - 1, 0, -1):
        j = stream.randint(0, i)
        items[i], items[j] = items[j], items[i]


def _screened_draws(mods, seed, part, stream, shape, pool, screen):
    """The draws of one fixed pool that pass ``screen``, in seeded random order,
    as (election, draw seed) pairs.

    The whole pool is screened whatever the scale, so set-up does the same
    work on every seed, and a smaller scale takes a prefix of a larger one's
    draws.
    """
    kept = []
    for attempt in range(pool):
        draw_seed = _instance_seed(seed, part, stream, attempt)
        e = mods.generators.gen_random_election(shape["m"], shape["n"], shape["prob"], draw_seed)
        if screen(e):
            kept.append((e, draw_seed))
    _shuffle(mods, _instance_seed(seed, part, stream, pool), kept)
    return kept


def _losing_elections(mods, seed, part, stream, shape, rule, count, eligible):
    """``count`` screened draws in which one of the ``eligible(e, scores)``
    candidates is outside every winning committee; p is the lowest-AV-score
    such candidate (lowest index on ties).  Yields (election, p, draw seed)."""
    rules = mods.rules
    pool = POOL.get(f"{part}-{rule.value}", POOL[part])
    draws = _screened_draws(mods, seed, part, stream, shape, pool,
                            lambda e: bool(eligible(e, rules.av_scores(e))))
    found = 0
    for e, draw_seed in draws:
        if found == count:
            return
        scores = rules.av_scores(e)
        losers = [c for c in eligible(e, scores) if not rules.is_cowinner(e, rule, shape["k"], c)]
        if losers:
            found += 1
            yield e, min(losers, key=lambda c: (scores[c], c)), draw_seed
    if found < count:
        raise RuntimeError(f"only {found} of {count} acceptable {part} draws for {rule.value}")


def _deletion_types(columns: list[int]) -> int:
    """Number of distinct approver sets candidates can reach by deletions."""
    types = set()
    for column in columns:
        sub = column
        while True:
            types.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & column
    return len(types)


def _stream_prices(mods, stream_seed: int, cells, lo_hi) -> dict:
    stream = mods.generators.Stream64(stream_seed ^ 0x5DEECE66D)
    lo, hi = lo_hi
    return {cell: stream.randint(lo, hi) for cell in cells}


# --- certification ---------------------------------------------------------


def certify_solution(mods, instance, rule, solution) -> str | None:
    """Replay, reprice and recheck a solver result; None when it holds.

    A result with ``cost=None`` claims nothing beyond infeasibility.  A
    result with a cost must replay to a co-winning election at exactly that
    price, and ``feasible`` must equal ``cost <= budget`` (solvers may report
    an over-budget optimum as infeasible; that shape is accepted as it is).
    """
    core = mods.core
    if solution.cost is None:
        return "feasible without a cost" if solution.feasible else None
    for action in solution.actions:
        if action.kind is not instance.op:
            return f"action {action} has the wrong operation"
        if instance.restricted_to_p and action.target != instance.p:
            return f"action {action} does not target p"
    try:
        final = core.apply_actions(instance.election, solution.actions)
        price = core.solution_cost(solution.actions, instance.prices)
    except core.ElectionError as exc:
        return f"replay failed: {exc}"
    if price != solution.cost:
        return f"actions price {price}, solution says {solution.cost}"
    if not mods.rules.is_cowinner(final, rule, instance.k, instance.p):
        return "p is not a co-winner after the actions"
    if solution.feasible != (solution.cost <= instance.budget):
        return f"feasible={solution.feasible} with cost {solution.cost} and budget {instance.budget}"
    return None


def _solution_answer(solution) -> list:
    return [solution.feasible, solution.cost]


def compare_with_oracle(mods, instance, rule, feasible, cost, approx_factor=1) -> str | None:
    """Check a (feasible, cost) answer against ``oracle_bribery``.

    With ``approx_factor`` > 1 a feasible answer may cost up to that factor
    times the optimum, and an infeasible one is wrong only when that factor
    times the optimum fits the budget.
    """
    truth = mods.oracle.oracle_bribery(instance, rule)
    if approx_factor == 1:
        if feasible != truth.feasible or (truth.feasible and cost != truth.cost):
            return f"answer ({feasible}, {cost}) but the oracle finds ({truth.feasible}, {truth.cost})"
        return None
    if feasible:
        if not truth.feasible or not truth.cost <= cost <= approx_factor * truth.cost:
            return f"cost {cost} is outside [opt, {approx_factor}*opt] with opt {truth.cost}"
    elif truth.feasible and approx_factor * truth.cost <= instance.budget:
        return f"infeasible, but {approx_factor}*opt = {approx_factor * truth.cost} fits the budget"
    return None


def _solver_task(mods, task_id, instance, rule, call, extra_check=None, oracle=True) -> Task:
    def certify(solution):
        return certify_solution(mods, instance, rule, solution) or (
            extra_check(solution) if extra_check else None)

    def oracle_check(solution):
        return compare_with_oracle(mods, instance, rule, solution.feasible, solution.cost)
    return Task(task_id, call, certify, _solution_answer, oracle_check if oracle else None)


# --- is-swap ---------------------------------------------------------------


def _is_swap(mods, seed, scale):
    gen, av = mods.generators, mods.avbribery
    Rule = mods.rules.Rule
    tasks = []
    for order in scale.is_vertices:
        for gi, graph in enumerate(gen.cubic_graphs(order)):
            alpha = max(h for h in range(1, order + 1) if gen.independent_set_exists(graph, h))
            for h in sorted({1, alpha, alpha + 1}):
                instance = gen.gen_is_to_av_swap(graph, h)
                expected = gen.independent_set_exists(graph, h)

                def ground_truth(solution, expected=expected, h=h):
                    if solution.feasible != expected:
                        return f"feasible={solution.feasible}, independent set exists={expected}"
                    if expected and solution.cost != 3 * h:
                        return f"cost {solution.cost}, expected 3h={3 * h}"
                    return None

                tasks.append(_solver_task(
                    mods, f"is-v{order}g{gi}-h{h}", instance, Rule.AV,
                    lambda inst=instance: av.av_priced_swap_exact(inst), ground_truth,
                    oracle=False))  # independent_set_exists is the ground truth here
    shape = IS_RANDOM
    draws = _losing_elections(mods, seed, "is-random", 0, shape, Rule.AV, scale.is_random,
                              eligible=lambda e, scores: range(e.m))
    for index, (e, p, inst_seed) in enumerate(draws):
        cells = [(v, c, d) for v in range(e.n) for c in range(e.m) for d in range(e.m) if c != d]
        instance = mods.core.BriberyInstance(
            election=e, p=p, k=shape["k"], budget=shape["budget"], op=mods.core.Op.SWAP,
            priced=True, prices=mods.core.PriceTable(
                swap=_stream_prices(mods, inst_seed, cells, shape["prices"])))
        tasks.append(_solver_task(mods, f"swap-{index}", instance, Rule.AV,
                                  lambda inst=instance: av.av_priced_swap_exact(inst)))
    return tasks


# --- fpt-mix ---------------------------------------------------------------


def _fpt_mix(mods, seed, scale):
    core, fpt = mods.core, mods.fpt
    Rule = mods.rules.Rule
    tasks = []
    for rule in Rule:
        draws = _losing_elections(
            mods, seed, "enum", RULE_NAMES.index(rule.value), ENUM, rule,
            scale.enum_per_rule[rule.value],
            eligible=lambda e, scores: [c for c in range(e.m) if scores[c] == ENUM["p_approvals"]])
        for index, (e, p, _) in enumerate(draws):
            instance = core.BriberyInstance(election=e, p=p, k=ENUM["k"], budget=ENUM["budget"],
                                            op=core.Op.SWAP)
            tasks.append(_solver_task(
                mods, f"enum-{rule.value}-{index}", instance, rule,
                lambda inst=instance, rule=rule: fpt.unpriced_type_enum(inst, rule)))
    for rule in (Rule.CCAV, Rule.GAV):
        draws = _losing_elections(
            mods, seed, "flow", RULE_NAMES.index(rule.value), FLOW, rule, scale.flow_per_rule,
            eligible=lambda e, scores: [
                c for c in range(e.m) if scores[c] == FLOW["p_approvals"]
            ] if _deletion_types(mods.core.approver_masks(e)) == FLOW["universe"] else [])
        for index, (e, p, inst_seed) in enumerate(draws):
            cells = [(v, c) for v in range(e.n) for c in range(e.m)]
            instance = core.BriberyInstance(
                election=e, p=p, k=FLOW["k"], budget=FLOW["budget"], op=core.Op.DELETE,
                priced=True, prices=core.PriceTable(
                    delete=_stream_prices(mods, inst_seed, cells, FLOW["prices"])))
            tasks.append(_solver_task(
                mods, f"flow-{rule.value}-{index}", instance, rule,
                lambda inst=instance, rule=rule: fpt.ccav_gav_flow_bribery(inst, rule)))
    return tasks


# --- cli-mix ---------------------------------------------------------------


def run_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI command in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_rank(text: str) -> list[tuple[str, int | None]]:
    margins = []
    for line in text.splitlines()[1:]:
        name, _, value = line.partition(": ")
        margins.append((name, None if value == "inf" else int(value)))
    return margins


def _certify_rank(mods, e, rule, k, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    margins = _parse_rank(text)
    if sorted(name for name, _ in margins) != sorted(c.name for c in e.candidates):
        return "rank does not list every candidate once"
    if margins != sorted(margins, key=lambda item: (item[1] is None, item[1], item[0])):
        return "rank is not sorted by margin"
    for name, margin in margins:
        winning = mods.rules.is_cowinner(e, rule, k, e.candidate_index(name))
        if winning != (margin == 0):
            return f"{name}: margin {margin} but co-winner={winning}"
    return None


def _oracle_rank(mods, e, rule, k, op, result) -> str | None:
    for name, margin in _parse_rank(result[1]):
        truth = mods.oracle.oracle_margin(e, rule, k, e.candidate_index(name), op)
        if (None if truth == float("inf") else truth) != margin:
            return f"{name}: margin {margin}, oracle margin {truth}"
    return None


def _parse_bribe(text: str) -> tuple[bool, int | None, str | None]:
    """(feasible, cost, actions text) from ``bribe`` output."""
    fields = dict(line.split(": ", 1) for line in text.splitlines()[1:] if ": " in line)
    cost = int(fields["cost"]) if "cost" in fields else None
    return fields.get("feasible") == "yes", cost, fields.get("actions")


def _certify_bribe(mods, instance, rule, result) -> str | None:
    code, text = result
    feasible, cost, actions_text = _parse_bribe(text)
    if code != (0 if feasible else 1):
        return f"exit code {code} with feasible={feasible}"
    actions = ()
    if actions_text:
        actions = tuple(mods.core.parse_solution(
            "\n".join(actions_text.split("; ")), instance.election))
    return certify_solution(mods, instance, rule, mods.core.BriberySolution(actions, cost, feasible))


def _cli_mix(mods, seed, scale, workdir: Path):
    core, cli, rules = mods.core, mods.cli, mods.rules
    Rule = rules.Rule
    OPS = {"add": core.Op.ADD, "delete": core.Op.DELETE, "swap": core.Op.SWAP}
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    bribes = [("sav", "add", True), ("gav", "add", True), ("rav", "add", True),
              ("av", "add", False), ("av", "delete", False), ("av", "swap", False)]
    def acceptable(e):
        columns = core.approver_masks(e)
        counts = [column.bit_count() for column in columns]
        first, second = sorted(range(len(columns)), key=lambda c: -counts[c])[:2]
        return (sum(counts) == CLI["approvals"] and counts.count(0) == CLI["unapproved"]
                and max(counts) == CLI["top_score"]
                and (columns[first] & columns[second]).bit_count() == CLI["top_overlap"])

    # Draws are screened in memory with the generator `gen` itself calls; only
    # the accepted draws are written, by `gen`.
    draws = _screened_draws(mods, seed, "cli", 0, CLI, POOL["cli"], acceptable)
    if len(draws) < scale.cli_files:
        raise RuntimeError(f"only {len(draws)} of {scale.cli_files} acceptable cli draws")
    for index, (drawn, draw_seed) in enumerate(draws[:scale.cli_files]):
        path = workdir / f"cli-s{seed}-{index}.elect"
        code, _ = run_cli(cli, [
            "gen", "--kind", "random", "--m", str(CLI["m"]), "--n", str(CLI["n"]),
            "--prob", str(CLI["prob"]), "--seed", str(draw_seed), "--k", str(CLI["k"]),
            "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"gen failed with exit code {code}")
        e, _, k = core.parse_election(path.read_text(encoding="utf-8"))
        if core.approver_masks(e) != core.approver_masks(drawn):
            raise RuntimeError(f"{path.name} does not hold the screened draw")
        for rule in Rule:
            for op in ("add", "delete", "swap"):
                argv = ["rank", str(path), "--rule", rule.value, "--op", op]
                # Non-AV rank runs the oracle itself, so only AV ranks are cross-checked.
                oracle_check = None
                if rule is Rule.AV:
                    oracle_check = lambda result, e=e, k=k, op=OPS[op]: _oracle_rank(
                        mods, e, Rule.AV, k, op, result)
                tasks.append(Task(
                    f"rank-{index}-{rule.value}-{op}",
                    lambda argv=argv: run_cli(cli, argv),
                    lambda result, e=e, rule=rule, k=k: _certify_rank(mods, e, rule, k, result),
                    list, oracle_check))
        scores = rules.av_scores(e)
        p = min(range(e.m), key=lambda c: (scores[c], c))
        for rule_name, op, restricted in bribes:
            argv = ["bribe", str(path), "--rule", rule_name, "--op", op,
                    "--p", e.candidates[p].name, "--budget", str(CLI["budget"])]
            if restricted:
                argv.append("--restrict-to-p")
            instance = core.BriberyInstance(
                election=e, p=p, k=k, budget=CLI["budget"],
                op=OPS[op], restricted_to_p=restricted)
            rule = Rule(rule_name)
            tasks.append(Task(
                f"bribe-{index}-{rule_name}-{op}",
                lambda argv=argv: run_cli(cli, argv),
                lambda result, inst=instance, rule=rule: _certify_bribe(mods, inst, rule, result),
                list,
                lambda result, inst=instance, rule=rule: compare_with_oracle(
                    mods, inst, rule, *_parse_bribe(result[1])[:2],
                    approx_factor=2 if rule is Rule.SAV else 1)))
    return tasks


def build(mods, workload: str, seed: int, scale: Scale, workdir: Path) -> list[Task]:
    """The workload's solve list in a seeded random order.

    The machine's speed drifts by tens of percent over seconds, so each kind of
    solve is spread over the whole pass rather than run back to back; a slow
    stretch then touches every kind a little instead of one kind entirely.
    """
    if workload == "is-swap":
        tasks = _is_swap(mods, seed, scale)
    elif workload == "fpt-mix":
        tasks = _fpt_mix(mods, seed, scale)
    else:
        tasks = _cli_mix(mods, seed, scale, workdir)
    _shuffle(mods, seed, tasks)
    return tasks
