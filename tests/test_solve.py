"""The routing table behind solve(), and the certificate every answer passes."""

import importlib.util
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import abcbribery
from abcbribery import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    CertificationError,
    Op,
    PriceTable,
    Rule,
    UnsupportedCombination,
    certify,
    is_cowinner,
    solution_cost,
    solve,
)
from abcbribery import approx, avbribery, fpt, oracle
from abcbribery.cli import main
from abcbribery.generators import Stream64, SuiteConfig, suite_instances
from abcbribery.oracle import oracle_margin
from abcbribery.solve import ALGORITHMS, ROUTES, route

from helpers import election_certify, random_election, verdict

CELLS = [(rule, op, priced, restricted) for rule in Rule for op in Op
         for priced in (False, True) for restricted in (False, True)
         if not (restricted and op is Op.DELETE)]
SOLVERS = {
    avbribery: ("av_add", "av_delete", "av_swap_unit", "av_priced_swap_exact"),
    approx: ("sav_add_for_p_2approx", "gav_add_for_p", "rav_add_for_p"),
    fpt: ("add_for_p_subset_enum", "unpriced_type_enum", "priced_swap_to_p_type_enum",
          "ccav_gav_flow_bribery"),
    oracle: ("oracle_bribery",),
}


def _instance(e, p, k, budget, cell, prices):
    _, op, priced, restricted = cell
    return BriberyInstance(e, p, k, budget, op, priced, restricted,
                           prices if priced else PriceTable())


def _routes():
    """Each (cell, algorithm) pair some row serves, with its row."""
    e = random_election(Stream64(1), 3, 2)
    rows = {}
    for cell in CELLS:
        for algorithm in ALGORITHMS:
            try:
                rows[cell, algorithm] = route(_instance(e, 0, 1, 1, cell, PriceTable()), cell[0],
                                              algorithm)
            except UnsupportedCombination:
                pass
    return rows


ROWS = _routes()
SUPPORTED = list(ROWS)


def test_table_support_is_pinned(monkeypatch):
    # Each solver is replaced by a stub returning its name, so the rows are
    # seen to call it through its module, with the instance first.
    for module, names in SOLVERS.items():
        for name in names:
            monkeypatch.setattr(module, name, lambda inst, *args, _name=name: _name)
    per_algorithm, per_solver, per_guarantee = Counter(), Counter(), Counter()
    for (cell, algorithm), row in ROWS.items():
        per_algorithm[algorithm] += 1
        per_solver[row.solver(None, cell[0], Fraction(1, 10))] += 1
        per_guarantee[row.guarantee] += 1
    assert len(CELLS) == 60
    assert per_algorithm == {"auto": 45, "exact": 43, "approx": 5, "fpt-n": 42, "oracle": 60}
    assert per_solver == {
        "oracle_bribery": 60, "unpriced_type_enum": 47, "ccav_gav_flow_bribery": 26,
        "priced_swap_to_p_type_enum": 16, "add_for_p_subset_enum": 12, "av_add": 8,
        "sav_add_for_p_2approx": 6, "av_delete": 4, "av_swap_unit": 4,
        "av_priced_swap_exact": 4, "gav_add_for_p": 4, "rav_add_for_p": 4}
    assert per_guarantee == {"exact": 186, "2-approximation": 6,
                             "(1+{epsilon})-approximation": 3}


def _seeded_elections(count):
    stream = Stream64(606)
    for _ in range(count):
        m, n = stream.randint(2, 4), stream.randint(1, 4)
        e = random_election(stream, m, n)
        table = {}
        for v in range(n):
            for c in range(m):
                table[(v, c)] = stream.choice((1, 2, 3, 1, FORBIDDEN))
        swap = {(v, c, d): stream.choice((1, 2, 3)) for v in range(n)
                for c in range(m) for d in range(m) if c != d}
        prices = PriceTable(add=table, delete=dict(table), swap=swap)
        yield e, stream.randint(0, m - 1), stream.randint(1, m), stream.randint(0, 4), prices


@pytest.mark.parametrize("case", range(6))
def test_every_route_certified_and_within_its_guarantee(case):
    e, p, k, budget, prices = list(_seeded_elections(6))[case]
    epsilon = Fraction(1, 10)
    for cell, algorithm in SUPPORTED:
        rule = cell[0]
        inst = _instance(e, p, k, budget, cell, prices)
        got, guarantee = solve(inst, rule, algorithm, epsilon)
        assert certify(inst, rule, got) is got
        truth = solve(inst, rule, "oracle")[0]
        where = (cell, algorithm, got)
        if guarantee == "exact":
            assert verdict(got) == verdict(truth), where
            continue
        factor = 2 if guarantee == "2-approximation" else 1 + epsilon
        assert guarantee in ("2-approximation", f"(1+{epsilon})-approximation")
        best = oracle_margin(e, rule, k, p, cell[1], inst.prices, restricted=cell[3])
        if got.cost is not None:
            assert best <= got.cost <= factor * best, where
        else:
            assert best == math.inf or factor * best > budget, where


def test_every_route_answers_a_winning_p_with_no_action():
    # Free prices let a search reach a winning election through needless
    # free actions; where p already wins, every row answers the start
    # election itself.
    answered = Counter()
    for cell, algorithm in SUPPORTED:
        rule, op, priced, restricted = cell
        cfg = SuiteConfig(op=op, count=20, seed=21, priced=priced, restricted_to_p=restricted,
                          price_choices=(0, 1, 2), max_candidates=5, max_voters=5)
        for inst in suite_instances(cfg):
            if is_cowinner(inst.election, rule, inst.k, inst.p):
                got = solve(inst, rule, algorithm)[0]
                assert got == BriberySolution((), 0, True), (cell, algorithm, inst)
                answered[ROUTES.index(ROWS[cell, algorithm])] += 1
    assert sorted(answered) == list(range(len(ROUTES))), answered


def test_every_empty_cell_exits_4(tmp_path, capsys, e0_text):
    path = tmp_path / "e0.elect"
    path.write_text(e0_text)
    empty = [(cell, algorithm) for cell in CELLS for algorithm in ALGORITHMS
             if (cell, algorithm) not in SUPPORTED]
    assert len(empty) == 5 * 60 - len(SUPPORTED) == 105
    for (rule, op, priced, restricted), algorithm in empty:
        flags = ["--priced"] * priced + ["--restrict-to-p"] * restricted
        code = main(["bribe", str(path), "--rule", rule.value, "--op", op.value, "--p", "p",
                     "--budget", "3", "--algorithm", algorithm, *flags])
        assert code == 4, (rule, op, priced, restricted, algorithm)
        assert "unsupported" in capsys.readouterr().err


def test_unknown_algorithm_is_a_value_error(e0):
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(BriberyInstance(e0, 3, 2, 3, Op.ADD), Rule.AV, "greedy")


def test_over_budget_witness_is_certified(e0):
    inst = BriberyInstance(e0, 3, 2, 0, Op.ADD)
    sol, guarantee = solve(inst, Rule.AV)
    assert (sol.cost, sol.feasible, guarantee) == (4, False, "exact")


def _tampered(e0):
    """Answers that each fail certify's check named by their key, with its
    message.  Most fail later checks too, which pins the order of checks."""
    swap = BriberyInstance(e0, 3, 2, 3, Op.SWAP)
    acts = solve(swap, Rule.AV)[0].actions  # v1 a->p, v2 b->p, v3 a->p at cost 3
    add = BriberyInstance(e0, 3, 2, 9, Op.ADD)
    for_p = BriberyInstance(e0, 3, 2, 9, Op.ADD, restricted_to_p=True)
    delete, for_c = AtomicAction(Op.DELETE, 7, source=3), AtomicAction(Op.ADD, 2, target=2)
    forbidden = BriberyInstance(e0, 3, 2, 3, Op.SWAP, priced=True,
                                prices=PriceTable(swap={(1, 1, 3): FORBIDDEN}))
    return {
        # the deletion would not replay either: v8 does not approve p
        "wrong operation": (swap, BriberySolution(acts + (delete,), 4, True),
                            f"{delete} is outside the instance's operation"),
        "not toward p": (for_p, BriberySolution((for_c,), 1, True),
                         f"{for_c} is outside the instance's operation"),
        "invalid action": (swap, BriberySolution(
            (AtomicAction(Op.SWAP, 2, source=1, target=3),) + acts[1:], 4, True),
            "the actions do not replay: v3 does not approve b"),
        "forbidden price": (forbidden, BriberySolution(acts, 4, True),
                            f"the actions do not replay: forbidden operation: {acts[1]}"),
        "truncated": (swap, BriberySolution(acts[:-1], 3, False), "the actions cost 2, not 3"),
        "over-priced": (swap, BriberySolution(acts, 4, True), "the actions cost 3, not 4"),
        "not a co-winner": (add, BriberySolution((for_c,), 1, False),
                            "the actions do not make p a co-winner"),
        "wrong feasible": (swap, BriberySolution(acts, 3, False),
                           "feasible is False at cost 3 and budget 3"),
    }


@pytest.mark.parametrize("name", ["wrong operation", "not toward p", "invalid action",
                                  "forbidden price", "truncated", "over-priced", "not a co-winner",
                                  "wrong feasible"])
def test_certify_rejection_messages(e0, name):
    # In process, so each tampered answer is seen to trip the check it is
    # named for, not an earlier one.
    inst, bad, message = _tampered(e0)[name]
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        certify(inst, Rule.AV, bad)


def _variants(instance, solution):
    """The answer, then tampered copies of it: each fails some check of
    certify, or passes them all, as it happens."""
    yield solution
    if solution.cost is None:
        return
    acts, cost, feasible = solution.actions, solution.cost, solution.feasible
    e, p, op = instance.election, instance.p, instance.op
    yield replace(solution, cost=cost + 1)
    yield replace(solution, feasible=not feasible)
    if acts:
        yield replace(solution, actions=acts[:-1], cost=solution_cost(acts[:-1], instance.prices))
        yield replace(solution, actions=acts[::-1])
        yield replace(solution, actions=acts + acts[-1:])
        yield replace(solution, actions=(replace(acts[0], voter=(acts[0].voter + 1) % e.n),)
                      + acts[1:])
    other = (p + 1) % e.m
    extra = {Op.ADD: [AtomicAction(Op.ADD, e.n, target=p), AtomicAction(Op.ADD, 0, target=e.m),
                      AtomicAction(Op.ADD, 0, target=other), AtomicAction(Op.DELETE, 0, source=p)],
             Op.DELETE: [AtomicAction(Op.DELETE, e.n, source=p),
                         AtomicAction(Op.DELETE, 0, source=e.m), AtomicAction(Op.ADD, 0, target=p)],
             Op.SWAP: [AtomicAction(Op.SWAP, e.n, source=other, target=p),
                       AtomicAction(Op.SWAP, 0, source=e.m, target=p),
                       AtomicAction(Op.ADD, 0, target=p)]}[op]
    for action in extra:
        yield replace(solution, actions=acts + (action,), cost=cost + 1)


def _outcome(check, instance, rule, solution):
    try:
        check(instance, rule, solution)
    except CertificationError as exc:
        return str(exc)
    return "accepted"


def test_certify_matches_election_level_reference():
    # Seeded answers of every oracle_sweep lane and tampered copies of them:
    # certify on ballot masks and the Election-level reference accept the
    # same ones and reject the rest with the same message.
    spec = importlib.util.spec_from_file_location(
        "oracle_sweep", Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    kinds = ("outside the instance's operation", "do not replay", "the actions cost",
             "co-winner", "feasible is")
    seen = Counter()
    for lane, (rule, algorithm, _) in sweep.LANES.items():
        for inst in sweep.lane_instances(lane, 4, 1):
            for bad in _variants(inst, solve(inst, rule, algorithm)[0]):
                got = _outcome(certify, inst, rule, bad)
                assert got == _outcome(election_certify, inst, rule, bad), (lane, inst, bad)
                seen[got if got == "accepted" else next(k for k in kinds if k in got)] += 1
    assert seen.keys() == {"accepted", *kinds}, seen


TAMPER_SCRIPT = """
import sys
from abcbribery import AtomicAction, BriberyInstance, BriberySolution, CertificationError, Op, Rule
from abcbribery import certify, make_election, solve
e = make_election("a b c p".split(), [("v1", "abc"), ("v2", "bc"), ("v3", "a"), ("v4", "ab"),
                  ("v5", "ab"), ("v6", "ac"), ("v7", "bcp"), ("v8", "a"), ("v9", "a")])
swap = BriberyInstance(e, 3, 2, 3, Op.SWAP)
sol, _ = solve(swap, Rule.AV)
acts = sol.actions
add = BriberyInstance(e, 3, 2, 9, Op.ADD, restricted_to_p=True)
for_p, _ = solve(add, Rule.AV)
# Each tampered answer fails exactly one check: the extra deletion and the
# addition for c keep p a co-winner at their true price.
tampered = {
    "over-priced": (swap, BriberySolution(acts, sol.cost + 1, True)),
    "truncated": (swap, BriberySolution(acts[:-1], sol.cost - 1, True)),
    "wrong feasible": (swap, BriberySolution(acts, sol.cost, False)),
    "invalid action": (swap, BriberySolution(
        (AtomicAction(Op.SWAP, 2, source=1, target=3),) + acts[1:], sol.cost, True)),
    "wrong operation": (swap, BriberySolution(
        acts + (AtomicAction(Op.DELETE, 7, source=0),), sol.cost + 1, False)),
    "not toward p": (add, BriberySolution(
        for_p.actions + (AtomicAction(Op.ADD, 2, target=2),), for_p.cost + 1, True)),
}
for name, (inst, bad) in tampered.items():
    try:
        certify(inst, Rule.AV, bad)
    except CertificationError:
        continue
    sys.exit(f"certify accepted a {name} solution")
print(f"optimize={sys.flags.optimize} rejected={len(tampered)}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_certify_rejects_tampered_solutions(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(abcbribery.__file__).parents[1]))
    run = subprocess.run([sys.executable, *flags, "-c", TAMPER_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == f"optimize={len(flags)} rejected=6"
