"""Cross-validate every constructive solver against the brute-force oracle.

A lighter, configurable version of the acceptance suite; useful when hunting
for counterexamples with bigger counts or different size mixes.  Each lane is
a rule, a ``solve`` algorithm and a suite shape; the routing table picks the
solver, and every answer, the oracle's included, is certified by ``solve``.
Every row of the routing table is reached by some lane.  Each answer is
checked against its row's guarantee: an exact row matches the oracle's
verdict and cost, a k-approximation row (``sav-add*``, ``rav-add-priced``)
costs between the optimum and k times it, and is infeasible only when k
times the optimum is above the budget.
Every such lane keeps drawing from its seeded suite until ``--count``
instances in which p is not already a co-winner, so each one reaches its
solver instead of being answered at cost 0.  The ``subset-*`` solver is
the oracle's restricted-add search behind a voter guard, the ``flow-gav*``
solver is the oracle behind the coverage search's voter guard, and the
``pricedswap-*`` solver builds options for that search, so those lanes check
the guards and the option builder; the brute force over the searched options
in ``tests/test_fpt.py`` checks the search itself.  The ``flow-*-scaled``
lanes price deletions in the millions, so their searches finish only if they
read the reachable cost levels alone.  The ``fptn-ccav-delete`` lane reaches
the coverage search through ``fpt-n``'s own row.  The ``typeenum-*`` lanes
run the unit-price type enumeration on swaps, the ``typeenum-add-*`` lanes
on additions.  The ``margins``
lane checks the oracle against itself on ``--count`` priced instances per
operation: the shared sweep ``oracle_margins`` against one ``oracle_margin``
call per candidate, for every rule and operation, and, for each finite
margin, ``solve(..., "oracle")`` at a budget of exactly that margin, whose
certified witness must cost it.  ``margins-unit`` runs the same check on
unit-price suites, where swaps take the oracle's closed-form options, and
adds one check of swaps restricted to p: per candidate, the restricted
margin's oracle witness and the ``exact`` solver, both at a budget of that
margin, must cost it.  Neither needs screening, since each asks about
every candidate, losers included.  An answer that fails ``solve``'s certificate
counts as a mismatch, and the sweep goes on.
"""

import argparse
import itertools
import math
import sys
import time
from fractions import Fraction

from abcbribery import (BriberyInstance, BriberySolution, CertificationError, Op, Rule, is_cowinner,
                        solve)
from abcbribery.generators import SuiteConfig, suite_instances
from abcbribery.oracle import oracle_margin, oracle_margins
from abcbribery.solve import APPROX2, APPROX_EPS, EXACT, route

# Each guarantee's factor over the optimum, at solve's default epsilon of 1/10.
FACTORS = {EXACT: 1, APPROX2: 2, APPROX_EPS: 1 + Fraction(1, 10)}

LANES = {
    "av-add": (Rule.AV, "exact", dict(op=Op.ADD, priced=True)),
    "av-delete": (Rule.AV, "exact", dict(op=Op.DELETE, priced=True)),
    "av-swap-unit": (Rule.AV, "exact", dict(op=Op.SWAP)),
    "av-swap-priced": (Rule.AV, "exact", dict(op=Op.SWAP, priced=True)),
    "av-swap-priced-p": (Rule.AV, "exact", dict(op=Op.SWAP, priced=True, restricted_to_p=True)),
    "gav-add": (Rule.GAV, "exact", dict(op=Op.ADD, priced=True, restricted_to_p=True)),
    "rav-add": (Rule.RAV, "auto", dict(op=Op.ADD, restricted_to_p=True)),
    "rav-add-priced": (Rule.RAV, "auto", dict(op=Op.ADD, priced=True, restricted_to_p=True)),
    # SAV's 2-approximation has two rows: unpriced additions, and priced ones for p.
    "sav-add": (Rule.SAV, "auto", dict(op=Op.ADD)),
    "sav-add-p": (Rule.SAV, "auto", dict(op=Op.ADD, priced=True, restricted_to_p=True)),
    "subset-ccav": (Rule.CCAV, "fpt-n",
                    dict(op=Op.ADD, priced=True, restricted_to_p=True, max_voters=5)),
    "subset-gav": (Rule.GAV, "fpt-n",
                   dict(op=Op.ADD, priced=True, restricted_to_p=True, max_voters=5)),
    "subset-rav": (Rule.RAV, "fpt-n",
                   dict(op=Op.ADD, priced=True, restricted_to_p=True, max_voters=5)),
    # Under "exact" AV unit swaps route to the AV greedy, not the enumeration.
    "typeenum-av": (Rule.AV, "fpt-n", dict(op=Op.SWAP, max_voters=4)),
    "typeenum-sav": (Rule.SAV, "fpt-n", dict(op=Op.SWAP, max_voters=4)),
    "typeenum-ccav": (Rule.CCAV, "exact", dict(op=Op.SWAP, max_voters=4)),
    "typeenum-pav": (Rule.PAV, "exact", dict(op=Op.SWAP, max_voters=4)),
    # GAV and RAV enumerate over every candidate, not a per-type pool.
    "typeenum-gav": (Rule.GAV, "exact", dict(op=Op.SWAP, max_voters=4)),
    "typeenum-rav": (Rule.RAV, "exact", dict(op=Op.SWAP, max_voters=4)),
    # Unit additions: "fpt-n" sends unrestricted ones to the enumeration for every rule.
    **{f"typeenum-add-{rule.value}": (rule, "fpt-n", dict(op=Op.ADD, max_voters=4))
       for rule in (Rule.AV, Rule.SAV, Rule.CCAV, Rule.PAV, Rule.GAV, Rule.RAV)},
    "pricedswap-sav": (Rule.SAV, "exact", dict(op=Op.SWAP, priced=True, restricted_to_p=True,
                                                max_candidates=5, max_voters=4)),
    "pricedswap-rav": (Rule.RAV, "exact", dict(op=Op.SWAP, priced=True, restricted_to_p=True,
                                                max_candidates=5, max_voters=4)),
    "flow-ccav": (Rule.CCAV, "exact", dict(op=Op.ADD, priced=True, max_candidates=5,
                                           max_voters=4, price_choices=(1, 2, 3))),
    "flow-gav": (Rule.GAV, "exact", dict(op=Op.DELETE, priced=True, max_candidates=5,
                                         max_voters=4, price_choices=(1, 2))),
    "flow-ccav-delete": (Rule.CCAV, "exact", dict(op=Op.DELETE, priced=True, max_candidates=6,
                                                  max_voters=4)),
    # Many candidates and few voters: the shape the coverage search is built for.
    "flow-ccav-wide": (Rule.CCAV, "exact", dict(op=Op.ADD, priced=True, max_candidates=12,
                                                max_voters=4, approval_probability=0.3,
                                                max_budget=6)),
    # Unrestricted: GAV additions for p route to approx's round cover (the gav-add lane).
    "flow-gav-add": (Rule.GAV, "exact", dict(op=Op.ADD, priced=True, max_candidates=6,
                                             max_voters=4)),
    "fptn-ccav-delete": (Rule.CCAV, "fpt-n", dict(op=Op.DELETE, priced=True, max_candidates=6,
                                                  max_voters=4)),
    # Prices in the millions (gcd 1): both cost-level sweeps must read only reachable levels.
    **{f"flow-{rule.value}-scaled": (rule, "exact", dict(
        op=Op.DELETE, priced=True, max_candidates=6, max_voters=4, max_budget=6 * 10**6,
        price_choices=(10**6, 2 * 10**6, 3 * 10**6 + 1)))
       for rule in (Rule.CCAV, Rule.GAV)},
}


def lane_instances(lane: str, count: int, seed: int):
    """The lane's first ``count`` seeded instances in which p loses."""
    rule, _, shape = LANES[lane]
    draws = suite_instances(SuiteConfig(count=sys.maxsize, seed=seed, **shape))
    return itertools.islice((inst for inst in draws
                             if not is_cowinner(inst.election, rule, inst.k, inst.p)), count)


def _within_guarantee(instance: BriberyInstance, rule: Rule, algorithm: str,
                      mine: BriberySolution, truth: BriberySolution) -> bool:
    """Whether the answer keeps its row's guarantee against the oracle's optimum.

    Within the budget, a factor-k answer costs between the optimum and k
    times it; above the budget, k times the optimum must be too.
    """
    factor = FACTORS[route(instance, rule, algorithm).guarantee]
    if mine.feasible:
        return truth.feasible and truth.cost <= mine.cost <= factor * truth.cost
    return not truth.feasible or factor * truth.cost > instance.budget


MARGINS = {"margins": True, "margins-unit": False}  # lane -> priced suites


def _budget_answer(instance: BriberyInstance, rule: Rule, algorithm: str, where: str,
                   margin: int) -> int:
    """1, printing it, when ``algorithm`` fails to certify an answer costing
    ``margin`` at that budget; 0 otherwise."""
    try:
        answer = solve(instance, rule, algorithm)[0]
    except CertificationError as exc:
        print(f"  mismatch in {where}: margin {margin}, uncertified: {exc}")
        return 1
    if not answer.feasible or answer.cost != margin:
        print(f"  mismatch in {where}: margin {margin}, {algorithm} answer {answer}")
        return 1
    return 0


def margin_mismatches(lane: str, count: int, seed: int) -> tuple[int, int]:
    """Shared-sweep margins against per-candidate margins and against the
    oracle's witness at budget = margin, ``count`` instances per operation;
    on unit prices also restricted swap margins against their oracle witness
    and the ``exact`` solver; prints each mismatch and returns (instances,
    mismatches)."""
    priced = MARGINS[lane]
    bad = 0
    for op in Op:
        cfg = SuiteConfig(op=op, count=count, seed=seed, priced=priced, max_candidates=5,
                          max_voters=5)
        for index, instance in enumerate(suite_instances(cfg)):
            e, k, prices = instance.election, instance.k, instance.prices
            for rule in Rule:
                got = oracle_margins(e, rule, k, op, prices)
                want = [oracle_margin(e, rule, k, p, op, prices) for p in range(e.m)]
                if got != want:
                    bad += 1
                    print(f"  mismatch in {lane} ({op.value} #{index}, {rule.value}): "
                          f"got {got}, per candidate {want}")
                for p, margin in enumerate(got):
                    if margin != math.inf:
                        bad += _budget_answer(
                            BriberyInstance(e, p, k, margin, op, priced=priced, prices=prices),
                            rule, "oracle", f"{lane} ({op.value} #{index}, {rule.value}, p={p})",
                            margin)
                if op is not Op.SWAP or priced:
                    continue
                for p in range(e.m):
                    margin = oracle_margin(e, rule, k, p, op, restricted=True)
                    if margin == math.inf:
                        continue
                    inst = BriberyInstance(e, p, k, margin, op, restricted_to_p=True)
                    where = f"{lane} (swap to p #{index}, {rule.value}, p={p})"
                    for algorithm in ("oracle", "exact"):
                        bad += _budget_answer(inst, rule, algorithm, where, margin)
    return count * len(Op), bad


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    lanes = sorted(LANES) + list(MARGINS)
    parser.add_argument("--lanes", nargs="*", default=lanes, choices=lanes)
    args = parser.parse_args()
    grand_total = 0
    grand_bad = 0
    for lane in args.lanes:
        if lane in MARGINS:
            start = time.time()
            total, bad = margin_mismatches(lane, args.count, args.seed)
            grand_total += total
            grand_bad += bad
            print(f"{lane}: {total} instances, {bad} mismatches, {time.time() - start:.1f}s")
            continue
        rule, algorithm, _ = LANES[lane]
        start = time.time()
        bad = 0
        for instance in lane_instances(lane, args.count, args.seed):
            try:
                mine = solve(instance, rule, algorithm)[0]
                truth = solve(instance, rule, "oracle")[0]
            except CertificationError as exc:
                bad += 1
                print(f"  mismatch in {lane}: uncertified: {exc}")
                continue
            if not _within_guarantee(instance, rule, algorithm, mine, truth):
                bad += 1
                got = (mine.feasible, mine.cost if mine.feasible else None)
                want = (truth.feasible, truth.cost if truth.feasible else None)
                print(f"  mismatch in {lane}: got {got}, oracle {want}")
        elapsed = time.time() - start
        grand_total += args.count
        grand_bad += bad
        print(f"{lane}: {args.count} instances, {bad} mismatches, {elapsed:.1f}s")
    print(f"total: {grand_total} instances, {grand_bad} mismatches")
    return 1 if grand_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
