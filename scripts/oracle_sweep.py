"""Cross-validate every constructive solver against the brute-force oracle.

A lighter, configurable version of the acceptance suite; useful when hunting
for counterexamples with bigger counts or different size mixes.  The
``margins`` lane checks the oracle against itself: the shared sweep
``oracle_margins`` against one ``oracle_margin`` call per candidate, for every
rule and operation.
"""

import argparse
import time

from abcbribery import Op, Rule
from abcbribery.approx import gav_add_for_p, rav_add_for_p
from abcbribery.avbribery import av_add, av_delete, av_priced_swap_exact, av_swap_unit
from abcbribery.fpt import (
    add_for_p_subset_enum,
    ccav_gav_flow_bribery,
    priced_swap_to_p_type_enum,
    unpriced_type_enum,
)
from abcbribery.generators import SuiteConfig, suite_instances
from abcbribery.oracle import oracle_bribery, oracle_margin, oracle_margins

LANES = {
    "av-add": (av_add, Rule.AV, dict(op=Op.ADD, priced=True)),
    "av-delete": (av_delete, Rule.AV, dict(op=Op.DELETE, priced=True)),
    "av-swap-unit": (av_swap_unit, Rule.AV, dict(op=Op.SWAP)),
    "av-swap-priced": (av_priced_swap_exact, Rule.AV, dict(op=Op.SWAP, priced=True)),
    "gav-add": (gav_add_for_p, Rule.GAV, dict(op=Op.ADD, priced=True, restricted_to_p=True)),
    "rav-add": (rav_add_for_p, Rule.RAV, dict(op=Op.ADD, restricted_to_p=True)),
    "subset-ccav": (lambda i: add_for_p_subset_enum(i, Rule.CCAV), Rule.CCAV,
                    dict(op=Op.ADD, priced=True, restricted_to_p=True, max_voters=5)),
    "typeenum-pav": (lambda i: unpriced_type_enum(i, Rule.PAV), Rule.PAV,
                     dict(op=Op.SWAP, max_voters=4)),
    # GAV and RAV enumerate over every candidate, not a per-type pool.
    "typeenum-gav": (lambda i: unpriced_type_enum(i, Rule.GAV), Rule.GAV,
                     dict(op=Op.SWAP, max_voters=4)),
    "typeenum-rav": (lambda i: unpriced_type_enum(i, Rule.RAV), Rule.RAV,
                     dict(op=Op.SWAP, max_voters=4)),
    "pricedswap-sav": (lambda i: priced_swap_to_p_type_enum(i, Rule.SAV), Rule.SAV,
                       dict(op=Op.SWAP, priced=True, restricted_to_p=True,
                            max_candidates=5, max_voters=4)),
    "flow-ccav": (lambda i: ccav_gav_flow_bribery(i, Rule.CCAV), Rule.CCAV,
                  dict(op=Op.ADD, priced=True, max_candidates=5, max_voters=4,
                       price_choices=(1, 2, 3))),
    "flow-gav": (lambda i: ccav_gav_flow_bribery(i, Rule.GAV), Rule.GAV,
                 dict(op=Op.DELETE, priced=True, max_candidates=5, max_voters=4,
                      price_choices=(1, 2))),
}

MARGINS = "margins"


def margin_mismatches(count: int, seed: int) -> tuple[int, int]:
    """Shared-sweep margins against per-candidate margins, ``count`` instances
    per operation; prints each mismatch and returns (instances, mismatches)."""
    bad = 0
    for op in Op:
        cfg = SuiteConfig(op=op, count=count, seed=seed, priced=True, max_candidates=5,
                          max_voters=5)
        for index, instance in enumerate(suite_instances(cfg)):
            e, k, prices = instance.election, instance.k, instance.prices
            for rule in Rule:
                got = oracle_margins(e, rule, k, op, prices)
                want = [oracle_margin(e, rule, k, p, op, prices) for p in range(e.m)]
                if got != want:
                    bad += 1
                    print(f"  mismatch in {MARGINS} ({op.value} #{index}, {rule.value}): "
                          f"got {got}, per candidate {want}")
    return count * len(Op), bad


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    lanes = sorted(LANES) + [MARGINS]
    parser.add_argument("--lanes", nargs="*", default=lanes, choices=lanes)
    args = parser.parse_args()
    grand_total = 0
    grand_bad = 0
    for lane in args.lanes:
        if lane == MARGINS:
            start = time.time()
            total, bad = margin_mismatches(args.count, args.seed)
            grand_total += total
            grand_bad += bad
            print(f"{lane}: {total} instances, {bad} mismatches, {time.time() - start:.1f}s")
            continue
        solver, rule, shape = LANES[lane]
        cfg = SuiteConfig(count=args.count, seed=args.seed, **shape)
        start = time.time()
        bad = 0
        for instance in suite_instances(cfg):
            mine = solver(instance)
            truth = oracle_bribery(instance, rule)
            got = (mine.feasible, mine.cost if mine.feasible else None)
            want = (truth.feasible, truth.cost if truth.feasible else None)
            if got != want:
                bad += 1
                print(f"  mismatch in {lane}: got {got}, oracle {want}")
        elapsed = time.time() - start
        grand_total += args.count
        grand_bad += bad
        print(f"{lane}: {args.count} instances, {bad} mismatches, {elapsed:.1f}s")
    print(f"total: {grand_total} instances, {grand_bad} mismatches")
    return 1 if grand_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
