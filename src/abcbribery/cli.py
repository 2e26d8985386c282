"""Command-line interface.

Exit codes: 0 success (bribe: feasible), 1 infeasible, 2 parse or parameter
error, 3 resource guard tripped, 4 unsupported rule/operation combination
without an explicit oracle request, 5 invalid action in a solution file.

``bribe`` and the AV margins of ``rank`` go through ``solve.solve``, which
routes the cell and certifies the answer.  ``verify`` makes the certificate's
checks itself, on the same replay (``core.replay_masks``), pricing and
co-winner test: it reports the position of a failing action (exit 5) and a
replay that leaves p losing as an answer (exit 1), not as a solver fault.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .core import (
    BriberyInstance,
    Election,
    ElectionError,
    InfeasibleActionError,
    InvalidActionError,
    Op,
    ParseError,
    PriceTable,
    ResourceGuardError,
    format_action,
    parse_election,
    parse_solution,
    replay_masks,
    serialize_election,
    solution_cost,
)
from .generators import Graph, X3CInstance, gen_is_to_av_swap, gen_random_election, gen_x3c_to_sav_swap
from .oracle import oracle_margin, oracle_margins
from .oracle import oracle_bribery  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .rules import (Rule, _check_k, _is_cowinner_from_ballots, av_scores, ccav_coverage, pav_score,
                    sav_scores, winning_committees)
from .solve import ALGORITHMS, UnsupportedCombination, solve

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_UNSUPPORTED = 4
EXIT_BAD_ACTION = 5


def _load(args):
    """The file's election and prices, and the committee size (--k over the k: line)."""
    with open(args.file, encoding="utf-8") as handle:
        e, prices, file_k = parse_election(handle.read())
    k = args.k if args.k is not None else file_k
    if k is None:
        raise ElectionError("no committee size (use --k or a k: line)")
    return e, prices, k


def _committee_str(e: Election, committee) -> str:
    return "{" + ",".join(e.candidates[c].name for c in sorted(committee)) + "}"


def cmd_winners(args) -> int:
    e, _, k = _load(args)
    rule = Rule(args.rule)
    print(f"rule: {rule.value}")
    print(f"k: {k}")
    if rule in (Rule.AV, Rule.SAV):
        scores = (av_scores if rule is Rule.AV else sav_scores)(e)
        print("scores: " + " ".join(f"{c.name}={scores[c.index]}" for c in e.candidates))
    committees = sorted(winning_committees(e, rule, k), key=sorted)
    if rule is Rule.CCAV:
        print(f"coverage: {ccav_coverage(e, next(iter(committees)))}")
    elif rule is Rule.PAV:
        print(f"score: {pav_score(e, next(iter(committees)))}")
    print("winning committees: " + " ".join(_committee_str(e, w) for w in committees))
    return EXIT_OK


def cmd_bribe(args) -> int:
    e, prices, k = _load(args)
    rule = Rule(args.rule)
    instance = BriberyInstance(
        election=e, p=e.candidate_index(args.p), k=k, budget=args.budget,
        op=Op(args.op), priced=args.priced, restricted_to_p=args.restrict_to_p,
        prices=prices if args.priced else PriceTable())
    epsilon = Fraction(args.epsilon).limit_denominator(10**6)
    solution, guarantee = solve(instance, rule, args.algorithm, epsilon)
    print(f"rule: {rule.value}  op: {instance.op.value}  p: {args.p}  "
          f"k: {k}  budget: {args.budget}")
    print(f"guarantee: {guarantee}")
    print(f"feasible: {'yes' if solution.feasible else 'no'}")
    if solution.cost is not None:
        print(f"cost: {solution.cost}")
    if solution.actions:
        print("actions: " + "; ".join(format_action(e, a) for a in solution.actions))
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def cmd_rank(args) -> int:
    e, prices, k = _load(args)
    rule = Rule(args.rule)
    op = Op(args.op)
    table = prices if args.priced else PriceTable()
    if rule is Rule.AV:
        values = []
        for cand in e.candidates:
            instance = BriberyInstance(
                election=e, p=cand.index, k=k, budget=10**9, op=op,
                priced=args.priced, restricted_to_p=args.restrict_to_p, prices=table)
            values.append(solve(instance, rule, "exact")[0].cost)
    elif args.restrict_to_p:
        # option lists depend on the candidate, so each gets its own search
        values = [oracle_margin(e, rule, k, cand.index, op, table, restricted=True)
                  for cand in e.candidates]
    else:
        values = oracle_margins(e, rule, k, op, table)
    margins = [(cand.name, None if value is None or value == math.inf else int(value))
               for cand, value in zip(e.candidates, values)]
    margins.sort(key=lambda item: (item[1] is None, item[1], item[0]))
    print(f"rule: {rule.value}  op: {op.value}  k: {k}")
    for name, margin in margins:
        print(f"{name}: {'inf' if margin is None else margin}")
    return EXIT_OK


def _parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        u, _, v = part.partition("-")
        a, b = int(u), int(v)
        edges.append((min(a, b), max(a, b)))
    return edges


def cmd_gen(args) -> int:
    if args.kind == "random":
        e = gen_random_election(args.m, args.n, args.prob, args.seed)
        header = f"# random election m={args.m} n={args.n} prob={args.prob} seed={args.seed}\n"
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(header + serialize_election(e, k=args.k))
        print(f"wrote {args.out}: {e.m} candidates, {e.n} voters")
        return EXIT_OK
    if args.kind == "is-reduction":
        g = Graph(args.vertices, tuple(sorted(_parse_edges(args.edges))))
        instance = gen_is_to_av_swap(g, args.h)
        header = (f"# independent-set reduction: {args.vertices} vertices, h={args.h}\n"
                  f"# p: p  op: swap (restricted to p, priced)  budget: {instance.budget}\n")
    else:
        sets = [frozenset(int(tok) for tok in part.split(",")) for part in args.sets.split(";")]
        n = len(sets) // 3
        instance = gen_x3c_to_sav_swap(X3CInstance(n, tuple(sets)), args.alpha)
        header = (f"# exact-cover reduction: n={n} alpha={args.alpha}\n"
                  f"# p: p  op: swap (restricted to p, unit prices)  budget: {instance.budget}\n")
    e = instance.election
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(header + serialize_election(e, instance.prices, k=instance.k))
    print(f"wrote {args.out}: {e.m} candidates, "
          f"{e.n} voters, k={instance.k}, budget={instance.budget}")
    return EXIT_OK


def cmd_verify(args) -> int:
    e, prices, k = _load(args)
    rule = Rule(args.rule)
    with open(args.solution, encoding="utf-8") as handle:
        text = handle.read()
    try:
        actions = parse_solution(text, e)
        ballots = replay_masks(e, actions)
        cost = solution_cost(actions, prices if args.priced else PriceTable())
    except InvalidActionError as exc:
        action = format_action(e, actions[exc.position - 1])
        print(f"invalid action {exc.position} ({action}): {exc}", file=sys.stderr)
        return EXIT_BAD_ACTION
    except (ParseError, InfeasibleActionError) as exc:
        print(f"invalid solution: {exc}", file=sys.stderr)
        return EXIT_BAD_ACTION
    p = e.candidate_index(args.p)
    _check_k(e, k)
    winning = _is_cowinner_from_ballots(ballots, e.m, rule, k, p)
    print("valid: yes")
    print(f"cost: {cost}")
    print(f"p co-winner: {'yes' if winning else 'no'}")
    return EXIT_OK if winning else EXIT_INFEASIBLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="abcbribery",
        description="Winners and bribery margins for approval-based committee elections")
    sub = parser.add_subparsers(dest="command", required=True)
    rules = [r.value for r in Rule]

    w = sub.add_parser("winners", help="scores and winning committees")
    w.add_argument("file")
    w.add_argument("--rule", choices=rules, required=True)
    w.add_argument("--k", type=int)
    w.set_defaults(func=cmd_winners)

    b = sub.add_parser("bribe", help="solve one bribery instance")
    r = sub.add_parser("rank", help="bribery margin of every candidate")
    for cmd in (b, r):
        cmd.add_argument("file")
        cmd.add_argument("--rule", choices=rules, required=True)
        cmd.add_argument("--k", type=int)
        cmd.add_argument("--op", choices=[op.value for op in Op], required=True)
        cmd.add_argument("--priced", action="store_true", help="use the file's price table")
        cmd.add_argument("--restrict-to-p", action="store_true")
    b.add_argument("--p", required=True, help="preferred candidate name")
    b.add_argument("--budget", type=int, required=True)
    b.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    b.add_argument("--epsilon", default="0.1", help="accuracy for the priced RAV scheme")
    b.set_defaults(func=cmd_bribe)
    r.set_defaults(func=cmd_rank)

    g = sub.add_parser("gen", help="generate an election file")
    g.add_argument("--kind", choices=["random", "is-reduction", "x3c-reduction"], required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--m", type=int, default=4)
    g.add_argument("--n", type=int, default=6)
    g.add_argument("--prob", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--k", type=int)
    g.add_argument("--vertices", type=int, default=4)
    g.add_argument("--edges", default="0-1,0-2,0-3,1-2,1-3,2-3")
    g.add_argument("--h", type=int, default=1)
    g.add_argument("--sets", default="0,1,2;0,1,2;0,1,2")
    g.add_argument("--alpha", type=int, default=1)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="replay a solution file")
    v.add_argument("file")
    v.add_argument("solution")
    v.add_argument("--rule", choices=rules, default="av")
    v.add_argument("--k", type=int)
    v.add_argument("--p", required=True)
    v.add_argument("--priced", action="store_true")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except UnsupportedCombination as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ElectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
