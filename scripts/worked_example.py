"""Walk through the introductory four-candidate election.

Prints scores, committees and per-candidate bribery margins under every rule
and operation the exact solvers cover, plus the oracle for the rest.
"""

from abcbribery import BriberyInstance, Op, Rule, av_scores, make_election, winning_committees
from abcbribery.avbribery import av_add, av_delete, av_swap_unit
from abcbribery.oracle import oracle_margins

ELECTION = make_election(
    "a b c p".split(),
    [
        ("v1", ["a", "b", "c"]),
        ("v2", ["b", "c"]),
        ("v3", ["a"]),
        ("v4", ["a", "b"]),
        ("v5", ["a", "b"]),
        ("v6", ["a", "c"]),
        ("v7", ["b", "c", "p"]),
        ("v8", ["a"]),
        ("v9", ["a"]),
    ],
)
K = 2


def main():
    e = ELECTION
    names = [c.name for c in e.candidates]
    print("election: 4 candidates, 9 voters, k =", K)
    print("AV scores:", dict(zip(names, av_scores(e))))
    committees = winning_committees(e, Rule.AV, K)
    print("AV winning committees:",
          ["{" + ",".join(names[c] for c in sorted(w)) + "}" for w in committees])
    print()
    solvers = {Op.ADD: av_add, Op.DELETE: av_delete, Op.SWAP: av_swap_unit}
    for op, solver in solvers.items():
        print(f"AV {op.value} margins (per candidate):")
        for cand in e.candidates:
            sol = solver(BriberyInstance(e, cand.index, K, 10**6, op))
            print(f"  {cand.name}: {sol.cost}")
    print()
    print("margins under the other rules (oracle, swap operation):")
    for rule in (Rule.SAV, Rule.CCAV, Rule.GAV, Rule.PAV, Rule.RAV):
        values = oracle_margins(e, rule, K, Op.SWAP)
        margins = {name: "inf" if value == float("inf") else value
                   for name, value in zip(names, values)}
        print(f"  {rule.value}: {margins}")


if __name__ == "__main__":
    main()
