"""Bribery under AV: greedy polynomial algorithms plus an exact solver for
priced swaps.

Adds and deletes are classic cheapest-first greedies.  Unit-price swaps guess
the score threshold the preferred candidate will enter the committee with and
drain the most fragile opponents down to it.  The add and unit-swap greedies
step on the AV score list and the ballot masks, test each step with
``_score_cowinner``, and build actions only for the runs that make the
preferred candidate win; ``is_cowinner`` is asked once per solve, for the
election as given.

Priced swaps guess the winning committee and its lowest member score, then
route only that guess's threshold violations (each non-member's excess above
it, each member's deficit below it) as a min-cost flow over one network of
per-vote moves, built once per solve.  A move from c to d may relay through
intermediate candidates, so effective move prices are per-vote shortest paths
over the swap price table.
"""

from __future__ import annotations

import itertools
from math import comb, inf

from .core import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    Election,
    Op,
    PriceTable,
    ResourceGuardError,
    _actions_key,
    _iter_bits,
    approver_masks,
    ballot_masks,
)
from .flows import Arc, FlowNetwork, InfeasibleFlowError, min_cost_flow_lb
from .rules import Rule, _score_cowinner, av_scores, is_cowinner

DEFAULT_GUESS_CAP = 500_000


def _require(instance: BriberyInstance, op: Op):
    if instance.op is not op:
        raise ValueError(f"instance operation is {instance.op.value}, expected {op.value}")


def av_add(instance: BriberyInstance) -> BriberySolution:
    """Add approvals for p cheapest-first until p joins a winning committee.

    Adding approvals for anyone else only raises opponents, so this is optimal
    for the priced, unpriced, restricted and unrestricted variants alike.
    """
    _require(instance, Op.ADD)
    e, p, k = instance.election, instance.p, instance.k
    if is_cowinner(e, Rule.AV, k, p):
        return BriberySolution((), 0, True)
    cells = sorted(
        (instance.prices.add_price(v, p), v)
        for v in range(e.n)
        if p not in e.ballots[v].approved and instance.prices.add_price(v, p) != FORBIDDEN
    )
    scores = av_scores(e)
    cost = 0
    for bought, (price, _) in enumerate(cells, 1):
        scores[p] += 1
        cost += price
        if _score_cowinner(scores, k, p):
            actions = tuple(AtomicAction(Op.ADD, v, target=p) for _, v in cells[:bought])
            return BriberySolution(actions, cost, cost <= instance.budget)
    return BriberySolution((), None, False)


def av_delete(instance: BriberyInstance) -> BriberySolution:
    """Bring down opponents above p, cheapest bring-down first.

    Bringing c down means deleting its cheapest approvals until it ties p;
    bring-down costs are independent across candidates, so picking the
    cheapest ones until at most k-1 candidates beat p is optimal.
    """
    _require(instance, Op.DELETE)
    e, p, k = instance.election, instance.p, instance.k
    scores = av_scores(e)
    above = [c for c in range(e.m) if scores[c] > scores[p]]
    if len(above) <= k - 1:
        return BriberySolution((), 0, True)
    bring_downs = []
    for c in above:
        cells = sorted(
            (instance.prices.delete_price(v, c), v)
            for v in range(e.n)
            if c in e.ballots[v].approved
        )
        needed = cells[: scores[c] - scores[p]]
        total = sum(price for price, _ in needed)
        bring_downs.append((total, c, needed))
    bring_downs.sort(key=lambda item: (item[0], item[1]))
    chosen = bring_downs[: len(above) - (k - 1)]
    if any(total == FORBIDDEN for total, _, _ in chosen):
        return BriberySolution((), None, False)
    actions = tuple(
        AtomicAction(Op.DELETE, v, source=c)
        for _, c, needed in chosen
        for _, v in needed
    )
    cost = sum(total for total, _, _ in chosen)
    return BriberySolution(actions, cost, cost <= instance.budget)


def av_swap_unit(instance: BriberyInstance) -> BriberySolution:
    """Unit-price swaps: guess the entry score T, drain fragile opponents.

    For each T, opponents above p that are neither protected (the k-1 highest
    scorers) nor already at or below T donate one approval to p, always from
    the current highest scorer among them; with none left, p takes an
    approval from the lowest-index vote not approving p.  The cheapest
    successful run over all T is optimal.

    Each run moves the AV scores and the candidate columns (approver masks)
    swap by swap; actions are built only for the runs that make p win.
    """
    _require(instance, Op.SWAP)
    if instance.priced:
        raise ValueError("unit-price algorithm called on a priced instance")
    e, p, k = instance.election, instance.p, instance.k
    if is_cowinner(e, Rule.AV, k, p):
        return BriberySolution((), 0, True)
    n, m = e.n, e.m
    start_masks = ballot_masks(e)
    start_columns = approver_masks(e)
    start_scores = [column.bit_count() for column in start_columns]
    voting = sum(1 << v for v, mask in enumerate(start_masks) if mask)  # swaps keep sizes
    others = [c for c in range(m) if c != p]
    swap_cap = n - start_scores[p]
    best: tuple[int, tuple, tuple[AtomicAction, ...]] | None = None
    # Opponents only lose approvals, so every T from the highest opponent
    # score up to n runs the same swaps.
    for threshold in range(max(start_scores[c] for c in others) + 1):
        masks, columns, scores = list(start_masks), list(start_columns), list(start_scores)
        # A run longer than the best one so far cannot replace it.
        limit = swap_cap if best is None else min(swap_cap, best[0])
        swaps: list[tuple[int, int]] = []
        while True:
            if _score_cowinner(scores, k, p):
                actions = tuple(AtomicAction(Op.SWAP, v, source=donor, target=p)
                                for v, donor in swaps)
                key = (len(actions), _actions_key(actions))
                if best is None or key < best[:2]:
                    best = (len(actions), key[1], actions)
                break
            if len(swaps) >= limit:
                break
            # p loses, so k < m and ranked[k - 1], the first unprotected
            # opponent, exists; ranks fall in score, so it is fragile
            # whenever any opponent is.  Some voter lacking p is always
            # found: a fragile donor outscores p, and were every voting
            # voter approving p, p's score would top every other.
            donor = sorted(others, key=lambda c: (-scores[c], c))[k - 1]
            fragile = scores[donor] > max(scores[p], threshold)
            lacking = (columns[donor] if fragile else voting) & ~columns[p]
            bit = lacking & -lacking
            vote = bit.bit_length() - 1
            if not fragile:
                donor = (masks[vote] & -masks[vote]).bit_length() - 1
            masks[vote] ^= 1 << donor | 1 << p
            columns[donor] ^= bit
            columns[p] |= bit
            scores[donor] -= 1
            scores[p] += 1
            swaps.append((vote, donor))
    # The T = 0 run always ends with p winning: while p loses, the donor
    # scores above p, so it has a voter lacking p, and p gains one per swap.
    cost, _, actions = best
    return BriberySolution(actions, cost, cost <= instance.budget)


# --- exact solver for priced swaps ------------------------------------------


def _vote_move_prices(e: Election, prices: PriceTable, v: int):
    """All-pairs cheapest relay prices within one vote, with next hops."""
    m = e.m
    dist = [[inf] * m for _ in range(m)]
    nxt = [[-1] * m for _ in range(m)]
    for c in range(m):
        dist[c][c] = 0
        for d in range(m):
            if c == d:
                continue
            price = prices.swap_price(v, c, d)
            if price != FORBIDDEN:
                dist[c][d] = price
                nxt[c][d] = d
    for mid in range(m):
        dmid = dist[mid]
        for i in range(m):
            via = dist[i][mid]
            if via == inf:
                continue
            row = dist[i]
            for j in range(m):
                cand = via + dmid[j]
                if cand < row[j]:
                    row[j] = cand
                    nxt[i][j] = nxt[i][mid]
    return dist, nxt


def _expand_path(nxt, source: int, target: int) -> list[tuple[int, int]]:
    hops = []
    cur = source
    while cur != target:
        step = nxt[cur][target]
        hops.append((cur, step))
        cur = step
    return hops


def _order_vote_swaps(voter: int, start_mask: int,
                      paths: list[list[tuple[int, int]]]) -> list[AtomicAction]:
    """Sequence relay paths into individually valid swaps for one vote.

    Paths are fired one at a time; within a path, tokens repeatedly shift into
    the first vacant node, which is always possible and leaves transit
    occupancies restored once the path completes.
    """
    occ = start_mask
    out: list[AtomicAction] = []
    for hops in sorted(paths):
        nodes = [hops[0][0]] + [b for _, b in hops]
        lo = 0
        last = len(nodes) - 1
        while lo < last:
            vacant = next(j for j in range(lo + 1, last + 1) if not occ >> nodes[j] & 1)
            for j in range(vacant - 1, lo - 1, -1):
                src, dst = nodes[j], nodes[j + 1]
                if not occ >> src & 1 or occ >> dst & 1:
                    raise RuntimeError(f"relay swap {src}->{dst} is invalid in vote {voter}")
                occ = (occ & ~(1 << src)) | (1 << dst)
                out.append(AtomicAction(Op.SWAP, voter, source=src, target=dst))
            lo = vacant
    return out


def av_priced_swap_exact(instance: BriberyInstance, *,
                         guess_cap: int = DEFAULT_GUESS_CAP) -> BriberySolution:
    """Exact optimum for priced swaps by guessing the committee and threshold.

    For every committee W containing p and every threshold T, a min-cost flow
    decides the cheapest swap set giving all members at least T approvals and
    all non-members at most T.  The move network is built once per solve:
    candidate c -> slot (v, c), capacity 1, for each approval of vote v; slot
    -> receiver (v, d) at the vote's move price, for each d that v lacks (only
    d = p when restricted); receiver -> d, capacity 1.  A guess adds 2m + 1
    arcs that carry only its violations: source -> u with a lower bound of
    non-member u's excess over T, w -> sink with a lower bound of member w's
    deficit below T, each side's slack as capacity, and a sink -> source
    return arc.  Prices are nonnegative, so no cheapest flow routes slack to
    slack.  Exponential in the number of candidates, hence the guess cap.
    """
    _require(instance, Op.SWAP)
    e, p, k = instance.election, instance.p, instance.k
    n, m = e.n, e.m
    if is_cowinner(e, Rule.AV, k, p):
        return BriberySolution((), 0, True)
    if comb(m - 1, k - 1) * (n + 1) > guess_cap:
        raise ResourceGuardError(
            f"C({m - 1},{k - 1})*(n+1) committee/threshold guesses exceed {guess_cap}")
    masks = ballot_masks(e)
    scores = av_scores(e)
    restricted = instance.restricted_to_p
    if restricted:
        # Direct moves to p only: a relay's intermediate swap would have a
        # target other than p.
        receivers = (p,)
        move_price = instance.prices.swap_price
    else:
        receivers = range(m)
        relays = [_vote_move_prices(e, instance.prices, v) for v in range(n)]

        def move_price(v, c, d):
            return relays[v][0][c][d]
    min_price = min((price for v in range(n) for c in range(m) for d in receivers
                     if c != d and (price := move_price(v, c, d)) != inf), default=0)

    arcs: list[Arc] = []
    move_arcs: list[tuple[int, int, int, int]] = []  # arc index, vote, source, target
    node_count = m  # candidates are nodes 0..m-1
    for v, mask in enumerate(masks):
        receiver = {}
        for d in receivers:
            if not mask >> d & 1:
                receiver[d] = node_count
                node_count += 1
        for c in _iter_bits(mask):
            moves = [(d, price) for d in receiver if (price := move_price(v, c, d)) != inf]
            if not moves:
                continue
            arcs.append(Arc(c, node_count, 0, 1, 0))
            for d, price in moves:
                move_arcs.append((len(arcs), v, c, d))
                arcs.append(Arc(node_count, receiver[d], 0, 1, int(price)))
            node_count += 1
        arcs.extend(Arc(node, d, 0, 1, 0) for d, node in receiver.items())
    move_network = tuple(arcs)
    source, sink = node_count, node_count + 1
    return_arc = (Arc(sink, source, 0, n * m, 0),)

    others = [c for c in range(m) if c != p]
    best: tuple[int, tuple, tuple[AtomicAction, ...]] | None = None
    for chosen in itertools.combinations(others, k - 1):
        members = frozenset(chosen) | {p}
        for threshold in range(n + 1):
            shed = sum(max(0, scores[u] - threshold) for u in range(m) if u not in members)
            gain = sum(max(0, threshold - scores[w]) for w in members)
            # Every swap donates once and receives once, so the swap count is
            # at least max(gain, shed); each swap costs at least min_price.
            lower_bound = max(gain, shed) * min_price
            if lower_bound > instance.budget:
                continue
            if best is not None and lower_bound > best[0]:
                continue
            guess: list[Arc] = []
            for c in range(m):
                excess = scores[c] - threshold
                if c in members:
                    guess += (Arc(source, c, 0, max(0, excess), 0),
                              Arc(c, sink, max(0, -excess), n, 0))
                else:
                    guess += (Arc(source, c, max(0, excess), n, 0),
                              Arc(c, sink, 0, max(0, -excess), 0))
            net = FlowNetwork(sink + 1, move_network + tuple(guess) + return_arc, source, sink, 0)
            try:
                cost, flows = min_cost_flow_lb(net)
            except InfeasibleFlowError:
                continue
            if best is not None and cost > best[0]:
                continue
            moves = [(v, c, d) for idx, v, c, d in move_arcs if flows[idx]]
            actions: list[AtomicAction] = []
            for v, vote_moves in itertools.groupby(moves, key=lambda move: move[0]):
                paths = [[(c, d)] if restricted else _expand_path(relays[v][1], c, d)
                         for _, c, d in vote_moves]
                actions.extend(_order_vote_swaps(v, masks[v], paths))
            key = (cost, _actions_key(actions))
            if best is None or key < best[:2]:
                best = (cost, key[1], tuple(actions))
    if best is None:
        return BriberySolution((), None, False)
    cost, _, actions = best
    return BriberySolution(actions, cost, cost <= instance.budget)
