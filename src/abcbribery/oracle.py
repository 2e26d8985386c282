"""Exhaustive bribery solver used as ground truth for every other algorithm.

The search enumerates, per vote, every ballot reachable under the operation
kind as a bare (cost, ballot) pair at its cheapest cost.  Without swap
prices a swap moves one approval at cost 1, so a ballot costs the number of
start approvals it drops and the options are listed in closed form.  Priced
swaps run a Dijkstra over ballot states, where relaying an approval through
intermediate candidates can be cheaper than a direct move; each voter's
Dijkstra reads a move table built from the price table: per source, the
(target, target bit, price) triples with a finite price.  Final elections
are then enumerated by iterative deepening over total cost, so the first hit
is the optimum.  Each level's walk yields the next level, the cheapest total
it pruned, so no level without a configuration is walked, whatever the
price scale, and the resource guard counts the configurations visited.  The
depth-first search branches only on voters with more than one option, tests
the last such voter's options in that voter's own frame, one leaf per
option, and never restores a voter: each leaf sets every voter on its path.

One sweep can serve several target candidates at once: the options do not
depend on the target unless the bribery is restricted to p, so
``oracle_margins`` searches once for every candidate.  The search keeps one
``rules._Tally`` of the election, moves it for a voter only when the voter's
ballot changes, and reads every pending candidate's answer off it at each
leaf: the co-winner mask while several are pending, ``wins`` once one is
left.  Each target keeps the final
ballots of the first winning configuration the depth-first order reaches at
its cheapest cost -- the same configuration a single-target search finds.
Only ``_cheapest`` turns them into actions, through ``_witness``: the changed
cells of each voter for additions, deletions and unit-price swaps, a walk
back through the voter's Dijkstra parents for priced swaps.  Its options
come from ``oracle_bribery`` or from an fpt option builder; the start
ballot masks are built once per solve and passed through.  Its answers are
uncertified; ``solve`` certifies.  Purely exponential; guarded by the
number of configurations visited and by the length of each voter's option
list.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations

from .core import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    Election,
    ElectionError,
    Op,
    PriceTable,
    ResourceGuardError,
    _iter_bits,
    ballot_masks,
)
from .rules import Rule, _check_k, _Tally
# Wrapped by name in perfbench/tracing.py, although the search no longer calls them.
from .rules import _is_cowinner_from_ballots, _score_cowinner  # noqa: F401

DEFAULT_MAX_CONFIGS = 2_000_000


def _guard_options(voter: int, count: int, max_configs: int) -> None:
    """One voter with more options than the cap implies more configurations."""
    if count > max_configs:
        raise ResourceGuardError(
            f"voter {voter} has {count} reachable ballots, above the cap of "
            f"{max_configs} configurations")


def _cellwise_options(voter: int, start: int, cells: list[tuple[int, int]],
                      cost_cap: int | None, max_configs: int) -> list[tuple[int, int]]:
    """(cost, ballot) for every subset of independent add/delete cells,
    cheapest-first, the start ballot first among the free ones.

    Each cell's candidate is absent from (add) or present in (delete) the
    start ballot, so flipping its bit applies the cell either way.  ``fpt``
    builds a candidate's reachable approver sets with it too, voters as cells.
    """
    if cost_cap is None:  # uncapped, the list holds every subset: check before building
        _guard_options(voter, 1 << len(cells), max_configs)
    options = [(0, start)]
    for cand, price in cells:
        bit = 1 << cand
        grown = [(cost + price, mask ^ bit) for cost, mask in options
                 if cost_cap is None or cost + price <= cost_cap]
        _guard_options(voter, len(options) + len(grown), max_configs)
        options.extend(grown)
    # A free cell's ballot may sort below the start ballot; keeping the start
    # first makes a walk's first cost-0 leaf the start election, so a
    # winning start needs no action.
    options[1:] = sorted(options[1:])
    return options


def _move_table(voter: int, m: int, prices: PriceTable, restricted: bool, p: int
                ) -> list[list[tuple[int, int, int]]]:
    """The voter's swaps per source: the (target, target bit, price) triples
    with a finite price, targets ascending, and only p as a target when the
    bribery is restricted to p."""
    price_of = prices.swap.get
    targets = [p] if restricted else range(m)
    table = []
    for source in range(m):
        row = []
        for target in targets:
            if target != source:
                price = price_of((voter, source, target), 1)
                if price != FORBIDDEN:
                    row.append((target, 1 << target, price))
        table.append(row)
    return table


def _swap_options(voter: int, start: int, moves: list[list[tuple[int, int, int]]],
                  cost_cap: int | None, max_configs: int
                  ) -> tuple[list[tuple[int, int]], dict[int, tuple[int, int, int]]]:
    """Cheapest reachable ballots under swaps, via Dijkstra over ballot states.

    ``moves`` is the voter's move table; relaxations read it instead of the
    price table.  Returns the (cost, ballot) options, cheapest-first with the
    start ballot first among the free ones, as ``_cellwise_options`` lists
    them, and the parent map ``ballot -> (previous ballot, source, target)``
    of the cheapest paths.
    """
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, int, int]] = {}
    heap = [(0, start)]
    while heap:
        d, mask = heapq.heappop(heap)
        if d > dist[mask]:
            continue
        sources = mask
        while sources:  # lowest source first, as _iter_bits
            low = sources & -sources
            sources ^= low
            source = low.bit_length() - 1
            rest = mask ^ low
            for target, bit, price in moves[source]:
                if mask & bit:
                    continue
                nd = d + price
                if cost_cap is not None and nd > cost_cap:
                    continue
                new = rest | bit
                known = dist.get(new)
                if known is None:
                    _guard_options(voter, len(dist) + 1, max_configs)
                elif nd >= known:
                    continue
                dist[new] = nd
                parent[new] = (mask, source, target)
                heapq.heappush(heap, (nd, new))
    del dist[start]
    return [(0, start)] + sorted((d, mask) for mask, d in dist.items()), parent


def _unit_swap_options(voter: int, start: int, targets: int, cost_cap: int | None,
                       max_configs: int) -> list[tuple[int, int]]:
    """Cheapest reachable ballots under unit-price swaps, cheapest-first.

    A swap moves one approval to a candidate in ``targets`` the ballot
    lacks, so a ballot reached by dropping d start approvals and adding d
    targets costs d.  Each level lists every such pair of d-subsets, sorted
    by mask: the list the swap Dijkstra returns, counted for the guard
    before any ballot is built.  A voter with no swap keeps its one ballot
    whatever the cap, as in the Dijkstra.
    """
    held = [1 << c for c in _iter_bits(start)]
    free = [1 << c for c in _iter_bits(targets & ~start)]
    top = min(len(held), len(free), len(held) if cost_cap is None else cost_cap)
    if top > 0:
        _guard_options(voter, sum(math.comb(len(held), d) * math.comb(len(free), d)
                                  for d in range(top + 1)), max_configs)
    options = [(0, start)]
    for d in range(1, top + 1):
        kept = [start - sum(dropped) for dropped in combinations(held, d)]
        added = [sum(new) for new in combinations(free, d)]
        options += [(d, mask) for mask in sorted(rest + new for rest in kept for new in added)]
    return options


def _vote_options(e: Election, masks: list[int], prices: PriceTable, op: Op, restricted: bool,
                  p: int, cost_cap: int | None, max_configs: int
                  ) -> tuple[list[list[tuple[int, int]]],
                             list[dict[int, tuple[int, int, int]] | None]]:
    """Each voter's (cost, ballot) options from its start ballot in ``masks``,
    and each voter's parent map: a priced swap's Dijkstra parents, None for
    unit-price swaps, additions and deletions, whose witness needs none."""
    options, parents = [], []
    for v in range(e.n):
        start = masks[v]
        parent = None
        if op is Op.SWAP:
            if prices.swap:
                moves = _move_table(v, e.m, prices, restricted, p)
                opts, parent = _swap_options(v, start, moves, cost_cap, max_configs)
            else:
                targets = 1 << p if restricted else (1 << e.m) - 1
                opts = _unit_swap_options(v, start, targets, cost_cap, max_configs)
        else:
            if op is Op.ADD:
                cands = [c for c in range(e.m) if not start >> c & 1]
                if restricted:
                    cands = [c for c in cands if c == p]
                cells = [(c, prices.add_price(v, c)) for c in cands]
            else:
                cells = [(c, prices.delete_price(v, c)) for c in _iter_bits(start)]
            cells = [(c, pr) for c, pr in cells if pr != FORBIDDEN]
            opts = _cellwise_options(v, start, cells, cost_cap, max_configs)
        options.append(opts)
        parents.append(parent)
    return options, parents


def _witness(op: Op, starts: list[int], finals: list[int],
             parents: list[dict[int, tuple[int, int, int]] | None]) -> tuple[AtomicAction, ...]:
    """The actions taking each voter from its start ballot to its final one.

    Additions and deletions come lowest candidate first, the order the cells
    are applied in.  A priced swap walks back through the voter's parent
    map.  A unit-price swap (parent map None) pairs the dropped approvals,
    highest first, with the new ones, lowest first: the Dijkstra's parent of
    a ballot moves its highest new approval back to its lowest dropped one,
    so this is the walk back through that parent map, action for action.
    """
    actions = []
    for v, (start, final) in enumerate(zip(starts, finals)):
        if op is Op.SWAP:
            parent = parents[v]
            if parent is None:
                dropped = list(_iter_bits(start & ~final))
                actions += [AtomicAction(Op.SWAP, v, source=source, target=target)
                            for source, target in zip(reversed(dropped),
                                                      _iter_bits(final & ~start))]
                continue
            moves = []
            while final != start:
                final, source, target = parent[final]
                moves.append(AtomicAction(Op.SWAP, v, source=source, target=target))
            actions += reversed(moves)
        elif op is Op.ADD:
            actions += [AtomicAction(Op.ADD, v, target=c) for c in _iter_bits(final & ~start)]
        else:
            actions += [AtomicAction(Op.DELETE, v, source=c) for c in _iter_bits(start & ~final)]
    return tuple(actions)


def _search(e: Election, masks: list[int], rule: Rule, k: int, targets: list[int],
            options: list[list[tuple[int, int]]], budget: int | None,
            max_configs: int) -> dict[int, tuple[int, list[int]]]:
    """Cheapest cost and first winning final ballots per target; targets
    without one are absent.

    ``masks`` are the start ballots; each voter's options hold its start
    ballot at cost 0, so a voter with one option keeps it at no cost and
    gets no frame in the walk.  The walk of level t visits the
    configurations costing exactly t.  Where it breaks on an option dearer
    than what remains, the rest of the voters can still keep their start
    ballots, so that prefix reaches a total above t; the cheapest such total
    is the next level swept (Korf's iterative-deepening threshold, 1985),
    and no level without a configuration is walked.  ``max_configs`` caps
    the configurations visited, checked at each leaf before its test: a
    single-target walk stops at its first winning leaf, and a multi-target
    walk reaches each target's first winning leaf after the same leaves, so
    a shared search trips exactly when one of its single-target searches
    would.  The walk moves the tally only when a voter's ballot changes and
    never restores one: every leaf sets each branching voter on its path,
    and the tally is the search's own.
    """
    # Options are sorted by cost, so each voter's dearest one comes last.
    limit = sum(opts[-1][0] for opts in options)
    if budget is not None:
        limit = min(limit, budget)
    walk = [(v, opts) for v, opts in enumerate(options) if len(opts) > 1]
    n = len(walk)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + walk[i][1][-1][0]

    found: dict[int, tuple[int, list[int]]] = {}
    pending = 0  # bitmask of the targets without a winning configuration yet
    for p in targets:
        pending |= 1 << p
    tally = _Tally(masks, e.m, rule, k)
    ballots = tally.ballots  # moved in place by tally.set
    t = 0  # the cost level being swept
    over = math.inf  # the least amount by which the walk of t overshot it
    visited = 0  # configurations tested so far

    def leaf() -> bool:
        """Count and test the current configuration; True once none is pending."""
        nonlocal pending, visited
        visited += 1
        if visited > max_configs:
            raise ResourceGuardError(
                f"enumerating final elections up to cost {t} visits more than "
                f"the cap of {max_configs} configurations")
        if pending & (pending - 1):  # several targets: one mask for all
            won = tally.cowinners() & pending
        else:  # one target: wins may settle it without a greedy
            won = pending if tally.wins(pending.bit_length() - 1) else 0
        if not won:
            return False
        finals = ballots.copy()
        for p in _iter_bits(won):
            found[p] = (t, finals)
        pending ^= won
        return not pending

    last = n - 1

    def dfs(i: int, remaining: int) -> bool:
        """Visit the configurations of cost exactly `remaining`; True once none is pending."""
        nonlocal over
        v, opts = walk[i]
        # The last voter must spend exactly what remains (its suffix_max is
        # 0): its options are the leaves, tested here, not one call deeper each.
        lower = remaining - suffix_max[i + 1]
        for cost, mask in opts:
            if cost > remaining:
                if cost - remaining < over:
                    over = cost - remaining
                break
            if cost < lower:
                continue
            if mask != ballots[v]:
                tally.set(v, mask)
            if leaf() if i == last else dfs(i + 1, remaining - cost):
                return True
        return False

    try:
        # Without a branching voter the start election is the one configuration.
        while not (dfs(0, t) if n else leaf()) and t + over <= limit:
            t, over = t + over, math.inf
    finally:
        del dfs  # dfs names itself: a cycle the collector alone would free
    return found


def _cheapest(instance: BriberyInstance, masks: list[int], rule: Rule,
              options: list[list[tuple[int, int]]],
              parents: list[dict[int, tuple[int, int, int]] | None],
              max_configs: int) -> BriberySolution:
    """The options' cheapest winning configuration in budget from the start
    ballots ``masks``; uncertified, ``solve`` certifies."""
    e, p = instance.election, instance.p
    found = _search(e, masks, rule, instance.k, [p], options, instance.budget, max_configs)
    if p not in found:
        return BriberySolution((), None, False)
    cost, finals = found[p]
    actions = _witness(instance.op, masks, finals, parents)
    return BriberySolution(actions, cost, cost <= instance.budget)


def oracle_bribery(instance: BriberyInstance, rule: Rule, *,
                   max_configs: int = DEFAULT_MAX_CONFIGS) -> BriberySolution:
    """Minimum-cost solution within the budget by enumeration; uncertified, ``solve`` certifies."""
    masks = ballot_masks(instance.election)
    options, parents = _vote_options(instance.election, masks, instance.prices, instance.op,
                                     instance.restricted_to_p, instance.p, instance.budget,
                                     max_configs)
    return _cheapest(instance, masks, rule, options, parents, max_configs)


def oracle_margin(e: Election, rule: Rule, k: int, p: int, op: Op,
                  prices: PriceTable | None = None, restricted: bool = False, *,
                  max_configs: int = DEFAULT_MAX_CONFIGS) -> int | float:
    """Minimum bribery cost making p a co-winner; infinity when impossible."""
    _check_k(e, k)
    if restricted and op is Op.DELETE:
        raise ElectionError("restricted-to-p is meaningless for deletions")
    masks = ballot_masks(e)
    options, _ = _vote_options(e, masks, prices or PriceTable(), op, restricted, p, None,
                               max_configs)
    found = _search(e, masks, rule, k, [p], options, None, max_configs)
    return found[p][0] if p in found else math.inf


def oracle_margins(e: Election, rule: Rule, k: int, op: Op,
                   prices: PriceTable | None = None, *,
                   max_configs: int = DEFAULT_MAX_CONFIGS) -> list[int | float]:
    """Every candidate's unrestricted margin, in index order, from one search.

    Equals ``[oracle_margin(e, rule, k, p, op, prices) for p in range(e.m)]``,
    and raises ``ResourceGuardError`` exactly when one of those calls would:
    the guard is checked at every leaf, and the shared walk reaches each
    candidate's first winning leaf after the leaves its own walk visits.
    """
    _check_k(e, k)
    masks = ballot_masks(e)
    options, _ = _vote_options(e, masks, prices or PriceTable(), op, False, 0, None, max_configs)
    found = _search(e, masks, rule, k, list(range(e.m)), options, None, max_configs)
    return [found[p][0] if p in found else math.inf for p in range(e.m)]
