"""Exhaustive bribery solver used as ground truth for every other algorithm.

The search enumerates, per vote, every ballot reachable under the operation
kind together with its cheapest action sequence (Dijkstra over ballot states
for swaps, where relaying an approval through intermediate candidates can be
cheaper than a direct move).  Final elections are then enumerated by
iterative deepening over total cost, so the first hit is the optimum.

One sweep can serve several target candidates at once: the options and the
per-cost configuration counts do not depend on the target unless the
bribery is restricted to p, so ``oracle_margins`` searches once for every
candidate.  Each leaf computes one candidate bitmask that answers for every
target still pending: GAV and RAV run the co-winner kernel, CCAV and PAV
read it off packed committee values updated by one row per changed voter,
and AV and SAV instead keep incremental scores and compare them per target.
Each target keeps the first
witness the depth-first order reaches at its cheapest cost -- the same
witness a single-target search finds.  ``oracle_bribery`` passes its witness
through ``rules.certify`` before returning it.  Purely
exponential; guarded by a configuration-count estimate and by the length of
each voter's option list.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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
from .rules import (
    Rule,
    _committee_values,
    _cowinner_mask,
    _score_cowinner,
    _score_delta,
    _score_shares,
    _scores,
    certify,
)
from .rules import _is_cowinner_from_ballots  # noqa: F401  (wrapped by name in perfbench/tracing.py)

DEFAULT_MAX_CONFIGS = 2_000_000


@dataclass(frozen=True)
class _Option:
    cost: int
    mask: int
    actions: tuple[AtomicAction, ...]


def _guard_options(voter: int, count: int, max_configs: int) -> None:
    """One voter with more options than the cap implies more configurations."""
    if count > max_configs:
        raise ResourceGuardError(
            f"voter {voter} has {count} reachable ballots, above the cap of "
            f"{max_configs} configurations")


def _cellwise_options(voter: int, start: int, cells: list[tuple[int, int]], op: Op,
                      cost_cap: int | None, max_configs: int) -> list[_Option]:
    """All subsets of independent add/delete cells, cheapest-first."""
    if cost_cap is None:  # uncapped, the list holds every subset: check before building
        _guard_options(voter, 1 << len(cells), max_configs)
    options = [_Option(0, start, ())]
    for cand, price in cells:
        grown = [opt for opt in options if cost_cap is None or opt.cost + price <= cost_cap]
        _guard_options(voter, len(options) + len(grown), max_configs)
        extra = []
        for opt in grown:
            cost = opt.cost + price
            if op is Op.ADD:
                mask = opt.mask | (1 << cand)
                action = AtomicAction(Op.ADD, voter, target=cand)
            else:
                mask = opt.mask & ~(1 << cand)
                action = AtomicAction(Op.DELETE, voter, source=cand)
            extra.append(_Option(cost, mask, opt.actions + (action,)))
        options.extend(extra)
    options.sort(key=lambda o: (o.cost, o.mask))
    return options


def _swap_options(voter: int, start: int, m: int, prices: PriceTable,
                  restricted: bool, p: int, cost_cap: int | None,
                  max_configs: int) -> list[_Option]:
    """Cheapest reachable ballots under swaps, via Dijkstra over ballot states."""
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, AtomicAction]] = {}
    heap = [(0, start)]
    while heap:
        d, mask = heapq.heappop(heap)
        if d > dist[mask]:
            continue
        for source in _iter_bits(mask):
            if restricted:
                targets = [p] if not mask >> p & 1 else []
            else:
                targets = [t for t in range(m) if not mask >> t & 1]
            for target in targets:
                if target == source:
                    continue
                price = prices.swap_price(voter, source, target)
                if price == FORBIDDEN:
                    continue
                nd = d + price
                if cost_cap is not None and nd > cost_cap:
                    continue
                new = (mask & ~(1 << source)) | (1 << target)
                if new not in dist:
                    _guard_options(voter, len(dist) + 1, max_configs)
                elif nd >= dist[new]:
                    continue
                dist[new] = nd
                parent[new] = (mask, AtomicAction(Op.SWAP, voter, source=source, target=target))
                heapq.heappush(heap, (nd, new))
    options = []
    for mask, d in dist.items():
        actions = []
        cur = mask
        while cur != start:
            prev, action = parent[cur]
            actions.append(action)
            cur = prev
        options.append(_Option(d, mask, tuple(reversed(actions))))
    options.sort(key=lambda o: (o.cost, o.mask))
    return options


def _vote_options(e: Election, prices: PriceTable, op: Op, restricted: bool, p: int,
                  cost_cap: int | None, max_configs: int) -> list[list[_Option]]:
    masks = ballot_masks(e)
    out = []
    for v in range(e.n):
        start = masks[v]
        if op is Op.SWAP:
            out.append(_swap_options(v, start, e.m, prices, restricted, p, cost_cap,
                                     max_configs))
        else:
            if op is Op.ADD:
                cands = [c for c in range(e.m) if not start >> c & 1]
                if restricted:
                    cands = [c for c in cands if c == p]
                cells = [(c, prices.add_price(v, c)) for c in cands]
            else:
                cells = [(c, prices.delete_price(v, c)) for c in _iter_bits(start)]
            cells = [(c, pr) for c, pr in cells if pr != FORBIDDEN]
            out.append(_cellwise_options(v, start, cells, op, cost_cap, max_configs))
    return out


def _config_counts(options: list[list[_Option]], limit: int) -> list[int]:
    """Number of final elections at each exact total cost up to limit."""
    counts = [0] * (limit + 1)
    counts[0] = 1
    for opts in options:
        hist = [0] * (limit + 1)
        for opt in opts:
            if opt.cost <= limit:
                hist[opt.cost] += 1
        new = [0] * (limit + 1)
        for a, ca in enumerate(counts):
            if not ca:
                continue
            for b in range(limit + 1 - a):
                if hist[b]:
                    new[a + b] += ca * hist[b]
        counts = new
    return counts


def _search(e: Election, rule: Rule, k: int, targets: list[int], options: list[list[_Option]],
            budget: int | None, max_configs: int) -> dict[int, tuple[int, tuple[AtomicAction, ...]]]:
    """Cheapest cost and first witness per target; targets without one are absent."""
    n = len(options)
    m = e.m
    limit = sum(max(o.cost for o in opts) for opts in options)
    if budget is not None:
        limit = min(limit, budget)
    counts = _config_counts(options, limit)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + max(o.cost for o in options[i])

    ballots = ballot_masks(e)
    chosen: list[_Option | None] = [None] * n
    found: dict[int, tuple[int, tuple[AtomicAction, ...]]] = {}
    pending = list(targets)

    incremental = rule in (Rule.AV, Rule.SAV)
    if incremental:
        shares = _score_shares(rule, m)
        scores = _scores(ballots, m, rule)
    # CCAV and PAV carry their packed committee values down the search as the
    # argument ``total``; a ballot's row is computed the first time it is used.
    values = _committee_values(rule, m, k, n)
    rows: dict[int, int] = {}

    def row(mask: int) -> int:
        if mask not in rows:
            rows[mask] = values.row(mask)
        return rows[mask]

    def pending_winners(total: int) -> list[int]:
        """The pending targets that win in the current configuration."""
        if incremental:
            return [p for p in pending if _score_cowinner(scores, k, p)]
        mask = _cowinner_mask(ballots, m, rule, k) if values is None else values.cowinners(total)
        return [p for p in pending if mask >> p & 1]

    def dfs(i: int, remaining: int, total: int) -> bool:
        """Visit the configurations of cost exactly `remaining`; True once none is pending."""
        if i == n:
            if remaining == 0:
                winners = pending_winners(total)
                if winners:
                    actions = tuple(a for opt in chosen for a in opt.actions)
                    for p in winners:
                        found[p] = (t, actions)  # t: the cost level being swept
                        pending.remove(p)
            return not pending
        lower = remaining - suffix_max[i + 1]
        for opt in options[i]:
            if opt.cost > remaining:
                break
            if opt.cost < lower:
                continue
            old = ballots[i]
            ballots[i] = opt.mask
            chosen[i] = opt
            if incremental:
                delta = _score_delta(old, opt.mask, shares)
                for c, d in delta:
                    scores[c] += d
            done = dfs(i + 1, remaining - opt.cost,
                       total if values is None else total + row(opt.mask) - row(old))
            if incremental:
                for c, d in delta:
                    scores[c] -= d
            ballots[i] = old
            chosen[i] = None
            if done:
                return True
        return False

    explored = 0
    for t in range(limit + 1):
        explored += counts[t]
        if explored > max_configs:
            raise ResourceGuardError(
                f"enumerating final elections up to cost {t} needs {explored} "
                f"configurations, above the cap of {max_configs}")
        if dfs(0, t, 0 if values is None else sum(map(row, ballots))):
            break
    return found


def oracle_bribery(instance: BriberyInstance, rule: Rule, *,
                   max_configs: int = DEFAULT_MAX_CONFIGS) -> BriberySolution:
    """Minimum-cost solution within the budget by exhaustive enumeration."""
    e, p = instance.election, instance.p
    options = _vote_options(e, instance.prices, instance.op, instance.restricted_to_p,
                            p, instance.budget, max_configs)
    found = _search(e, rule, instance.k, [p], options, instance.budget, max_configs)
    if p not in found:
        return BriberySolution((), None, False)
    cost, actions = found[p]
    return certify(instance, rule, BriberySolution(actions, cost, cost <= instance.budget))


def oracle_margin(e: Election, rule: Rule, k: int, p: int, op: Op,
                  prices: PriceTable | None = None, restricted: bool = False, *,
                  max_configs: int = DEFAULT_MAX_CONFIGS) -> int | float:
    """Minimum bribery cost making p a co-winner; infinity when impossible."""
    if restricted and op is Op.DELETE:
        raise ElectionError("restricted-to-p is meaningless for deletions")
    options = _vote_options(e, prices or PriceTable(), op, restricted, p, None, max_configs)
    found = _search(e, rule, k, [p], options, None, max_configs)
    return found[p][0] if p in found else math.inf


def oracle_margins(e: Election, rule: Rule, k: int, op: Op,
                   prices: PriceTable | None = None, *,
                   max_configs: int = DEFAULT_MAX_CONFIGS) -> list[int | float]:
    """Every candidate's unrestricted margin, in index order, from one search.

    Equals ``[oracle_margin(e, rule, k, p, op, prices) for p in range(e.m)]``,
    and raises ``ResourceGuardError`` exactly when one of those calls would.
    """
    options = _vote_options(e, prices or PriceTable(), op, False, 0, None, max_configs)
    found = _search(e, rule, k, list(range(e.m)), options, None, max_configs)
    return [found[p][0] if p in found else math.inf for p in range(e.m)]
