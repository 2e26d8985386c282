"""Bribery by adding approvals for the preferred candidate under SAV, GAV
and RAV.

SAV gets a 2-approximation: sweep the budget upward, each step planting the
gain-maximizing approval set found by an exact knapsack over budget units.
GAV and RAV share one round cover: guess the greedy round in which the
preferred candidate is meant to be picked, then buy the cheapest voter set
whose marginal gains clear that round's selection threshold, a covering
knapsack over lcm-scaled gains.  It is exact for GAV, priced or not, and for
RAV at unit prices, and within 1+epsilon for priced RAV.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    Election,
    Op,
    PriceTable,
    _actions_key,
    ballot_masks,
)
from .rules import (
    Rule,
    _score_shares,
    _Tally,
    _thiele_gains,
    _thiele_greedy,
    _thiele_weights,
    is_cowinner,
)

VALUE_DP_CAP = 1_000_000


def _require_add(instance: BriberyInstance, restricted_only: bool):
    if instance.op is not Op.ADD:
        raise ValueError(f"instance operation is {instance.op.value}, expected add")
    if restricted_only and not instance.restricted_to_p:
        raise ValueError("this algorithm handles adding approvals for p only")


def _max_gain_table(e: Election, p: int, prices: PriceTable, max_budget: int) -> list[frozenset[int]]:
    """Voters to give p an approval, maximizing p's SAV score gain, per budget
    0..max_budget: an exact knapsack in which a voter with t approvals gains
    p 1/(t+1)."""
    shares = _score_shares(Rule.SAV, e.m)
    items = []
    for v in range(e.n):
        if p in e.ballots[v].approved:
            continue
        price = prices.add_price(v, p)
        if price != FORBIDDEN:
            items.append((v, price, shares[len(e.ballots[v].approved) + 1]))
    return [frozenset(chosen) for _, chosen in _knapsack(items, max_budget)]


def _knapsack(items: list[tuple[int, int, int]], capacity: int) -> list[tuple[int, tuple[int, ...]]]:
    """(value, voters) of the most valuable set within each price 0..capacity.

    ``items`` are (voter, price, value); a slot keeps its set unless an item
    strictly raises its value.  The first slot whose value reaches a
    threshold holds a set of exactly that price, the same set a table of
    exact prices would hold there.
    """
    table: list[tuple[int, tuple[int, ...]]] = [(0, ())] * (capacity + 1)
    for v, price, value in items:
        for t in range(capacity, price - 1, -1):
            base_value, base_set = table[t - price]
            if base_value + value > table[t][0]:
                table[t] = (base_value + value, base_set + (v,))
    return table


def sav_add_for_p_2approx(instance: BriberyInstance) -> BriberySolution:
    """Budget sweep over exact max-gain sets; cost at most twice the optimum.

    Each planted approval costs every co-approved candidate at most what p
    gains, which is what makes the sweep a 2-approximation.  Also valid for
    the unpriced unrestricted variant, where adding for anyone but p never
    helps.
    """
    _require_add(instance, restricted_only=False)
    if not instance.restricted_to_p and instance.priced:
        raise ValueError("priced unrestricted additions are outside this algorithm's scope")
    e, p, k = instance.election, instance.p, instance.k
    if is_cowinner(e, Rule.SAV, k, p):
        return BriberySolution((), 0, True)
    all_prices = sum(
        instance.prices.add_price(v, p)
        for v in range(e.n)
        if p not in e.ballots[v].approved and instance.prices.add_price(v, p) != FORBIDDEN
    )
    hi = min(instance.budget, all_prices)
    table = _max_gain_table(e, p, instance.prices, hi)
    # Each level plants p's bit in its voters' masks on one tally, tests,
    # and takes the bits out again.
    masks = ballot_masks(e)
    tally = _Tally(masks, e.m, Rule.SAV, k)
    bit = 1 << p
    for t in range(hi + 1):
        voters = sorted(table[t])
        for v in voters:
            tally.set(v, masks[v] | bit)
        if tally.wins(p):
            actions = tuple(AtomicAction(Op.ADD, v, target=p) for v in voters)
            cost = sum(instance.prices.add_price(v, p) for v in voters)
            return BriberySolution(actions, cost, True)
        for v in voters:
            tally.set(v, masks[v])
    return BriberySolution((), None, False)


def gav_add_for_p(instance: BriberyInstance) -> BriberySolution:
    """Exact optimum for GAV when only approvals for p may be added.

    The round cover of ``rav_add_for_p`` under GAV's weights: a voter that no
    earlier round covers is worth 1, any other 0, so the cover's total value
    is at most n.  The exact value-indexed knapsack therefore answers for
    every n up to ``VALUE_DP_CAP``, and the epsilon passed is never read.
    The answer is uncertified; ``solve`` certifies.
    """
    return _round_cover(instance, Rule.GAV, Fraction(1, 10))


def rav_add_for_p(instance: BriberyInstance, epsilon: Fraction | float = Fraction(1, 10)) -> BriberySolution:
    """Add approvals for p so that some greedy round must pick it.

    Each voter's marginal gain for p is 1/t for some t up to the round
    number, so the round cover's values scale to integers by the lcm of
    1..round.  Its knapsack is exact while the scaled value range stays
    small, which makes unit-price instances exact; very large ranges fall
    back to a price-scaled dynamic program whose cost stays within
    (1+epsilon) of the optimum.  The answer is uncertified; ``solve``
    certifies.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return _round_cover(instance, Rule.RAV, Fraction(epsilon))


def _round_cover(instance: BriberyInstance, rule: Rule, epsilon: Fraction) -> BriberySolution:
    """Cheapest approvals for p that make some greedy round of ``rule`` pick it.

    Approvals for p change p's gains alone, so the rounds before the guessed
    one keep their picks unless p is picked sooner.  Each voter lacking p is
    then worth its marginal gain for p in the guessed round, and the voters
    bought must lift p's gain past that round's rivals: a covering knapsack.
    Each round's voters are listed lowest first; the cheapest round wins,
    ties broken by the action lists' sort key.
    """
    _require_add(instance, restricted_only=True)
    e, p, k = instance.election, instance.p, instance.k
    masks = ballot_masks(e)
    picks = _thiele_greedy(masks, e.m, rule, k)
    if p in picks:
        return BriberySolution((), 0, True)
    best: tuple[int, tuple[AtomicAction, ...]] | None = None
    for target_round in range(1, k + 1):
        # The greedy's first target_round - 1 picks do not depend on k.
        committee = sum(1 << c for c in picks[:target_round - 1])
        weights = _thiele_weights(rule, target_round)
        gains = _thiele_gains(masks, e.m, committee, weights)
        items: list[tuple[int, int, int]] = []  # voter, price, scaled gain
        for v in range(e.n):
            if not masks[v] >> p & 1:
                price = instance.prices.add_price(v, p)
                if price != FORBIDDEN:
                    items.append((v, price, weights[(masks[v] & committee).bit_count()]))
        # p's gain must beat lower-index rivals and tie higher-index ones;
        # the round's own pick is a rival p does not beat yet, so theta > 0.
        rivals = [gains[c] + (c < p) for c in range(e.m) if c != p and not committee >> c & 1]
        theta = max(rivals, default=0) - gains[p]
        solved = _min_cost_cover(items, theta, epsilon)
        if solved is None:
            continue
        cost, voters = solved
        actions = tuple(AtomicAction(Op.ADD, v, target=p) for v in sorted(voters))
        if best is None or (cost, _actions_key(actions)) < (best[0], _actions_key(best[1])):
            best = (cost, actions)
    if best is None:
        return BriberySolution((), None, False)
    cost, actions = best
    return BriberySolution(actions, cost, cost <= instance.budget)


def _min_cost_cover(items: list[tuple[int, int, int]], theta: int,
                    epsilon: Fraction) -> tuple[int, list[int]] | None:
    """Cheapest subset with total integer value >= theta > 0.

    Exact value-indexed knapsack while the value range is small, else the
    SAV sweep's budget-indexed ``_knapsack`` while the price range is;
    otherwise that knapsack on prices scaled down by a (1+epsilon/2) grid of
    guesses, which keeps the cost within (1+epsilon) of the optimum.  ``theta``
    is positive: ``_round_cover`` asks only about rounds whose pick is not
    p, and that pick is a rival p does not yet beat.
    """
    total_value = sum(value for _, _, value in items)
    if theta > total_value:
        return None
    if total_value <= VALUE_DP_CAP:
        dp: list[tuple[int, tuple[int, ...]] | None] = [None] * (total_value + 1)
        dp[0] = (0, ())
        for v, price, value in items:
            for g in range(total_value, value - 1, -1):
                base = dp[g - value]
                if base is None:
                    continue
                cand = (base[0] + price, base[1] + (v,))
                if dp[g] is None or cand[0] < dp[g][0]:
                    dp[g] = cand
        # theta <= total_value, so dp[total_value], every item, is a cover.
        cost, voters = min((dp[g] for g in range(theta, total_value + 1) if dp[g] is not None),
                           key=lambda entry: entry[0])
        return cost, list(voters)
    total_price = sum(price for _, price, _ in items)
    if total_price <= VALUE_DP_CAP:
        # Every item together covers theta, so some slot reaches it.
        table = _knapsack(items, total_price)
        cost = next(c for c, (value, _) in enumerate(table) if value >= theta)
        return cost, list(table[cost][1])
    # Price-scaled fallback: sweep candidate optima on a (1+epsilon/2) grid.
    # Every item together covers theta: the sweep returns once guess >= the optimum.
    guess = Fraction(min((price for _, price, _ in items if price > 0), default=1))
    while True:
        nu = max(1, int(epsilon * guess / (2 * max(1, len(items)))))
        cap = int(guess / nu) + len(items)
        table = _knapsack([(v, price // nu, value) for v, price, value in items], cap)
        voters = next((list(chosen) for value, chosen in table if value >= theta), None)
        if voters is not None:
            cost = sum(price for v, price, _ in items if v in voters)
            if cost <= guess * (1 + epsilon):
                return cost, voters
        guess = guess * (1 + epsilon / 2)
