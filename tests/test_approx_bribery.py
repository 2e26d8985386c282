import itertools
import math
from fractions import Fraction

import pytest

from abcbribery import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    CertificationError,
    Election,
    Op,
    PriceTable,
    Rule,
    apply_actions,
    gav_committee,
    is_cowinner,
    make_election,
    rav_committee,
    solution_cost,
    solve,
)
from abcbribery import approx, rules
from abcbribery.approx import (
    gav_add_for_p,
    rav_add_for_p,
    sav_add_for_p_2approx,
)
from abcbribery.core import ballot_masks
from abcbribery.generators import Stream64, SuiteConfig, suite_instances
from abcbribery.oracle import oracle_bribery, oracle_margin

from helpers import count_calls, count_certify, random_sized_election, verdict


def test_sav_max_gain_zero_budget(e0):
    assert approx._max_gain_table(e0, 3, PriceTable(), 0)[0] == frozenset()


def test_sav_max_gain_prefers_small_ballots():
    e = make_election(["a", "b", "c", "p"],
                      [("v1", []), ("v2", ["a", "b", "c"])])
    assert approx._max_gain_table(e, 3, PriceTable(), 1)[1] == frozenset({0})


def test_sav_max_gain_e0(e0):
    # Singleton-ballot voters v3, v8, v9 each yield 1/2; two of them beat any
    # pairing with a two-approval ballot (1/2 + 1/3).
    chosen = approx._max_gain_table(e0, 3, PriceTable(), 2)[2]
    gain = sum(Fraction(1, len(e0.ballots[v].approved) + 1) for v in chosen)
    assert gain == 1
    assert chosen <= {2, 7, 8}


def test_sav_max_gain_matches_enumeration():
    stream = Stream64(51)
    for _ in range(40):
        e = random_sized_election(stream, 5, 6)
        p = stream.randint(0, e.m - 1)
        budget = stream.randint(0, 5)
        prices = PriceTable(add={(v, c): stream.randint(1, 3)
                                 for v in range(e.n) for c in range(e.m)})
        chosen = approx._max_gain_table(e, p, prices, budget)[budget]
        eligible = [v for v in range(e.n) if p not in e.ballots[v].approved]

        def gain_of(subset):
            return sum(Fraction(1, len(e.ballots[v].approved) + 1) for v in subset)

        best = Fraction(0)
        for r in range(len(eligible) + 1):
            for subset in itertools.combinations(eligible, r):
                if sum(prices.add_price(v, p) for v in subset) <= budget:
                    best = max(best, gain_of(subset))
        assert gain_of(chosen) == best
        assert sum(prices.add_price(v, p) for v in chosen) <= budget


def test_sav_2approx_already_winning(e0):
    assert sav_add_for_p_2approx(BriberyInstance(e0, 0, 2, 0, Op.ADD,
                                                 restricted_to_p=True)).cost == 0


def test_sav_2approx_rejects_priced_unrestricted(e0):
    with pytest.raises(ValueError):
        sav_add_for_p_2approx(BriberyInstance(e0, 3, 2, 3, Op.ADD, priced=True,
                                              prices=PriceTable(add={(0, 3): 2})))


def test_sav_2approx_bound_and_replay():
    stream = Stream64(52)
    cfg = SuiteConfig(op=Op.ADD, count=120, seed=52, priced=True, restricted_to_p=True)
    for inst in suite_instances(cfg):
        approx_sol = sav_add_for_p_2approx(inst)
        exact = oracle_bribery(inst, Rule.SAV)
        if exact.feasible:
            if approx_sol.feasible:
                assert approx_sol.cost <= 2 * exact.cost
                final = apply_actions(inst.election, approx_sol.actions)
                assert is_cowinner(final, Rule.SAV, inst.k, inst.p)
            else:
                # the guarantee only promises success when twice the optimum fits
                assert 2 * exact.cost > inst.budget
        else:
            assert not approx_sol.feasible


def test_gav_add_for_p_fixture(e0):
    assert gav_add_for_p(BriberyInstance(e0, 0, 2, 0, Op.ADD,
                                         restricted_to_p=True)).cost == 0


def test_gav_add_for_p_infeasible_prices():
    e = make_election(["a", "p"], [("v1", ["a"]), ("v2", ["a"])])
    prices = PriceTable(add={(0, 1): FORBIDDEN, (1, 1): FORBIDDEN})
    inst = BriberyInstance(e, 1, 1, 99, Op.ADD, priced=True, restricted_to_p=True,
                           prices=prices)
    assert not gav_add_for_p(inst).feasible


def test_gav_add_for_p_matches_oracle():
    for seed, priced, price_choices in ((53, False, (1, 2, 3)), (54, True, (1, 2, 3)),
                                        (55, True, (0, 1, 2, FORBIDDEN))):
        cfg = SuiteConfig(op=Op.ADD, count=120, seed=seed, priced=priced,
                          restricted_to_p=True, price_choices=price_choices)
        for inst in suite_instances(cfg):
            assert verdict(gav_add_for_p(inst)) == verdict(oracle_bribery(inst, Rule.GAV))


def test_gav_add_only_touches_new_uncovered_voters():
    cfg = SuiteConfig(op=Op.ADD, count=60, seed=55, priced=True, restricted_to_p=True)
    for inst in suite_instances(cfg):
        sol = gav_add_for_p(inst)
        for action in sol.actions:
            assert action.kind is Op.ADD and action.target == inst.p
        voters = [a.voter for a in sol.actions]
        assert len(voters) == len(set(voters))
        assert all(inst.p not in inst.election.ballots[v].approved for v in voters)


def test_rav_add_for_p_epsilon_validation(e0):
    with pytest.raises(ValueError):
        rav_add_for_p(BriberyInstance(e0, 3, 2, 3, Op.ADD, restricted_to_p=True), 0)


def test_rav_add_for_p_already_winning(e0):
    assert rav_add_for_p(BriberyInstance(e0, 0, 2, 0, Op.ADD,
                                         restricted_to_p=True)).cost == 0


def test_rav_add_for_p_certifies_cover(e0, monkeypatch):
    # solve replays the returned cover through the RAV kernel, once.
    inst = BriberyInstance(e0, 3, 2, 9, Op.ADD, restricted_to_p=True)
    certified = count_certify(monkeypatch)
    assert solve(inst, Rule.RAV)[0].feasible
    assert certified[0] == 1
    monkeypatch.setattr(rules, "_is_cowinner_from_ballots", lambda *args: False)
    with pytest.raises(CertificationError, match="co-winner"):
        solve(inst, Rule.RAV)


def test_rav_add_for_p_unit_matches_oracle():
    cfg = SuiteConfig(op=Op.ADD, count=120, seed=56, restricted_to_p=True)
    for inst in suite_instances(cfg):
        assert verdict(rav_add_for_p(inst)) == verdict(oracle_bribery(inst, Rule.RAV))


def test_rav_add_for_p_priced_bound():
    cfg = SuiteConfig(op=Op.ADD, count=120, seed=57, priced=True, restricted_to_p=True)
    for inst in suite_instances(cfg):
        sol = rav_add_for_p(inst, Fraction(1, 10))
        exact = oracle_bribery(inst, Rule.RAV)
        if exact.feasible:
            if sol.feasible:
                assert Fraction(sol.cost) <= Fraction(11, 10) * exact.cost
            else:
                assert Fraction(11, 10) * exact.cost > inst.budget
        else:
            assert not sol.feasible


def test_rav_add_for_p_price_scaled_fallback(monkeypatch):
    # With no room for the exact value-indexed knapsack, every round that
    # needs approvals goes through the (1+epsilon) price-scaled sweep.
    monkeypatch.setattr(approx, "VALUE_DP_CAP", 0)
    epsilon = Fraction(1, 10)
    cfg = SuiteConfig(op=Op.ADD, count=120, seed=59, priced=True, restricted_to_p=True,
                      price_choices=(1, 2, 3, 5, 8))
    bought = 0
    for inst in suite_instances(cfg):
        sol = rav_add_for_p(inst, epsilon)
        opt = oracle_margin(inst.election, Rule.RAV, inst.k, inst.p, Op.ADD, inst.prices,
                            restricted=True)
        if sol.cost is None:
            assert opt == math.inf
            continue
        assert inst.p in rav_committee(apply_actions(inst.election, sol.actions), inst.k)
        assert solution_cost(sol.actions, inst.prices) == sol.cost
        assert sol.feasible == (sol.cost <= inst.budget)
        assert opt <= sol.cost <= (1 + epsilon) * opt
        bought += sol.cost > 0
    assert bought >= 30


def test_rav_add_for_p_cover_out_of_reach():
    # Every voter approving p still leaves p tied with a, who wins the tie:
    # the round needs a gain of 3 from two voters worth 1 each.
    e = make_election(["a", "p"], [("v1", ["a"]), ("v2", ["a"]), ("v3", ["a", "p"])])
    inst = BriberyInstance(e, 1, 1, 5, Op.ADD, restricted_to_p=True)
    assert verdict(rav_add_for_p(inst)) == verdict(oracle_bribery(inst, Rule.RAV)) == (False, None)


def test_rav_add_for_p_price_scaled_fallback_finds_a_free_cover(monkeypatch):
    # v1-v3 approving p cover the round for free; v4's price 5 puts the price
    # range above the cap too, so the price-scaled sweep runs, and its first
    # guess, 5, already bounds the optimum, 0.
    monkeypatch.setattr(approx, "VALUE_DP_CAP", 0)
    e = make_election(["a", "p"], [("v1", ["a"]), ("v2", ["a"]), ("v3", []), ("v4", [])])
    prices = PriceTable(add={(0, 1): 0, (1, 1): 0, (2, 1): 0, (3, 1): 5})
    inst = BriberyInstance(e, 1, 1, 0, Op.ADD, priced=True, restricted_to_p=True, prices=prices)
    sol = rav_add_for_p(inst)
    assert (sol.cost, sol.feasible) == (0, True)
    assert oracle_margin(e, Rule.RAV, 1, 1, Op.ADD, prices, restricted=True) == 0


@pytest.mark.parametrize("table", ["value", "cost", "sweep"])
def test_min_cost_cover_matches_brute_force(monkeypatch, table):
    # Values 4-9 and prices 0-3, so the price range lies below the value
    # range.  The default cap fits both, and the value-indexed table answers;
    # a cap of the price range fits only it, and the cost-indexed table
    # answers; a cap below both leaves the price-scaled sweep.
    epsilon = Fraction(1, 10)
    stream = Stream64(61)
    covered = 0
    for _ in range(60):
        items = [(v, stream.randint(0, 3), stream.randint(4, 9))
                 for v in range(stream.randint(1, 7))]
        theta = stream.randint(1, 40)
        total_price = sum(price for _, price, _ in items)
        if table != "value":
            monkeypatch.setattr(approx, "VALUE_DP_CAP",
                                total_price - (table == "sweep"))
        opt = None
        for size in range(len(items) + 1):
            for chosen in itertools.combinations(items, size):
                if sum(value for _, _, value in chosen) >= theta:
                    cost = sum(price for _, price, _ in chosen)
                    opt = cost if opt is None else min(opt, cost)
        got = approx._min_cost_cover(items, theta, epsilon)
        if opt is None:
            assert got is None
            continue
        cost, voters = got
        chosen = [item for item in items if item[0] in voters]
        assert len(chosen) == len(voters)
        assert sum(value for _, _, value in chosen) >= theta
        assert sum(price for _, price, _ in chosen) == cost
        assert opt <= cost <= (opt if table != "sweep" else (1 + epsilon) * opt)
        covered += 1
    assert covered >= 30


def test_add_for_p_solutions_stay_on_p():
    cfg = SuiteConfig(op=Op.ADD, count=60, seed=58, restricted_to_p=True)
    for inst in suite_instances(cfg):
        for solver in (gav_add_for_p, rav_add_for_p):
            sol = solver(inst)
            assert all(a.target == inst.p for a in sol.actions)
            final = apply_actions(inst.election, sol.actions)
            if sol.feasible and solver is gav_add_for_p:
                assert inst.p in gav_committee(final, inst.k)
            if sol.feasible and solver is rav_add_for_p:
                assert inst.p in rav_committee(final, inst.k)


# --- the mask routes against their Election-based form ------------------------


def _election_sav_sweep(instance):
    """sav_add_for_p_2approx replaying the actions and rerunning is_cowinner
    per budget level."""
    e, p, k, prices = instance.election, instance.p, instance.k, instance.prices
    if is_cowinner(e, Rule.SAV, k, p):
        return (), 0
    hi = min(instance.budget, sum(prices.add_price(v, p) for v in range(e.n)
                                  if p not in e.ballots[v].approved
                                  and prices.add_price(v, p) != FORBIDDEN))
    table = approx._max_gain_table(e, p, prices, hi)
    for t in range(hi + 1):
        actions = tuple(AtomicAction(Op.ADD, v, target=p) for v in sorted(table[t]))
        if is_cowinner(apply_actions(e, actions), Rule.SAV, k, p):
            return actions, sum(prices.add_price(v, p) for v in table[t])
    return (), None


def _election_gav_add(instance):
    """GAV additions for p by purchase: per guessed round, buy the cheapest
    voter no earlier round covers until p wins, building an election per
    bought approval and rerunning gav_committee and the prefix greedy on its
    rebuilt masks."""
    e, p, k, prices = instance.election, instance.p, instance.k, instance.prices
    if p in gav_committee(e, k):
        return (), 0
    best = None
    for target_round in range(1, k + 1):
        cur, actions, cost = e, [], 0
        while True:
            if p in gav_committee(cur, k):
                key = (cost, [a.sort_key() for a in actions])
                if best is None or key < best[0]:
                    best = (key, tuple(actions))
                break
            prefix = rules._thiele_greedy(ballot_masks(cur), cur.m, Rule.GAV,
                                          target_round - 1)
            covered = {v for v in range(cur.n) if not cur.ballots[v].approved.isdisjoint(prefix)}
            eligible = [(prices.add_price(v, p), v) for v in range(cur.n)
                        if v not in covered and p not in cur.ballots[v].approved
                        and prices.add_price(v, p) != FORBIDDEN]
            if not eligible:
                break
            price, v = min(eligible)
            action = AtomicAction(Op.ADD, v, target=p)
            cur = apply_actions(cur, [action])
            actions.append(action)
            cost += price
    return (best[1], best[0][0]) if best else ((), None)


@pytest.mark.parametrize("solver, reference", [(sav_add_for_p_2approx, _election_sav_sweep),
                                               (gav_add_for_p, _election_gav_add)])
@pytest.mark.parametrize("priced", [False, True])
def test_mask_routes_match_election_loops(monkeypatch, solver, reference, priced):
    # Restricted additions, priced and at unit prices; the routes build no
    # election after the input's, and their action lists are the reference's,
    # except for priced GAV: the round cover lists its voters lowest first
    # and may pick another set of the same cost as the purchase loop's.
    instances = []
    for seed, (m, n, probability) in enumerate(((5, 6, 0.5), (8, 10, 0.3), (8, 10, 0.7))):
        instances += suite_instances(SuiteConfig(
            op=Op.ADD, count=100, seed=60 + seed, max_candidates=m, max_voters=n,
            max_budget=8, priced=priced, restricted_to_p=True, price_choices=(1, 2, 3, FORBIDDEN),
            approval_probability=probability))
    wants = [reference(inst) for inst in instances]
    elections = count_calls(monkeypatch, Election, "__init__")
    bought = 0
    for inst, (actions, cost) in zip(instances, wants):
        sol = solver(inst)
        if priced and solver is gav_add_for_p:
            assert sol.cost == cost, inst
        else:
            assert (sol.actions, sol.cost) == (actions, cost), inst
        assert sol.feasible == (cost is not None and cost <= inst.budget)
        bought += bool(actions)
    assert elections[0] == 0
    assert bought > 50


@pytest.mark.parametrize("op, message", [
    (Op.SWAP, "^instance operation is swap, expected add$"),
    (Op.ADD, "^this algorithm handles adding approvals for p only$"),
], ids=["operation", "restricted"])
def test_solver_checks_its_instance(e0, op, message):
    with pytest.raises(ValueError, match=message):
        approx.gav_add_for_p(BriberyInstance(e0, 3, 2, 3, op))
