import pytest

from abcbribery import (
    FORBIDDEN,
    BriberyInstance,
    Op,
    PriceTable,
    ResourceGuardError,
    Rule,
    apply_actions,
    is_cowinner,
    make_election,
    solution_cost,
)
from abcbribery.avbribery import av_add, av_delete, av_priced_swap_exact, av_swap_unit
from abcbribery.generators import Stream64, SuiteConfig, suite_instances
from abcbribery.oracle import oracle_bribery

from helpers import verdict


def test_av_add_e0(e0):
    sol = av_add(BriberyInstance(e0, 3, 2, 4, Op.ADD))
    assert sol.feasible and sol.cost == 4
    assert all(a.target == 3 for a in sol.actions)
    assert is_cowinner(apply_actions(e0, sol.actions), Rule.AV, 2, 3)


def test_av_add_budget_short(e0):
    sol = av_add(BriberyInstance(e0, 3, 2, 3, Op.ADD))
    assert not sol.feasible
    assert sol.cost == 4  # the optimum is reported even above budget


def test_av_add_already_winning(e0):
    assert av_add(BriberyInstance(e0, 0, 2, 0, Op.ADD)) .cost == 0


def test_av_delete_e0(e0):
    assert av_delete(BriberyInstance(e0, 3, 2, 9, Op.DELETE)).cost == 7
    assert av_delete(BriberyInstance(e0, 3, 3, 9, Op.DELETE)).cost == 3
    assert av_delete(BriberyInstance(e0, 0, 2, 0, Op.DELETE)).cost == 0


def test_av_delete_never_touches_p(e0):
    sol = av_delete(BriberyInstance(e0, 3, 2, 9, Op.DELETE))
    assert all(a.source != 3 for a in sol.actions)


def test_av_swap_unit_e0(e0):
    assert av_swap_unit(BriberyInstance(e0, 3, 2, 9, Op.SWAP)).cost == 3
    assert av_swap_unit(BriberyInstance(e0, 3, 3, 9, Op.SWAP)).cost == 2
    assert av_swap_unit(BriberyInstance(e0, 0, 2, 0, Op.SWAP)).cost == 0


def test_av_swap_unit_rejects_priced(e0):
    with pytest.raises(ValueError):
        av_swap_unit(BriberyInstance(e0, 3, 2, 9, Op.SWAP, priced=True))


def test_av_priced_swap_relay_chain():
    # A relay through x at 1+1 beats the direct move at 10; relayed swaps must
    # come out in a valid firing order.
    e = make_election(["a", "x", "p"], [("v1", ["a"])])
    prices = PriceTable(swap={(0, 0, 2): 10, (0, 0, 1): 1, (0, 1, 2): 1,
                              (0, 1, 0): 9, (0, 2, 0): 9, (0, 2, 1): 9})
    inst = BriberyInstance(e, 2, 1, 10, Op.SWAP, priced=True, prices=prices)
    sol = av_priced_swap_exact(inst)
    assert sol.feasible and sol.cost == 2
    assert len(sol.actions) == 2
    assert is_cowinner(apply_actions(e, sol.actions), Rule.AV, 1, 2)
    assert verdict(oracle_bribery(inst, Rule.AV)) == verdict(sol)


def test_av_priced_swap_all_forbidden(e0):
    swap = {(v, c, d): FORBIDDEN for v in range(e0.n)
            for c in range(e0.m) for d in range(e0.m) if c != d}
    inst = BriberyInstance(e0, 3, 2, 99, Op.SWAP, priced=True, prices=PriceTable(swap=swap))
    sol = av_priced_swap_exact(inst)
    assert not sol.feasible


def test_av_priced_swap_agrees_with_unit(e0):
    for restricted in (False, True):
        for k in (1, 2, 3):
            unit = av_swap_unit(BriberyInstance(e0, 3, k, 9, Op.SWAP,
                                                restricted_to_p=restricted))
            priced = av_priced_swap_exact(BriberyInstance(e0, 3, k, 9, Op.SWAP, priced=True,
                                                          restricted_to_p=restricted))
            assert verdict(unit) == verdict(priced)


def test_av_add_never_adds_for_others():
    stream = Stream64(41)
    cfg = SuiteConfig(op=Op.ADD, count=60, seed=41, priced=True)
    for inst in suite_instances(cfg):
        sol = av_add(inst)
        assert all(a.kind is Op.ADD and a.target == inst.p for a in sol.actions)


def test_budget_monotonicity():
    cfg = SuiteConfig(op=Op.SWAP, count=80, seed=42)
    for inst in suite_instances(cfg):
        low = av_swap_unit(inst)
        high = av_swap_unit(BriberyInstance(inst.election, inst.p, inst.k,
                                            inst.budget + 2, Op.SWAP))
        if low.feasible:
            assert high.feasible


def test_feasible_at_zero_iff_cowinner():
    cfg = SuiteConfig(op=Op.ADD, count=80, seed=43)
    for inst in suite_instances(cfg):
        zero = BriberyInstance(inst.election, inst.p, inst.k, 0, Op.ADD)
        assert av_add(zero).feasible == is_cowinner(inst.election, Rule.AV, inst.k, inst.p)


def test_deterministic_action_lists(e0):
    a1 = av_swap_unit(BriberyInstance(e0, 3, 2, 9, Op.SWAP))
    a2 = av_swap_unit(BriberyInstance(e0, 3, 2, 9, Op.SWAP))
    assert a1.actions == a2.actions
    b1 = av_priced_swap_exact(BriberyInstance(e0, 3, 2, 9, Op.SWAP, priced=True))
    b2 = av_priced_swap_exact(BriberyInstance(e0, 3, 2, 9, Op.SWAP, priced=True))
    assert b1.actions == b2.actions


def test_witnesses_replay_and_price_correctly():
    for seed, op, priced in ((44, Op.ADD, True), (45, Op.DELETE, True), (46, Op.SWAP, True)):
        cfg = SuiteConfig(op=op, count=40, seed=seed, priced=priced)
        solver = {Op.ADD: av_add, Op.DELETE: av_delete, Op.SWAP: av_priced_swap_exact}[op]
        for inst in suite_instances(cfg):
            sol = solver(inst)
            if sol.feasible:
                assert is_cowinner(apply_actions(inst.election, sol.actions),
                                   Rule.AV, inst.k, inst.p)
                assert solution_cost(sol.actions, inst.prices) == sol.cost


def test_priced_swap_guess_guard_at_its_boundary(e0):
    # C(3, 1) committees with p times 10 thresholds (0..n) make 30 guesses.
    inst = BriberyInstance(e0, 3, 2, 9, Op.SWAP, priced=True)
    assert av_priced_swap_exact(inst, guess_cap=30).cost == 3
    with pytest.raises(ResourceGuardError, match="exceed 29"):
        av_priced_swap_exact(inst, guess_cap=29)
