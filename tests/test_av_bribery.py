import pytest

from abcbribery import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    Election,
    Op,
    PriceTable,
    ResourceGuardError,
    Rule,
    apply_actions,
    av_scores,
    certify,
    is_cowinner,
    make_election,
    solution_cost,
)
from abcbribery import avbribery
from abcbribery.avbribery import av_add, av_delete, av_priced_swap_exact, av_swap_unit
from abcbribery.core import _actions_key
from abcbribery.generators import (
    Stream64,
    SuiteConfig,
    cubic_graphs,
    gen_is_to_av_swap,
    suite_instances,
)
from abcbribery.oracle import oracle_bribery

from helpers import count_calls, verdict


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


def test_av_delete_forbidden_bring_down():
    # Bringing a down to p needs v1's approval of a, which may not be deleted.
    e = make_election(["a", "b", "p"], [("v1", ["a"]), ("v2", ["b"]), ("v3", [])])
    prices = PriceTable(delete={(0, 0): FORBIDDEN})
    for k, cost in ((1, None), (2, 1)):  # with k = 2, bringing b down is enough
        inst = BriberyInstance(e, 2, k, 9, Op.DELETE, priced=True, prices=prices)
        sol = av_delete(inst)
        assert sol.cost == cost and verdict(sol) == verdict(oracle_bribery(inst, Rule.AV))


def test_av_swap_unit_always_finds_a_witness():
    # Its T = 0 run always makes p win, so av_swap_unit never answers
    # cost None, even with voters whose empty ballots cannot swap.
    cfg = SuiteConfig(op=Op.SWAP, count=150, seed=71, max_candidates=5, max_voters=6,
                      approval_probability=0.25)
    empty = 0
    for inst in suite_instances(cfg):
        sol = av_swap_unit(inst)
        assert sol.cost is not None
        assert verdict(sol) == verdict(oracle_bribery(inst, Rule.AV)), inst
        empty += any(not b.approved for b in inst.election.ballots)
    assert empty > 50


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


def test_relay_ordering_rejects_an_invalid_hop():
    # Vote 0 approves only candidate 0, so a relay hop out of candidate 1
    # has nothing to move.
    with pytest.raises(RuntimeError, match=r"^relay swap 1->2 is invalid in vote 0$"):
        avbribery._order_vote_swaps(0, 0b001, [[(1, 2)]])


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


def test_priced_swap_routes_only_the_violations_on_one_move_network(monkeypatch):
    # Every solved guess on this instance has T = 12: p gains 12 approvals and
    # each of the four non-members sheds 3.  The move arcs are built once and
    # carry no lower bound; a guess appends 2m + 1 arcs whose lower bounds are
    # exactly its shed and gain, and requires no flow of its own.
    nets = []
    solve_flow = avbribery.min_cost_flow_lb

    def recorded(net):
        nets.append(net)
        return solve_flow(net)
    monkeypatch.setattr(avbribery, "min_cost_flow_lb", recorded)
    inst = gen_is_to_av_swap(cubic_graphs(8)[1], 4)
    assert av_priced_swap_exact(inst, guess_cap=10**7).cost == 24
    assert len(nets) == 70
    prefix = nets[0].arcs[:-(2 * inst.election.m + 1)]
    assert not any(arc.lower for arc in prefix)
    for net in nets:
        assert net.required_flow == 0
        assert all(arc is move for arc, move in zip(net.arcs, prefix))
        guess = net.arcs[len(prefix):]
        assert len(guess) == 2 * inst.election.m + 1
        assert sorted(arc.lower for arc in guess if arc.lower) == [3, 3, 3, 3, 12]


@pytest.mark.parametrize("restricted", [False, True])
def test_priced_swap_with_zero_and_forbidden_prices_matches_oracle(restricted):
    cfg = SuiteConfig(op=Op.SWAP, count=700, seed=93 + restricted, priced=True,
                      restricted_to_p=restricted, max_candidates=5, max_voters=4,
                      price_choices=(0, 1, 3, FORBIDDEN))
    losing = free = blocked = 0
    for inst in suite_instances(cfg):
        if is_cowinner(inst.election, Rule.AV, inst.k, inst.p):
            continue
        sol = certify(inst, Rule.AV, av_priced_swap_exact(inst))
        assert verdict(sol) == verdict(oracle_bribery(inst, Rule.AV)), inst
        losing += 1
        free += sol.cost == 0
        blocked += sol.cost is None
    assert losing > 100 and free > 50 and blocked > 5


# --- the greedies on integer scores against their Election-based form --------


def _election_add(instance):
    """av_add rebuilding the election and rerunning is_cowinner per addition."""
    e, p, k = instance.election, instance.p, instance.k
    if is_cowinner(e, Rule.AV, k, p):
        return (), 0
    cells = sorted((instance.prices.add_price(v, p), v) for v in range(e.n)
                   if p not in e.ballots[v].approved
                   and instance.prices.add_price(v, p) != FORBIDDEN)
    actions, cost, cur = [], 0, e
    for price, v in cells:
        action = AtomicAction(Op.ADD, v, target=p)
        cur = apply_actions(cur, [action])
        actions.append(action)
        cost += price
        if is_cowinner(cur, Rule.AV, k, p):
            return tuple(actions), cost
    return (), None


def _election_swap_unit(instance):
    """av_swap_unit rebuilding the election, rescoring and rerunning
    is_cowinner per swap, for every entry score T."""
    e, p, k = instance.election, instance.p, instance.k
    if is_cowinner(e, Rule.AV, k, p):
        return (), 0
    swap_cap = sum(1 for b in e.ballots if p not in b.approved)
    best = None
    for threshold in range(e.n + 1):
        cur, actions = e, []
        while len(actions) <= swap_cap:
            if is_cowinner(cur, Rule.AV, k, p):
                key = (len(actions), _actions_key(actions))
                if best is None or key < best[0]:
                    best = (key, tuple(actions))
                break
            if len(actions) == swap_cap:
                break
            scores = av_scores(cur)
            ranked = sorted((c for c in range(e.m) if c != p), key=lambda c: (-scores[c], c))
            fragile = [c for c in ranked[k - 1:] if scores[c] > max(scores[p], threshold)]
            if fragile:
                donor = fragile[0]
                vote = next(v for v in range(e.n) if donor in cur.ballots[v].approved
                            and p not in cur.ballots[v].approved)
            else:
                vote = next((v for v in range(e.n) if p not in cur.ballots[v].approved
                             and cur.ballots[v].approved), None)
                if vote is None:
                    break
                donor = min(cur.ballots[vote].approved)
            action = AtomicAction(Op.SWAP, vote, source=donor, target=p)
            cur = apply_actions(cur, [action])
            actions.append(action)
    return (best[1], best[0][0]) if best else ((), None)


@pytest.mark.parametrize("solver, reference, op, priced", [
    (av_add, _election_add, Op.ADD, True),
    (av_add, _election_add, Op.ADD, False),
    (av_swap_unit, _election_swap_unit, Op.SWAP, False),
])
def test_integer_greedies_match_election_loops(solver, reference, op, priced):
    cases = 0
    for seed, (m, n, probability) in enumerate(((5, 6, 0.5), (8, 10, 0.3), (8, 10, 0.7))):
        for restricted in (False, True):
            cfg = SuiteConfig(op=op, count=60, seed=70 + seed, max_candidates=m, max_voters=n,
                              priced=priced, restricted_to_p=restricted,
                              approval_probability=probability)
            for inst in suite_instances(cfg):
                actions, cost = reference(inst)
                sol = solver(inst)
                assert (sol.actions, sol.cost) == (actions, cost), inst
                assert sol.feasible == (cost is not None and cost <= inst.budget)
                cases += bool(actions)
    assert cases > 80


@pytest.mark.parametrize("solver, op", [(av_add, Op.ADD), (av_swap_unit, Op.SWAP)])
def test_integer_greedies_build_no_election(monkeypatch, solver, op):
    # One is_cowinner call per solve, for the start; the steps move integer
    # scores and masks, so no election is built after the input's.
    instances = list(suite_instances(SuiteConfig(op=op, count=60, seed=79, max_candidates=8,
                                                 max_voters=10)))
    checks = count_calls(monkeypatch, avbribery, "is_cowinner")
    elections = count_calls(monkeypatch, Election, "__init__")
    steps = 0
    for inst in instances:
        before = checks[0]
        steps += len(solver(inst).actions)
        assert checks[0] - before == 1
    assert elections[0] == 0
    assert steps > 10
    apply_actions(instances[0].election, ())
    assert elections[0] == 1  # the counter sees an election being built


@pytest.mark.parametrize("solver, op", [(av_add, Op.DELETE), (av_delete, Op.SWAP),
                                        (av_swap_unit, Op.ADD)],
                         ids=["add", "delete", "swap"])
def test_solver_checks_its_operation(e0, solver, op):
    with pytest.raises(ValueError, match="^instance operation is .*, expected "):
        solver(BriberyInstance(e0, 3, 2, 3, op))
