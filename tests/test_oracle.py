import heapq
import math

import pytest

from abcbribery import (
    FORBIDDEN,
    BriberyInstance,
    CertificationError,
    ElectionError,
    Op,
    PriceTable,
    ResourceGuardError,
    Rule,
    apply_actions,
    is_cowinner,
    make_election,
    solution_cost,
    solve,
)
from abcbribery import oracle, rules
from abcbribery.core import _iter_bits, ballot_masks
from abcbribery.generators import Stream64, SuiteConfig, suite_instances
from abcbribery.oracle import oracle_bribery, oracle_margin, oracle_margins

from helpers import count_calls, count_certify, count_leaves, verdict


def test_e0_paper_margins(e0):
    assert oracle_margin(e0, Rule.AV, 2, 3, Op.ADD) == 4
    assert oracle_margin(e0, Rule.AV, 2, 3, Op.DELETE) == 7
    assert oracle_margin(e0, Rule.AV, 2, 3, Op.SWAP) == 3
    assert oracle_bribery(BriberyInstance(e0, 3, 2, 4, Op.ADD), Rule.AV).cost == 4
    assert oracle_bribery(BriberyInstance(e0, 3, 2, 7, Op.DELETE), Rule.AV).cost == 7
    assert oracle_bribery(BriberyInstance(e0, 3, 2, 3, Op.SWAP), Rule.AV).cost == 3


def test_budget_zero_cowinner(e0):
    sol = oracle_bribery(BriberyInstance(e0, 0, 2, 0, Op.ADD), Rule.AV)
    assert sol.feasible and sol.cost == 0 and sol.actions == ()


def test_e0_sav_add_regression(e0):
    # Frozen on first verified run: three singleton-ballot adds leave both a
    # and b above p; the fourth add (in the two-approval ballot v2) drags b
    # to 2 while p reaches 13/6.
    inst = BriberyInstance(e0, 3, 2, 9, Op.ADD, restricted_to_p=True)
    assert oracle_bribery(inst, Rule.SAV).cost == 4


def test_margins_of_winners_are_zero(e0):
    for op in Op:
        assert oracle_margin(e0, Rule.AV, 2, 0, op) == 0
        assert oracle_margin(e0, Rule.AV, 2, 1, op) == 0


def test_e0_delete_k3(e0):
    assert oracle_margin(e0, Rule.AV, 3, 3, Op.DELETE) == 3


def test_margin_can_be_infinite():
    # p shares its only ballot with a lower-index candidate, so the greedy
    # always picks that one first and additions can never help.
    e = make_election(["a", "p", "b"], [("v1", ["a", "p"])])
    assert oracle_margin(e, Rule.GAV, 1, 1, Op.ADD) == math.inf


def test_restricted_delete_rejected(e0):
    with pytest.raises(Exception):
        oracle_margin(e0, Rule.AV, 2, 3, Op.DELETE, restricted=True)


def test_restriction_dominance():
    cfg = SuiteConfig(op=Op.SWAP, count=80, seed=91, max_candidates=4, max_voters=4)
    for inst in suite_instances(cfg):
        free = oracle_margin(inst.election, Rule.AV, inst.k, inst.p, Op.SWAP,
                             inst.prices, restricted=False)
        pinned = oracle_margin(inst.election, Rule.AV, inst.k, inst.p, Op.SWAP,
                               inst.prices, restricted=True)
        assert free <= pinned


def test_av_add_margin_characterization():
    # unit-price additions for p under AV close exactly the gap to the k-th
    # highest score (whenever that many votes lack p)
    cfg = SuiteConfig(op=Op.ADD, count=80, seed=92, max_candidates=5, max_voters=5)
    from abcbribery.rules import av_scores
    for inst in suite_instances(cfg):
        e, k, p = inst.election, inst.k, inst.p
        scores = av_scores(e)
        kth = sorted(scores, reverse=True)[k - 1]
        gap = max(0, kth - scores[p])
        missing = sum(1 for b in e.ballots if p not in b.approved)
        if gap <= missing:
            assert oracle_margin(e, Rule.AV, k, p, Op.ADD) == gap


def test_budget_monotone_and_witness_replay():
    cfg = SuiteConfig(op=Op.DELETE, count=60, seed=93, priced=True,
                      max_candidates=4, max_voters=4)
    for inst in suite_instances(cfg):
        sol = oracle_bribery(inst, Rule.SAV)
        richer = oracle_bribery(
            BriberyInstance(inst.election, inst.p, inst.k, inst.budget + 2,
                            Op.DELETE, priced=True, prices=inst.prices), Rule.SAV)
        if sol.feasible:
            assert richer.feasible
            assert richer.cost <= sol.cost
            final = apply_actions(inst.election, sol.actions)
            assert is_cowinner(final, Rule.SAV, inst.k, inst.p)
            assert solution_cost(sol.actions, inst.prices) == sol.cost


def test_swap_witnesses_apply_in_order():
    cfg = SuiteConfig(op=Op.SWAP, count=60, seed=94, priced=True,
                      max_candidates=4, max_voters=4)
    for inst in suite_instances(cfg):
        sol = oracle_bribery(inst, Rule.AV)
        if sol.feasible:
            final = apply_actions(inst.election, sol.actions)
            assert is_cowinner(final, Rule.AV, inst.k, inst.p)


def test_resource_guard():
    e = make_election([f"c{i}" for i in range(8)],
                      [(f"v{i}", [f"c{j}" for j in range(1, 8)]) for i in range(8)])
    inst = BriberyInstance(e, 0, 4, 8, Op.DELETE)
    with pytest.raises(ResourceGuardError):
        oracle_bribery(inst, Rule.AV, max_configs=1000)


def _margins_or_guard(e, rule, k, op, prices, max_configs):
    """Per-candidate oracle_margin, or "guard" when any of the calls trips it."""
    out = []
    for p in range(e.m):
        try:
            out.append(oracle_margin(e, rule, k, p, op, prices, max_configs=max_configs))
        except ResourceGuardError:
            return "guard"
    return out


def _shared_or_guard(e, rule, k, op, prices, max_configs):
    try:
        return oracle_margins(e, rule, k, op, prices, max_configs=max_configs)
    except ResourceGuardError:
        return "guard"


@pytest.mark.parametrize("priced", [False, True])
def test_shared_margins_equal_per_candidate_margins(priced):
    hits = 0
    for rule in Rule:
        for op in Op:
            cfg = SuiteConfig(op=op, count=12, seed=95, priced=priced, price_choices=(1, 2, 3),
                              max_candidates=6, max_voters=6)
            for inst in suite_instances(cfg):
                e, k = inst.election, inst.k
                want = [oracle_margin(e, rule, k, p, op, inst.prices) for p in range(e.m)]
                assert oracle_margins(e, rule, k, op, inst.prices) == want
                hits += sum(0 < margin < math.inf for margin in want)
    assert hits > 100


@pytest.mark.parametrize("max_configs", [12, 40, 150])
def test_shared_margins_guard_parity(max_configs):
    outcomes = set()
    for rule in Rule:
        for op in Op:
            cfg = SuiteConfig(op=op, count=10, seed=96, priced=True, max_candidates=6, max_voters=6)
            for inst in suite_instances(cfg):
                args = (inst.election, rule, inst.k, op, inst.prices, max_configs)
                want = _margins_or_guard(*args)
                assert _shared_or_guard(*args) == want
                outcomes.add(want == "guard")
    assert outcomes == {False, True}


@pytest.mark.parametrize("op, approved, length", [
    (Op.ADD, ["c0"], 16),                         # 4 free cells: 2^4 ballots
    (Op.DELETE, ["c0", "c1", "c2", "c3", "c4"], 32),  # 5 deletable cells
    (Op.SWAP, ["c0"], 5),                         # the approval can sit on any candidate
])
def test_option_list_guard_boundary(op, approved, length):
    # c0 already wins, so the search itself needs a single configuration and
    # only the length of the one voter's option list meets the cap.
    e = make_election([f"c{i}" for i in range(5)], [("v1", approved)])
    assert oracle_margin(e, Rule.SAV, 1, 0, op, max_configs=length) == 0
    assert oracle_margins(e, Rule.SAV, 1, op, max_configs=length)[0] == 0
    with pytest.raises(ResourceGuardError, match="reachable ballots"):
        oracle_margin(e, Rule.SAV, 1, 0, op, max_configs=length - 1)
    with pytest.raises(ResourceGuardError, match="reachable ballots"):
        oracle_margins(e, Rule.SAV, 1, op, max_configs=length - 1)


@pytest.mark.parametrize("k", [0, 4])
def test_margins_reject_committee_size_out_of_range(k):
    # Outside 1..m the rules disagree on what a committee is (k = 4 over 3
    # candidates would read inf for CCAV but 0 for SAV and GAV): no margin.
    e = make_election(["a", "b", "c"], [("v1", ["a"]), ("v2", ["b"])])
    for rule in Rule:
        with pytest.raises(ElectionError, match="committee size"):
            oracle_margin(e, rule, k, 0, Op.ADD)
        with pytest.raises(ElectionError, match="committee size"):
            oracle_margins(e, rule, k, Op.ADD)


def test_option_list_guard_boundary_within_budget():
    # with a budget of 1 the voter keeps its ballot or buys one of 4 additions
    e = make_election([f"c{i}" for i in range(5)], [("v1", ["c0"])])
    inst = BriberyInstance(e, 0, 1, 1, Op.ADD)
    assert oracle_bribery(inst, Rule.AV, max_configs=5).cost == 0
    with pytest.raises(ResourceGuardError, match="reachable ballots"):
        oracle_bribery(inst, Rule.AV, max_configs=4)


def test_option_list_guard_before_building():
    # 3 voters with 15 free cells each: 2^15 ballots apiece, refused before any is built
    e = make_election([f"c{i}" for i in range(16)], [(f"v{i}", ["c0"]) for i in range(3)])
    with pytest.raises(ResourceGuardError, match="32768 reachable ballots"):
        oracle_margin(e, Rule.AV, 1, 1, Op.ADD, max_configs=1000)


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV, Rule.GAV, Rule.RAV])
def test_one_cowinner_mask_per_leaf(monkeypatch, rule):
    # v1 may not drop c0, so c2 (approved by nobody) never joins the single
    # seat: its margin is infinite, the sweep visits every final election, and
    # the number of leaves is the product of the option-list lengths.
    e = make_election(["c0", "c1", "c2"],
                      [("v1", ["c0", "c1"]), ("v2", ["c0"]), ("v3", ["c1"])])
    prices = PriceTable(delete={(0, 0): math.inf})
    options, _ = oracle._vote_options(e, ballot_masks(e), prices, Op.DELETE, False, 0, None,
                                      oracle.DEFAULT_MAX_CONFIGS)
    leaves = math.prod(map(len, options))
    tallies = count_calls(monkeypatch, oracle, "_Tally")
    transposes = count_calls(monkeypatch, rules, "_transpose")
    masks = count_calls(monkeypatch, rules._Tally, "cowinners")
    singles = count_calls(monkeypatch, rules._Tally, "wins")
    greedies = count_calls(monkeypatch, rules, "_greedy_picks")
    packed = count_calls(monkeypatch, rules._CommitteeValues, "best")
    margins = oracle_margins(e, rule, 1, Op.DELETE, prices)
    assert margins[2] == math.inf and margins[0] == 0
    # One tally per search, and no fresh one per leaf: CCAV and PAV read each
    # leaf off its running packed committee values; GAV and RAV transpose
    # once and run the greedy on its live candidate columns.  A leaf reads
    # the co-winner mask while several targets are pending and asks wins once
    # c2 is the only one.
    assert masks[0] + singles[0] == leaves == 8
    if rule in (Rule.GAV, Rule.RAV):
        # The greedy picks c0 at cost 0 and c1 at the second leaf of cost 1.
        # c2 is approved by nobody, so c0 < c2 screens each of the other 5
        # leaves: 5 screened + 3 greedy = 8.
        assert (masks[0], singles[0], greedies[0], packed[0]) == (3, 5, 3, 0)
        assert transposes[0] == 1
    else:
        # c0 and c1 tie at cost 0, which leaves c2 alone from the second leaf.
        assert (masks[0], singles[0], greedies[0], packed[0]) == (1, 7, 0, 8)
        assert transposes[0] == 0
    assert tallies[0] == 1


@pytest.mark.parametrize("rule", [Rule.GAV, Rule.RAV])
def test_single_target_leaves_ask_wins(monkeypatch, rule):
    # oracle_margin has one target, so every leaf asks wins(c1).  Cost 0: c0
    # and c1 both have 2 approvers, nothing screens, and the greedy picks c0.
    # Cost 1, first leaf: v3 drops c1, c0's 2 approvers beat c1's 1, screened.
    # Second leaf: v2 drops c0, the greedy picks c1 and the search ends.
    e = make_election(["c0", "c1", "c2"],
                      [("v1", ["c0", "c1"]), ("v2", ["c0"]), ("v3", ["c1"])])
    prices = PriceTable(delete={(0, 0): math.inf})
    masks = count_calls(monkeypatch, rules._Tally, "cowinners")
    singles = count_calls(monkeypatch, rules._Tally, "wins")
    greedies = count_calls(monkeypatch, rules, "_greedy_picks")
    assert oracle_margin(e, rule, 1, 1, Op.DELETE, prices) == 1
    assert (masks[0], singles[0], greedies[0]) == (0, 3, 2)


def test_score_rule_leaves_skip_the_mask_kernel(monkeypatch):
    # AV and SAV score the election once per search and move the scores per
    # changed voter; no leaf rescores the ballots.
    e = make_election(["c0", "c1", "c2"], [("v1", ["c0", "c1"]), ("v2", ["c0"])])
    tallies = count_calls(monkeypatch, oracle, "_Tally")
    scorings = count_calls(monkeypatch, rules, "_scores")
    deltas = count_calls(monkeypatch, rules, "_score_delta")
    for rule in (Rule.AV, Rule.SAV):
        assert oracle_margins(e, rule, 1, Op.SWAP)[0] == 0
    assert tallies[0] == scorings[0] == 2 and deltas[0] > 0


def test_oracle_witness_is_certified(monkeypatch, e0):
    # solve replays the oracle's witness through the kernel, once.
    inst = BriberyInstance(e0, 3, 2, 9, Op.ADD)
    certified = count_certify(monkeypatch)
    assert solve(inst, Rule.PAV, "oracle")[0].feasible
    assert certified[0] == 1
    monkeypatch.setattr(rules, "_is_cowinner_from_ballots", lambda *args: False)
    with pytest.raises(CertificationError, match="co-winner"):
        solve(inst, Rule.PAV, "oracle")


def _moves(solution):
    return [(a.voter, a.source, a.target) for a in solution.actions]


@pytest.mark.parametrize("rule, op, budget, cost, moves", [
    (Rule.AV, Op.ADD, 4, 4, [(4, None, 3), (5, None, 3), (7, None, 3), (8, None, 3)]),
    (Rule.PAV, Op.ADD, 9, 4, [(1, None, 3), (5, None, 3), (7, None, 3), (8, None, 3)]),
    # one voter's deletions come lowest candidate first
    (Rule.AV, Op.DELETE, 7, 7, [(1, 1, None), (1, 2, None), (3, 1, None), (4, 1, None),
                                (5, 2, None), (6, 1, None), (6, 2, None)]),
    (Rule.RAV, Op.DELETE, 9, 7, [(1, 1, None), (1, 2, None), (3, 1, None), (4, 1, None),
                                 (5, 2, None), (6, 1, None), (6, 2, None)]),
    (Rule.AV, Op.SWAP, 3, 3, [(5, 0, 3), (7, 0, 3), (8, 0, 3)]),
    (Rule.GAV, Op.SWAP, 9, 2, [(7, 0, 3), (8, 0, 3)]),
])
def test_e0_witnesses_pinned(e0, rule, op, budget, cost, moves):
    # Recorded when every option carried its own actions; the witness rebuilt
    # from the final ballots must be the same, action for action.
    sol = oracle_bribery(BriberyInstance(e0, 3, 2, budget, op), rule)
    assert (sol.feasible, sol.cost, _moves(sol)) == (True, cost, moves)


def test_priced_swap_witness_relays_through_an_intermediate(monkeypatch):
    # Moving v1's approval from a straight to p costs 5; via b it costs 1 + 1.
    e = make_election(["a", "p", "b"], [("v1", ["a"]), ("v2", ["a"])])
    prices = PriceTable(swap={(0, 0, 1): 5, (1, 0, 1): 5, (1, 0, 2): 5, (1, 2, 1): 5})
    built = count_calls(monkeypatch, oracle, "AtomicAction")
    sol = oracle_bribery(BriberyInstance(e, 1, 1, 5, Op.SWAP, priced=True, prices=prices), Rule.AV)
    assert (sol.feasible, sol.cost, _moves(sol)) == (True, 2, [(0, 0, 2), (0, 2, 1)])
    assert built[0] == 2  # the walk back through the parent map, nothing else


@pytest.mark.parametrize("op", list(Op))
def test_margins_build_no_actions(monkeypatch, e0, op):
    built = count_calls(monkeypatch, oracle, "AtomicAction")
    assert oracle_margins(e0, Rule.PAV, 2, op)[3] > 0
    assert oracle_margin(e0, Rule.GAV, 2, 3, op) > 0
    assert built[0] == 0


@pytest.mark.parametrize("op, rule", [(Op.ADD, Rule.PAV), (Op.DELETE, Rule.RAV),
                                      (Op.SWAP, Rule.GAV)])
def test_bribery_builds_only_the_witness_actions(monkeypatch, e0, op, rule):
    built = count_calls(monkeypatch, oracle, "AtomicAction")
    sol = oracle_bribery(BriberyInstance(e0, 3, 2, 9, op), rule)
    assert sol.actions and built[0] == len(sol.actions)


# --- sweep set-up against the per-relaxation Dijkstra --------------------------


def _relaxing_swap_options(voter, start, m, prices, restricted, p, cost_cap, max_configs):
    """Dijkstra asking the price table at every relaxation and rebuilding the
    target list per popped ballot; options by (cost, ballot), the start
    ballot first."""
    dist = {start: 0}
    parent = {}
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
                    oracle._guard_options(voter, len(dist) + 1, max_configs)
                elif nd >= dist[new]:
                    continue
                dist[new] = nd
                parent[new] = (mask, source, target)
                heapq.heappush(heap, (nd, new))
    return [(0, start)] + sorted((d, mask) for mask, d in dist.items() if mask != start), parent


def _options_or_guard(build, *args):
    try:
        return build(*args)
    except ResourceGuardError as exc:
        return str(exc)


def _table_swap_options(voter, start, m, prices, restricted, p, cost_cap, max_configs):
    moves = oracle._move_table(voter, m, prices, restricted, p)
    return oracle._swap_options(voter, start, moves, cost_cap, max_configs)


def test_swap_move_table_matches_the_relaxing_dijkstra():
    # Per-voter prices with forbidden moves and cheap relays; free and
    # restricted, capped and uncapped, and caps on the option count.
    stream = Stream64(98)
    relayed = guarded = 0
    for _ in range(150):
        m, n = stream.randint(2, 6), stream.randint(1, 3)
        starts = [stream.randint(0, (1 << m) - 1) for _ in range(n)]
        prices = PriceTable(swap={(v, s, t): stream.choice((0, 1, 1, 2, 3, 5, FORBIDDEN))
                                  for v in range(n) for s in range(m) for t in range(m) if s != t})
        p = stream.randint(0, m - 1)
        for v, start in enumerate(starts):
            for restricted in (False, True):
                for cost_cap in (None, 0, 2, 4):
                    for max_configs in (3, oracle.DEFAULT_MAX_CONFIGS):
                        args = (v, start, m, prices, restricted, p, cost_cap, max_configs)
                        want = _options_or_guard(_relaxing_swap_options, *args)
                        assert _options_or_guard(_table_swap_options, *args) == want
                        guarded += isinstance(want, str)
                        relayed += not isinstance(want, str) and any(
                            prev != start for prev, _, _ in want[1].values())
    assert relayed > 50 and guarded > 50


def _walk_back(start, final, parent):
    """The (source, target) moves from start to final along a parent map."""
    moves = []
    while final != start:
        final, source, target = parent[final]
        moves.append((source, target))
    return moves[::-1]


def test_unit_swap_closed_form_matches_the_dijkstra():
    # Every start ballot over up to 7 candidates, free and restricted to each
    # p, capped and uncapped, with caps on the option count that trip and do
    # not: the same options, the same witness per option, the same trips.
    guarded = built = 0
    for m in range(1, 8):
        everyone = (1 << m) - 1
        for start in range(1 << m):
            for restricted, p, targets in [(False, 0, everyone)] + [
                    (True, p, 1 << p) for p in range(m)]:
                for cost_cap in (None, 0, 1, 2):
                    for max_configs in (0, 1, 4, 12, oracle.DEFAULT_MAX_CONFIGS):
                        want = _options_or_guard(_relaxing_swap_options, 0, start, m,
                                                 PriceTable(), restricted, p, cost_cap,
                                                 max_configs)
                        got = _options_or_guard(oracle._unit_swap_options, 0, start,
                                                targets, cost_cap, max_configs)
                        if isinstance(want, str):
                            assert isinstance(got, str), (m, start, p, cost_cap, max_configs)
                            guarded += 1
                            continue
                        options, parent = want
                        assert got == options
                        built += 1
                        for _, final in options:
                            actions = oracle._witness(Op.SWAP, [start], [final], [None])
                            assert [(a.source, a.target) for a in actions] == \
                                _walk_back(start, final, parent)
    assert guarded > 7000 and built > 28000


def test_unit_swap_guard_reports_the_full_count():
    # 3 approvals and 4 free targets: 1 + 3*4 + 3*6 + 1*4 = 35 ballots,
    # counted before any is built; capped at cost 1 the count is 13.
    with pytest.raises(ResourceGuardError, match="voter 2 has 35 reachable ballots"):
        oracle._unit_swap_options(2, 0b0000111, 0b1111111, None, 34)
    assert len(oracle._unit_swap_options(2, 0b0000111, 0b1111111, None, 35)) == 35
    with pytest.raises(ResourceGuardError, match="has 13 reachable ballots"):
        oracle._unit_swap_options(2, 0b0000111, 0b1111111, 1, 12)


def test_search_moves_only_changed_branching_voters(monkeypatch):
    # v2 approves nobody, so its one option keeps its empty ballot and it
    # gets no frame in the walk.  The walk sets a voter only when its ballot
    # changes and never restores one: 38 moves for the whole sweep, where a
    # walk setting every option and restoring every frame made 111.
    e = make_election(["a", "b", "c", "d"], [("v1", ["a", "b"]), ("v2", []),
                                             ("v3", ["b", "c", "d"]), ("v4", ["c"])])
    moves = count_calls(monkeypatch, rules._Tally, "set")
    assert oracle_margins(e, Rule.RAV, 2, Op.DELETE) == [1, 0, 0, 3]
    assert moves[0] == 38


@pytest.mark.parametrize("rule", list(Rule))
def test_sweep_won_at_cost_zero_counts_one_level(monkeypatch, rule):
    # Deletions at 10^5 each put the dearest configuration at 8 * 10^5, but
    # c0 already wins: the start election is the one configuration at cost 0,
    # so the sweep tests that one leaf and reads no level above.
    e = make_election(["c0", "c1", "c2"], [("v1", ["c0", "c1"]), ("v2", ["c0"]),
                                           ("v3", ["c0", "c2"]), ("v4", ["c1", "c2"])])
    prices = PriceTable(delete={(v, c): 10**5 for v in range(4) for c in range(3)})
    leaves = count_leaves(monkeypatch)
    assert oracle_margin(e, rule, 1, 0, Op.DELETE, prices) == 0
    assert leaves[0] == 1


def test_search_guard_counts_configurations_visited():
    # Unit deletions; each voter keeps its ballot or drops its one approval,
    # so the 8 configurations cost 0 (1), 1 (3), 2 (3) and 3 (1).  c1 loses
    # at cost 0; at cost 1 the walk tests v3 dropping c1 (c1 still loses),
    # then v2 dropping c0, a 1-1 tie that seats c1: N = 1 + 2 = 3 leaves.
    e = make_election(["c0", "c1", "c2"], [("v1", ["c0"]), ("v2", ["c0"]), ("v3", ["c1"])])
    inst = BriberyInstance(e, 1, 1, 3, Op.DELETE)
    assert verdict(oracle_bribery(inst, Rule.AV, max_configs=3)) == (True, 1)
    with pytest.raises(ResourceGuardError, match="up to cost 1 visits more than the cap of 2"):
        oracle_bribery(inst, Rule.AV, max_configs=2)
    # c2 is approved by nobody, so it ties only once every approval is gone:
    # the one configuration at cost 3, the last of all 8 leaves.  c0 wins at
    # the first leaf and c1 at the third, as above, so the shared search
    # needs N = 8, as oracle_margin for c2 alone does.
    assert oracle_margins(e, Rule.AV, 1, Op.DELETE, max_configs=8) == [0, 1, 3]
    assert oracle_margin(e, Rule.AV, 1, 2, Op.DELETE, max_configs=8) == 3
    for margins in (lambda: oracle_margins(e, Rule.AV, 1, Op.DELETE, max_configs=7),
                    lambda: oracle_margin(e, Rule.AV, 1, 2, Op.DELETE, max_configs=7)):
        with pytest.raises(ResourceGuardError, match="up to cost 3 visits more than the cap"):
            margins()
