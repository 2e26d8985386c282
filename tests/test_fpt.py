import functools
import gc
import itertools

import pytest

from abcbribery import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    CertificationError,
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
from abcbribery import fpt, oracle, rules
from abcbribery.avbribery import av_add, av_swap_unit
from abcbribery.core import _iter_bits, approver_masks, ballot_masks
from abcbribery.fpt import (
    SWEEP_VOTER_CAP,
    add_for_p_subset_enum,
    ccav_gav_flow_bribery,
    priced_swap_to_p_type_enum,
    unpriced_type_enum,
)
from abcbribery.generators import Stream64, SuiteConfig, gen_random_election, suite_instances
from abcbribery.oracle import oracle_bribery, oracle_margin, oracle_margins

from helpers import (
    count_calls,
    count_certify,
    count_leaves,
    random_sized_election,
    reference_type_enum,
    reference_winners,
    verdict,
)


def test_subset_enum_e0_matches_av(e0):
    inst = BriberyInstance(e0, 3, 2, 9, Op.ADD, restricted_to_p=True)
    assert add_for_p_subset_enum(inst, Rule.AV).cost == 4
    assert av_add(BriberyInstance(e0, 3, 2, 9, Op.ADD)).cost == 4


def test_subset_enum_already_winning(e0):
    inst = BriberyInstance(e0, 0, 2, 0, Op.ADD, restricted_to_p=True)
    assert add_for_p_subset_enum(inst, Rule.AV).cost == 0


def test_subset_enum_guard(e0, monkeypatch):
    # The solver is the oracle's search under the oracle's own guard on the
    # configurations visited, at its default cap (test_oracle pins that
    # guard's boundary): it passes no cap of its own.
    calls = []

    def recording(instance, rule, **caps):
        calls.append(caps)
        return oracle_bribery(instance, rule, **caps)
    monkeypatch.setattr(fpt, "oracle_bribery", recording)
    inst = BriberyInstance(e0, 3, 2, 1, Op.ADD, restricted_to_p=True)
    assert verdict(add_for_p_subset_enum(inst, Rule.AV)) == (False, None)
    assert calls == [{}]


def test_subset_enum_guard_at_its_boundary(e0, monkeypatch):
    # Every voter but v7 lacks p: 8 eligible voters.  The search visits 94
    # of their 256 subsets, the first winning one at cost 4 included, so its
    # guard answers at a cap of 94 configurations and trips at 93.
    inst = BriberyInstance(e0, 3, 2, 9, Op.ADD, restricted_to_p=True)
    leaves = count_leaves(monkeypatch)
    assert (add_for_p_subset_enum(inst, Rule.AV).cost, leaves[0]) == (4, 94)
    monkeypatch.setattr(fpt, "oracle_bribery", functools.partial(oracle_bribery, max_configs=94))
    assert add_for_p_subset_enum(inst, Rule.AV).cost == 4
    monkeypatch.setattr(fpt, "oracle_bribery", functools.partial(oracle_bribery, max_configs=93))
    with pytest.raises(ResourceGuardError,
                       match="^enumerating final elections up to cost 4 visits more than "
                             "the cap of 93 configurations$"):
        add_for_p_subset_enum(inst, Rule.AV)


def test_subset_enum_answers_past_twenty_eligible_voters():
    # 22 eligible voters, budget 1: the search reads cost levels 0 and 1.
    e = make_election(["a", "p"], [(f"v{i}", ["a"]) for i in range(22)])
    inst = BriberyInstance(e, 1, 1, 1, Op.ADD, restricted_to_p=True)
    assert verdict(add_for_p_subset_enum(inst, Rule.AV)) == (False, None)
    # A search that must count every voter subset: p ties a only once all 14
    # voters approve it, so the cost levels up to 14 hold exactly 2^14
    # configurations, within the default cap.
    e = make_election(["a", "p"], [(f"v{i}", ["a"]) for i in range(14)])
    inst = BriberyInstance(e, 1, 1, 14, Op.ADD, restricted_to_p=True)
    assert verdict(add_for_p_subset_enum(inst, Rule.AV)) == (True, 14)
    # 40 eligible voters, 3 of them approving a: p ties a after 3 additions,
    # found among the 10,701 subsets of at most 3 voters.
    e = make_election(["a", "p"], [(f"v{i}", ["a"] if i < 3 else []) for i in range(40)])
    inst = BriberyInstance(e, 1, 1, 3, Op.ADD, restricted_to_p=True)
    got = add_for_p_subset_enum(inst, Rule.AV)
    assert verdict(got) == verdict(oracle_bribery(inst, Rule.AV)) == (True, 3)
    assert verdict(solve(inst, Rule.AV, "fpt-n")[0]) == (True, 3)


def test_subset_enum_matches_oracle_ccav():
    cfg = SuiteConfig(op=Op.ADD, count=80, seed=61, priced=True, restricted_to_p=True,
                      max_candidates=6, max_voters=5)
    for inst in suite_instances(cfg):
        assert verdict(add_for_p_subset_enum(inst, Rule.CCAV)) == \
            verdict(oracle_bribery(inst, Rule.CCAV))


def test_unpriced_type_enum_large_budget_accepts():
    stream = Stream64(62)
    for _ in range(30):
        e = random_sized_election(stream, 5, 4)
        p = stream.randint(0, e.m - 1)
        k = stream.randint(1, e.m)
        for rule in (Rule.AV, Rule.SAV, Rule.CCAV, Rule.PAV):
            inst = BriberyInstance(e, p, k, e.n, Op.ADD)
            sol = unpriced_type_enum(inst, rule)
            assert sol.feasible and sol.cost <= e.n


def test_unpriced_type_enum_certifies_fallback(monkeypatch):
    # solve replays the approve-p-everywhere answer, once.  Under auto an
    # unpriced AV add routes to av_add, so the fpt-n row is asked for.
    e = make_election(["a", "p"], [("v1", ["a"]), ("v2", ["a"])])
    inst = BriberyInstance(e, 1, 1, 2, Op.ADD)
    certified = count_certify(monkeypatch)
    assert solve(inst, Rule.AV, "fpt-n")[0].feasible
    assert certified[0] == 1
    monkeypatch.setattr(rules, "_is_cowinner_from_ballots", lambda *args: False)
    with pytest.raises(CertificationError, match="co-winner"):
        solve(inst, Rule.AV, "fpt-n")


def test_unpriced_type_enum_e0_swap(e0):
    inst = BriberyInstance(e0, 3, 2, 9, Op.SWAP)
    sol = unpriced_type_enum(inst, Rule.AV)
    assert sol.cost == 3
    assert verdict(sol) == verdict(av_swap_unit(inst))


def test_unpriced_type_enum_matches_oracle():
    stream = Stream64(63)
    count = 0
    while count < 120:
        e = random_sized_election(stream, 6, 4)
        p = stream.randint(0, e.m - 1)
        k = stream.randint(1, e.m)
        budget = stream.randint(0, 4)
        op = (Op.ADD, Op.SWAP)[stream.randint(0, 1)]
        restricted = stream.randint(0, 2) == 0
        rule = list(Rule)[stream.randint(0, 5)]
        inst = BriberyInstance(e, p, k, budget, op, restricted_to_p=restricted)
        assert verdict(unpriced_type_enum(inst, rule)) == \
            verdict(oracle_bribery(inst, rule)), (e, p, k, budget, op, rule)
        count += 1


def test_unpriced_type_enum_clone_invariance():
    # An (n+1)-th copy of an existing non-preferred type never changes the
    # verdict for rules that treat same-type candidates interchangeably.
    stream = Stream64(64)
    checked = 0
    while checked < 25:
        e = random_sized_election(stream, 4, 3)
        n = e.n
        base = stream.randint(0, e.m - 1)
        p = (base + 1) % e.m
        names = [c.name for c in e.candidates]
        clones = names + [f"clone{i}" for i in range(n + 1)]
        ballots = []
        for b in e.ballots:
            approved = [names[c] for c in sorted(b.approved)]
            if base in b.approved:
                approved += [f"clone{i}" for i in range(n + 1)]
            ballots.append((b.voter_name, approved))
        cloned = make_election(clones, ballots)
        k = stream.randint(1, e.m)
        budget = stream.randint(0, n - 1) if n > 1 else 0
        op = (Op.ADD, Op.SWAP)[stream.randint(0, 1)]
        for rule in (Rule.AV, Rule.SAV, Rule.CCAV):
            before = verdict(unpriced_type_enum(
                BriberyInstance(cloned, p, k, budget, op), rule))
            more = make_election(clones + ["extra"], [
                (vn, ap + (["extra"] if f"clone0" in ap else [])) for vn, ap in ballots])
            after = verdict(unpriced_type_enum(
                BriberyInstance(more, p, k, budget, op), rule))
            assert before == after, (rule, op, cloned, k, budget)
        checked += 1


def test_type_enum_walk_matches_combinations_loop():
    # The walk returns the (cost, feasible) of the exhaustive combinations loop
    # in the old cell order, for every rule, both operations and budgets 0-3,
    # and the actions of that loop restricted to canonical sets in the walk's
    # p-first cell order.  p loses at the start, so most answers need the walk
    # past size 0, and the swap witnesses include votes holding two swaps,
    # whose other pairs in that vote clash.  Some answers of the old loop
    # must change a vote lacking p without giving it p: winning sets that the
    # restriction skips, without which the action check would be the old one.
    stream = Stream64(91)
    costs, two_in_one_vote, skipped = set(), 0, 0
    for _ in range(40):
        e = random_sized_election(stream, 5, 6)
        k = stream.randint(1, e.m)
        for rule in Rule:
            losers = [c for c in range(e.m) if not is_cowinner(e, rule, k, c)]
            if not losers:
                continue
            p = losers[stream.randint(0, len(losers) - 1)]
            for op in (Op.ADD, Op.SWAP):
                for budget in range(4):
                    inst = BriberyInstance(e, p, k, budget, op)
                    got, want = unpriced_type_enum(inst, rule), reference_type_enum(inst, rule)
                    assert (got.cost, got.feasible) == (want.cost, want.feasible), (rule, inst)
                    walked = reference_type_enum(inst, rule, canonical=True)
                    assert (got.cost, got.feasible, got.actions) == \
                        (walked.cost, walked.feasible, walked.actions), (rule, inst)
                    costs.add(got.cost)
                    voters = [a.voter for a in got.actions]
                    two_in_one_vote += op is Op.SWAP and len(set(voters)) < len(voters)
                    finals = ballot_masks(apply_actions(e, want.actions))
                    skipped += rule in fpt._INTERCHANGEABLE and any(
                        final != start and not (start | final) >> p & 1
                        for start, final in zip(ballot_masks(e), finals))
    assert costs == {None, 1, 2, 3} and two_in_one_vote > 0, (costs, two_in_one_vote)
    assert skipped > 0


def test_enumerations_test_masks_not_elections(monkeypatch):
    # Below the approve-p-everywhere budget no Election is built: every action
    # set is tested on flipped ballot masks, and p never wins with one move.
    # Every vote lacks p, so of the 8 single swaps the walk tests the 5 to p:
    # v1's a->p and b->p, and one each of v2-v4; v2's a->b, v3's b->a and v4's
    # a->b leave their vote without p and are skipped.
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    applied = count_calls(monkeypatch, fpt, "apply_actions")
    rescans = count_calls(monkeypatch, rules, "_is_cowinner_from_ballots")
    checks = count_calls(monkeypatch, rules._CommitteeValues, "best")
    swap = BriberyInstance(e, 2, 1, 1, Op.SWAP)
    assert not unpriced_type_enum(swap, Rule.PAV).feasible
    assert checks[0] == 1 + 5  # the empty set and the 5 single swaps to p
    add = BriberyInstance(e, 2, 1, 1, Op.ADD, restricted_to_p=True)
    assert not add_for_p_subset_enum(add, Rule.PAV).feasible
    priced = BriberyInstance(e, 2, 1, 1, Op.SWAP, priced=True, restricted_to_p=True)
    assert not priced_swap_to_p_type_enum(priced, Rule.PAV).feasible
    # The empty set and the 4 single additions; the priced solve's start
    # check, then the empty set and the 5 swaps toward p.
    assert checks[0] == (1 + 5) + (1 + 4) + (1 + 1 + 5)
    # The one from-scratch check is the priced solve's is_cowinner start check.
    assert applied[0] == 0 and rescans[0] == 1


@pytest.mark.parametrize("rule", list(Rule))
def test_enumeration_leaves_update_the_base_election(monkeypatch, rule):
    # Every solve builds one tally of the base election and moves it per
    # changed voter: no leaf reruns the whole kernel, GAV/RAV transpose once
    # per solve, AV/SAV score once per solve, and every leaf asks wins once.
    # Leaves: the empty set and the single swaps, 8 for GAV/RAV and for the
    # other rules the 5 that give a vote lacking p its p (the walk skips v2's
    # a->b, v3's b->a and v4's a->b); the empty set and 4 single additions;
    # the empty set and the 5 swaps toward p within budget 1.  The
    # last two solves run the oracle's search, whose tallies are built in
    # oracle.  The priced solve first asks is_cowinner whether p wins already:
    # one more fresh tally, one more transpose or scoring, one more co-winner read.
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    rescans = count_calls(monkeypatch, rules, "_is_cowinner_from_ballots")
    tallies = count_calls(monkeypatch, fpt, "_Tally")
    oracle_tallies = count_calls(monkeypatch, oracle, "_Tally")
    transposes = count_calls(monkeypatch, rules, "_transpose")
    asks = count_calls(monkeypatch, rules._Tally, "wins")
    greedies = count_calls(monkeypatch, rules, "_greedy_picks")
    scorings = count_calls(monkeypatch, rules, "_scores")
    checks = count_calls(monkeypatch, rules._CommitteeValues, "best")
    assert not unpriced_type_enum(BriberyInstance(e, 2, 1, 1, Op.SWAP), rule).feasible
    assert not add_for_p_subset_enum(
        BriberyInstance(e, 2, 1, 1, Op.ADD, restricted_to_p=True), rule).feasible
    assert not priced_swap_to_p_type_enum(
        BriberyInstance(e, 2, 1, 1, Op.SWAP, priced=True, restricted_to_p=True), rule).feasible
    greedy = rule in (Rule.GAV, Rule.RAV)
    leaves = (1 + (8 if greedy else 5)) + (1 + 4) + (1 + 5)
    assert rescans[0] == 1 and (tallies[0], oracle_tallies[0]) == (1, 2)
    assert asks[0] == leaves + 1  # 21 for GAV/RAV, 18 for the others
    assert transposes[0] == (3 + 1 if greedy else 0)
    # GAV/RAV at k = 1: the screen settles all leaves + 1 asks, since p is
    # approved by at most one voter and a by at least two, so no greedy runs.
    assert greedies[0] == 0
    assert scorings[0] == (3 + 1 if rule in (Rule.AV, Rule.SAV) else 0)
    assert checks[0] == (leaves + 1 if rule in (Rule.CCAV, Rule.PAV) else 0)


@pytest.mark.parametrize("budget, moves", [(1, 9), (3, 14)])
def test_type_enum_moves_once_per_leaf(monkeypatch, budget, moves):
    # The walk moves the tally straight from one cell to the next cell of the
    # same voter and restores a voter only on leaving it or returning.  Every
    # vote lacks p and lists its swaps to p first: v1 a->p, b->p; v2 a->p,
    # a->b; v3 b->p, b->a; v4 a->p, a->b.  Budget 1: the 5 single swaps to p,
    # one move each, and 4 voter exits; the other 3 leave their vote without
    # p and are skipped unmoved.  Budget 3: those 9, then 5 for size 2: it
    # sets v1's a->p; one level down it skips v1's clashing b->p, leaves v1
    # (one call, moving nothing) and wins on v2's a->p, restoring v2 and then
    # v1 on the way out.
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    sets = count_calls(monkeypatch, rules._Tally, "set")
    solution = unpriced_type_enum(BriberyInstance(e, 2, 1, budget, Op.SWAP), Rule.PAV)
    assert solution.cost == (None if budget == 1 else 2)
    assert sets[0] == moves


def test_leaf_test_matches_kernel():
    # The enumerations' leaf test, a shared tally set to the leaf's ballots,
    # asked wins and restored in reverse order, against a fresh tally of the
    # leaf's ballots, for 0-3 changed voters, some of them given their base
    # ballot.  The tally must return to the base after every leaf.
    stream = Stream64(83)
    leaves = 0
    for _ in range(60):
        e = random_sized_election(stream, 8, 7)
        m, n = e.m, e.n
        for k in range(1, m + 1):
            for rule in Rule:
                p = stream.randint(0, m - 1)
                base = ballot_masks(e)
                tally = rules._Tally(base, m, rule, k)
                start = tally.cowinners()
                for _ in range(6):
                    voters = list(range(n))
                    changed = {}
                    for _ in range(stream.randint(0, min(3, n))):
                        v = voters.pop(stream.randint(0, len(voters) - 1))
                        changed[v] = (stream.randint(0, (1 << m) - 1) if stream.chance(0.75)
                                      else base[v])
                    ballots = [changed.get(v, mask) for v, mask in enumerate(base)]
                    expected = rules._is_cowinner_from_ballots(ballots, m, rule, k, p)
                    for v, mask in changed.items():
                        tally.set(v, mask)
                    assert tally.ballots == ballots
                    assert tally.wins(p) == expected, (rule, e, k, p, changed)
                    for v in reversed(changed):
                        tally.set(v, base[v])
                    assert tally.ballots == base and tally.cowinners() == start
                    leaves += 1
    assert leaves > 10_000


def test_type_enum_rows_per_changed_ballot(monkeypatch):
    # PAV leaves update the packed committee values instead of rescanning,
    # with one row per distinct ballot: the base ballots hold 3 distinct
    # masks, and the 8 single swaps reach 3 new ones ({b, p}, {a, p}, {p}).
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    rows = count_calls(monkeypatch, rules._CommitteeValues, "row")
    assert unpriced_type_enum(BriberyInstance(e, 2, 1, 1, Op.SWAP), Rule.PAV).cost is None
    assert rows[0] == 3 + 3


def test_priced_swap_to_p_unit_agrees_with_unpriced(e0):
    for k in (1, 2, 3):
        a = priced_swap_to_p_type_enum(
            BriberyInstance(e0, 3, k, 9, Op.SWAP, priced=True, restricted_to_p=True),
            Rule.AV)
        b = unpriced_type_enum(
            BriberyInstance(e0, 3, k, 9, Op.SWAP, restricted_to_p=True), Rule.AV)
        assert verdict(a) == verdict(b)


def test_priced_swap_to_p_all_forbidden(e0):
    swap = {(v, c, 3): FORBIDDEN for v in range(e0.n) for c in range(e0.m) if c != 3}
    inst = BriberyInstance(e0, 3, 2, 99, Op.SWAP, priced=True, restricted_to_p=True,
                           prices=PriceTable(swap=swap))
    assert not priced_swap_to_p_type_enum(inst, Rule.AV).feasible


def test_priced_swap_to_p_matches_oracle_sav():
    cfg = SuiteConfig(op=Op.SWAP, count=100, seed=65, priced=True, restricted_to_p=True,
                      max_candidates=5, max_voters=4)
    for inst in suite_instances(cfg):
        assert verdict(priced_swap_to_p_type_enum(inst, Rule.SAV)) == \
            verdict(oracle_bribery(inst, Rule.SAV))


def test_flow_bribery_unanimous_p():
    e = make_election(["a", "p"], [("v1", ["a", "p"]), ("v2", ["p"])])
    for k in (1, 2):
        sol = ccav_gav_flow_bribery(BriberyInstance(e, 1, k, 0, Op.ADD), Rule.CCAV)
        assert sol.feasible and sol.cost == 0


def test_flow_bribery_guard(monkeypatch):
    # Past four voters both rules are one oracle call, under the oracle's
    # guard on the configurations visited: 6 voters approve a, and p ties it
    # only once all 6 approve p, which GAV's tie-break then seats.
    e = make_election(["p", "a"], [(f"v{i}", ["a"]) for i in range(6)])
    oracles = count_calls(monkeypatch, fpt, "oracle_bribery")
    for rule in (Rule.CCAV, Rule.GAV):
        for budget, answer in ((1, (False, None)), (6, (True, 6))):
            inst = BriberyInstance(e, 0, 1, budget, Op.ADD)
            got = ccav_gav_flow_bribery(inst, rule)
            assert verdict(got) == verdict(oracle_bribery(inst, rule)) == answer, (rule, budget)
    assert oracles[0] == 4


def test_flow_bribery_rejects_swaps(e0):
    with pytest.raises(ValueError):
        ccav_gav_flow_bribery(BriberyInstance(e0, 3, 2, 3, Op.SWAP), Rule.CCAV)


def _assert_certified(inst, rule, got):
    assert verdict(got) == verdict(oracle_bribery(inst, rule)), (rule, inst)
    if got.feasible:
        final = apply_actions(inst.election, got.actions)
        assert is_cowinner(final, rule, inst.k, inst.p)
        assert solution_cost(got.actions, inst.prices) == got.cost <= inst.budget


def test_flow_bribery_matches_oracle():
    seed = 66
    for rule in (Rule.CCAV, Rule.GAV):
        for op in (Op.ADD, Op.DELETE):
            for priced in (False, True):
                seed += 1
                cfg = SuiteConfig(op=op, count=30, seed=seed, priced=priced,
                                  max_candidates=5, max_voters=3,
                                  price_choices=(1, 2))
                for inst in suite_instances(cfg):
                    _assert_certified(inst, rule, ccav_gav_flow_bribery(inst, rule))


def test_flow_matches_oracle_at_voter_cap():
    # Exactly SWEEP_VOTER_CAP voters, p not yet a co-winner; then 5 and 6
    # voters, where CCAV runs the oracle as GAV does.
    seed = 90
    for voters, least, checked in ((SWEEP_VOTER_CAP, 10, 15), (5, 6, 6), (6, 6, 6)):
        for rule in (Rule.CCAV, Rule.GAV):
            for op in (Op.ADD, Op.DELETE):
                for priced in (False, True):
                    seed += 1
                    cfg = SuiteConfig(op=op, count=400, seed=seed, priced=priced,
                                      max_candidates=5, max_voters=voters,
                                      max_budget=6, price_choices=(1, 2, 3))
                    chosen = [inst for inst in suite_instances(cfg)
                              if inst.election.n == voters
                              and not is_cowinner(inst.election, rule, inst.k, inst.p)]
                    assert len(chosen) >= least
                    for inst in chosen[:checked]:
                        _assert_certified(inst, rule, ccav_gav_flow_bribery(inst, rule))


def test_flow_solve_counts_are_pinned(monkeypatch):
    # Deterministic work: neither rule builds a flow.  CCAV's sweep tests 9
    # final states here, each with its own set of types, so each set is
    # tested once.  GAV is one oracle call, whose sweep stops at the optimum's
    # cost of 2.  Its voters have 12, 6, 7 and 7 options: the start
    # configuration costs 0, 4 configurations cost 1 (two of v0's options,
    # one each of v2's and v3's), and in depth-first order the third
    # configuration costing 2 (v2 dropping c3) is the first winning one:
    # 1 + 4 + 3 = 8 leaves, for GAV and, in the certificate, CCAV alike.
    cfg = SuiteConfig(op=Op.DELETE, count=35, seed=96, priced=True,
                      max_candidates=5, max_voters=4, max_budget=6)
    inst = list(suite_instances(cfg))[34]
    flows = count_calls(monkeypatch, fpt, "min_cost_flow_lb")
    type_sets = count_calls(monkeypatch, fpt, "_type_cowinner_ccav")
    ccav_leaves = count_calls(monkeypatch, fpt, "_ccav_wins")
    oracles = count_calls(monkeypatch, fpt, "oracle_bribery")
    leaves = count_leaves(monkeypatch)
    for rule in (Rule.CCAV, Rule.GAV):
        got = ccav_gav_flow_bribery(inst, rule)
        assert (got.feasible, got.cost, flows[0]) == (True, 2, 0), rule
        _assert_certified(inst, rule, got)
    assert (ccav_leaves[0], type_sets[0]) == (9, 9)
    # _assert_certified asks the oracle once more for each rule.
    assert (oracles[0], leaves[0]) == (1, 8 + 8 + 8)


def test_flow_budget_boundary():
    # feasibility flips exactly where the oracle says it does
    cfg = SuiteConfig(op=Op.DELETE, count=60, seed=80, priced=True,
                      max_candidates=5, max_voters=3, price_choices=(1, 2))
    for rule in (Rule.CCAV, Rule.GAV):
        flipped = 0
        for inst in suite_instances(cfg):
            exact = oracle_bribery(BriberyInstance(
                inst.election, inst.p, inst.k, 8, inst.op, priced=inst.priced,
                prices=inst.prices), rule)
            if not exact.feasible or exact.cost == 0:
                continue
            below = BriberyInstance(inst.election, inst.p, inst.k, exact.cost - 1,
                                    inst.op, priced=inst.priced, prices=inst.prices)
            at = BriberyInstance(inst.election, inst.p, inst.k, exact.cost,
                                 inst.op, priced=inst.priced, prices=inst.prices)
            assert not ccav_gav_flow_bribery(below, rule).feasible
            assert ccav_gav_flow_bribery(at, rule).feasible
            flipped += 1
        assert flipped >= 5, rule


def test_conversion_costs_are_independent(monkeypatch):
    # Every ladder the CCAV search is given lists each reachable type once,
    # cheapest first, at the cost of an isolated recomputation.
    seen = []
    search = fpt._assignment_search

    def recording(ladders, p, k, budget, state_cap):
        seen.append(ladders)
        return search(ladders, p, k, budget, state_cap)
    monkeypatch.setattr(fpt, "_assignment_search", recording)
    stream = Stream64(81)
    searched = 0
    for _ in range(40):
        e = random_sized_election(stream, 4, 4)
        op = (Op.ADD, Op.DELETE)[stream.randint(0, 1)]
        table = {(v, c): stream.randint(1, 3) for v in range(e.n) for c in range(e.m)}
        prices = PriceTable(add=table) if op is Op.ADD else PriceTable(delete=table)
        inst = BriberyInstance(e, 0, 1, 3, op, priced=True, prices=prices)
        ccav_gav_flow_bribery(inst, Rule.CCAV)
        if not seen:  # p already wins: no search
            continue
        columns = approver_masks(e)
        for c, ladder in enumerate(seen.pop()):
            assert ladder == sorted(ladder)
            reach = {t: cost for cost, t in ladder}
            assert len(reach) == len(ladder), c
            for target in range(1 << e.n):
                isolated = _isolated_cost(inst, c, columns[c], target)
                assert reach.get(target) == isolated, (c, target)
        searched += 1
    assert searched >= 10


def _isolated_cost(inst, c, start, target):
    """Price of turning candidate c's approver set into target, or None."""
    add = inst.op is Op.ADD
    if (start & ~target) if add else (target & ~start):
        return None
    price = inst.prices.add_price if add else inst.prices.delete_price
    costs = [price(v, c) for v in range(inst.election.n) if (start ^ target) >> v & 1]
    return None if FORBIDDEN in costs else sum(costs)


def test_flow_additions_restricted_to_p():
    # Only p may gain approvals: the flow once bought v0's approval of c0 here.
    e = make_election(["c0", "c1", "c2", "c3"],
                      [("v0", ["c3"]), ("v1", ["c0"]), ("v2", ["c0", "c2"])])
    inst = BriberyInstance(e, 1, 2, 2, Op.ADD, restricted_to_p=True)
    sol = ccav_gav_flow_bribery(inst, Rule.CCAV)
    assert sol.actions == (AtomicAction(Op.ADD, 0, target=1),)
    cfg = SuiteConfig(op=Op.ADD, count=40, seed=7, priced=True, restricted_to_p=True,
                      max_candidates=5, max_voters=4)
    for inst in suite_instances(cfg):
        for rule in (Rule.CCAV, Rule.GAV):
            got = ccav_gav_flow_bribery(inst, rule)
            assert all(a.target == inst.p for a in got.actions)
            assert verdict(got) == verdict(oracle_bribery(inst, rule)), (rule, inst)


def test_enumeration_guards_at_their_boundary():
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    # Budget 1: the empty set and the 8 single swaps, 9 cells examined.
    unit = BriberyInstance(e, 2, 1, 1, Op.SWAP)
    assert unpriced_type_enum(unit, Rule.PAV, enum_cap=9).cost is None
    with pytest.raises(ResourceGuardError,
                       match="action sets of size 1 examines more than the cap of 8 cells"):
        unpriced_type_enum(unit, Rule.PAV, enum_cap=8)
    # v1 keeps its ballot or moves a or b to p, the others keep it or move
    # their one approval: within budget 1 the search visits the start and
    # the 5 single swaps, 6 configurations.
    priced = BriberyInstance(e, 2, 1, 1, Op.SWAP, priced=True, restricted_to_p=True)
    assert priced_swap_to_p_type_enum(priced, Rule.PAV, enum_cap=6).cost is None
    with pytest.raises(ResourceGuardError, match="up to cost 1 visits more than the cap of 5 "):
        priced_swap_to_p_type_enum(priced, Rule.PAV, enum_cap=5)


def test_enumeration_guard_counts_the_cells_walked():
    # v1 and v2 lack p and may each swap c0, c1 or c3 to it: 6 single swaps,
    # 1 + 6 + 15 = 22 sets up to size 2.  The walk examines 1 + 6 cells up to
    # size 1, then 5 at the top of size 2 and 5 below its first cell, whose
    # partner swap in v2 wins: 17 cells.
    cfg = SuiteConfig(op=Op.SWAP, count=43, seed=3, max_candidates=5, max_voters=4,
                      max_budget=2)
    inst = list(suite_instances(cfg))[42]
    assert (ballot_masks(inst.election), inst.p, inst.k, inst.budget) == ([15, 11, 11], 2, 1, 2)
    expected = verdict(oracle_bribery(inst, Rule.PAV))
    assert expected == (True, 2)
    for cap in (17, 21):
        assert verdict(unpriced_type_enum(inst, Rule.PAV, enum_cap=cap)) == expected
    with pytest.raises(ResourceGuardError,
                       match="action sets of size 2 examines more than the cap of 16 cells"):
        unpriced_type_enum(inst, Rule.PAV, enum_cap=16)


@pytest.mark.parametrize("rule", [Rule.GAV, Rule.RAV, Rule.PAV])
def test_priced_swap_answers_p_winning_already_before_the_guard(rule):
    # 21 voters could each swap a to p, more configurations than the cap,
    # but p already wins: the solve costs nothing and no guard runs.
    e = make_election(["a", "p"], [(f"a{i}", ["a"]) for i in range(21)]
                      + [(f"p{i}", ["p"]) for i in range(22)])
    inst = BriberyInstance(e, 1, 1, 5, Op.SWAP, priced=True, restricted_to_p=True)
    assert verdict(priced_swap_to_p_type_enum(inst, rule, enum_cap=1)) == (True, 0)


def test_priced_swap_guard_counts_pool_donors_only(monkeypatch):
    # a and b share v1's type, so PAV's pool keeps one of them: the search
    # gets 2 options for v1, although v1 reaches 3 ballots.  With 2 members
    # to n = 1 the type is ranked over the 2 subsets of {v1}, so at a cap of
    # 1 the pool's own guard trips first.
    e = make_election(["a", "b", "p"], [("v1", ["a", "b"])])
    inst = BriberyInstance(e, 2, 1, 1, Op.SWAP, priced=True, restricted_to_p=True)
    seen = _record_options(monkeypatch)
    assert priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=2).cost == 1
    assert [len(options) for options in seen.pop()] == [2]
    with pytest.raises(ResourceGuardError, match="^2 approver subsets .* cap of 1$"):
        priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=1)


def test_priced_swap_pool_takes_small_types_whole():
    # 24 voters approve only a and one approves p and a: a's type has one
    # member, so it enters the pool whole, without a walk over the 2^25
    # subsets of its approvers.  p ties a only after 12 swaps, so within
    # budget 3 the search visits the 2,325 voter subsets of at most 3 swaps
    # and answers, and a cap of 100 configurations trips in cost level 2.
    e = make_election(["a", "p"], [(f"v{i}", ["a"]) for i in range(24)] + [("w", ["p", "a"])])
    inst = BriberyInstance(e, 1, 1, 3, Op.SWAP, priced=True, restricted_to_p=True)
    assert verdict(priced_swap_to_p_type_enum(inst, Rule.PAV)) == (False, None)
    with pytest.raises(ResourceGuardError, match="^enumerating final elections up to cost 2 "
                                                 "visits more than the cap of 100 configurations$"):
        priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=100)


def test_priced_swap_pool_guard_before_its_walk():
    # 24 voters approve a0..a24: one type of 25 members, more than n, so its
    # pool would rank members over the 2^24 subsets of its approvers; the
    # count is checked first.
    names = [f"a{i}" for i in range(25)]
    e = make_election(names + ["p"], [(f"v{i}", names) for i in range(24)])
    inst = BriberyInstance(e, 25, 1, 3, Op.SWAP, priced=True, restricted_to_p=True)
    with pytest.raises(ResourceGuardError, match="^16777216 approver subsets of a candidate "
                                                 "type exceed the cap of 100$"):
        priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=100)
    # At its boundary: 3 voters approve a0..a3, a type of 4 members, whose
    # 2^3 subsets rank a0, a1, a2 into the pool; the search then visits 38
    # configurations, the first winning one at cost 3 included.
    names = names[:4]
    e = make_election(names + ["p"], [(f"v{i}", names) for i in range(3)])
    inst = BriberyInstance(e, 4, 1, 3, Op.SWAP, priced=True, restricted_to_p=True)
    with pytest.raises(ResourceGuardError, match="^8 approver subsets .* cap of 7$"):
        priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=7)
    with pytest.raises(ResourceGuardError, match="visits more than the cap of 37 configurations$"):
        priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=37)
    assert verdict(priced_swap_to_p_type_enum(inst, Rule.PAV, enum_cap=38)) == \
        verdict(oracle_bribery(inst, Rule.PAV)) == (True, 3)


def _record_options(monkeypatch):
    """Each voter's options as an fpt solver hands them to the shared search,
    directly or through ``oracle_bribery``.

    A solve that answers before building options records nothing."""
    seen = []
    search = oracle._cheapest

    def recording(instance, masks, rule, options, parents, max_configs):
        seen.append(options)
        return search(instance, masks, rule, options, parents, max_configs)
    monkeypatch.setattr(fpt, "_cheapest", recording)
    monkeypatch.setattr(oracle, "_cheapest", recording)
    return seen


def _brute_force_cost(inst, rule, options):
    """Cheapest choice of one option per voter within the budget that makes p
    win by the Fraction reference, over every choice; None when none does."""
    names = [c.name for c in inst.election.candidates]
    best = None
    for choice in itertools.product(*options):
        cost = sum(price for price, _ in choice)
        if cost > inst.budget or (best is not None and cost >= best):
            continue
        e = make_election(names, [(f"v{v}", [names[c] for c in _iter_bits(mask)])
                                  for v, (_, mask) in enumerate(choice)])
        if any(inst.p in w for w in reference_winners(e, rule, inst.k)):
            best = cost
    return best


@pytest.mark.parametrize("rule", list(Rule))
def test_shared_search_matches_brute_force(monkeypatch, rule):
    # An independent check of the search both builders run: every choice of
    # one option per voter is scored by the Fraction reference, not by the
    # integer kernel.  Prices include free and forbidden cells.
    seen = _record_options(monkeypatch)
    outcomes = set()
    seed = 170 + list(Rule).index(rule)
    for op, solver in ((Op.ADD, add_for_p_subset_enum), (Op.SWAP, priced_swap_to_p_type_enum)):
        cfg = SuiteConfig(op=op, count=150, seed=seed, priced=True, restricted_to_p=True,
                          max_candidates=5, max_voters=5, price_choices=(0, 1, 2, FORBIDDEN))
        for inst in suite_instances(cfg):
            got = rules.certify(inst, rule, solver(inst, rule))
            # The priced solver answers p winning already without a search:
            # then the start ballots are the one choice to brute-force.
            options = seen.pop() if seen else [[(0, mask)] for mask in
                                               ballot_masks(inst.election)]
            cost = _brute_force_cost(inst, rule, options)
            assert verdict(got) == (cost is not None, cost), (rule, inst)
            outcomes.add(cost if cost is None else min(cost, 1))
    assert outcomes == {None, 0, 1}, rule


def test_flow_state_guard_at_its_boundary():
    # Deletions over (v1, v2): the sweep expands 18 states, the start and the
    # winning final state included, before it answers 3.
    e = make_election(["a", "b", "p"], [("v1", ["a", "b"]), ("v2", ["a"])])
    inst = BriberyInstance(e, 2, 1, 3, Op.DELETE)
    assert ccav_gav_flow_bribery(inst, Rule.CCAV, state_cap=18).cost == 3
    with pytest.raises(ResourceGuardError,
                       match="assignment search states exceed the cap of 17"):
        ccav_gav_flow_bribery(inst, Rule.CCAV, state_cap=17)
    # GAV searches no states, so the cap does not apply to it: with k = 1
    # the lowest-index tie-break keeps p out whatever is deleted.
    assert verdict(ccav_gav_flow_bribery(inst, Rule.GAV, state_cap=0)) == (False, None) == \
        verdict(oracle_bribery(inst, Rule.GAV))


def test_flow_state_guard_leaves_gav_to_the_oracle(monkeypatch):
    e = make_election(["a", "b", "p"], [("v1", ["a", "b"]), ("v2", ["a"])])
    inst = BriberyInstance(e, 2, 1, 3, Op.DELETE)
    type_sets = count_calls(monkeypatch, fpt, "_type_cowinner_ccav")
    oracles = count_calls(monkeypatch, fpt, "oracle_bribery")
    ccav_gav_flow_bribery(inst, Rule.CCAV)
    tested = type_sets[0]
    # CCAV never calls the oracle; GAV tests no type sets: at a cap that
    # would stop CCAV at its first state it is one oracle call.
    assert tested > 0 and oracles[0] == 0
    assert not ccav_gav_flow_bribery(inst, Rule.GAV, state_cap=0).feasible
    assert (type_sets[0], oracles[0]) == (tested, 1)


def test_gav_coverage_bribery_work_stops_at_the_optimum(monkeypatch):
    # GAV's priced deletions run the oracle's sweep, which stops at the
    # optimum's cost level whatever the budget.  Here 1, 14, 92, 387 and
    # 1,218 configurations cost 0 to 4, and the first winning one is the
    # 426th of the 3,194 costing 5: 1,712 + 426 = 2,138 leaves at every
    # budget.  A depth-first search bounded by the budget grew about
    # 250-fold from budget 5 to budget 40 on this instance.
    e = gen_random_election(6, 4, 0.9, 1)
    stream = Stream64(1)
    prices = PriceTable(delete={(v, c): stream.randint(1, 3)
                                for v in range(e.n) for c in range(e.m)})
    leaves = count_leaves(monkeypatch)
    for budget in (5, 10, 20, 40):
        leaves[0] = 0
        inst = BriberyInstance(e, 5, 1, budget, Op.DELETE, priced=True, prices=prices)
        got, _ = solve(inst, Rule.GAV, "exact")
        assert (verdict(got), leaves[0]) == ((True, 5), 2138), budget


@pytest.mark.parametrize("scale", [1, 10**9])
def test_cost_sweeps_read_only_reachable_levels(monkeypatch, scale):
    # Every price is a multiple of the scale, so both searches must do the
    # same work at any scale: each reads only the cost levels some
    # configuration or state reaches, never the empty ones between.  The
    # oracle tests the start election, then at cost `scale` v3 dropping c0
    # (c0 still loses) and v2 dropping c4, which wins: 3 leaves.  CCAV tests
    # 2 final states and expands 11.
    e = gen_random_election(5, 4, 0.5, 2)
    prices = PriceTable(delete={(v, c): scale * (1 + (v + c) % 3)
                                for v in range(e.n) for c in range(e.m)})
    inst = BriberyInstance(e, 0, 1, 10 * scale, Op.DELETE, priced=True, prices=prices)
    leaves = count_leaves(monkeypatch)
    final_states = count_calls(monkeypatch, fpt, "_ccav_wins")
    assert (verdict(oracle_bribery(inst, Rule.CCAV)), leaves[0]) == ((True, scale), 3)
    got = ccav_gav_flow_bribery(inst, Rule.CCAV, state_cap=11)
    assert (verdict(got), final_states[0]) == ((True, scale), 2)
    with pytest.raises(ResourceGuardError, match="assignment search states"):
        ccav_gav_flow_bribery(inst, Rule.CCAV, state_cap=10)


def test_ccav_search_drops_dominated_prefixes(monkeypatch):
    # A dense election: p = c1 has three approvers, c0 and c2-c4 have four.
    # At one below the optimal deletion cost of 7 the sweep must read every
    # level within the budget.  A CCAV final state depends only on the types
    # present and p's type, so an assignment prefix reaching a (candidates,
    # types, p type) state already reached at no higher cost is not listed
    # again, and each final state is tested once.  Above the optimum the
    # budget adds no work.
    e = gen_random_election(6, 4, 0.8, 21)
    stream = Stream64(21)
    prices = PriceTable(delete={(v, c): stream.randint(1, 3)
                                for v in range(e.n) for c in range(e.m)})
    leaves = count_calls(monkeypatch, fpt, "_ccav_wins")
    for budget, answer, reached in ((6, (False, None), 118), (7, (True, 7), 188),
                                    (10**9, (True, 7), 188)):
        leaves[0] = 0
        inst = BriberyInstance(e, 1, 1, budget, Op.DELETE, priced=True, prices=prices)
        got = rules.certify(inst, Rule.CCAV, ccav_gav_flow_bribery(inst, Rule.CCAV))
        assert (leaves[0], verdict(got)) == (reached, answer)
        assert verdict(got) == verdict(oracle_bribery(inst, Rule.CCAV))


def _priced_adds(seed: int, p: int, budget: int) -> BriberyInstance:
    """Priced additions on twelve candidates and four voters, k = 1."""
    e = gen_random_election(12, 4, 0.3, seed)
    stream = Stream64(seed)
    prices = PriceTable(add={(v, c): stream.randint(1, 3)
                             for v in range(e.n) for c in range(e.m)})
    return BriberyInstance(e, p, 1, budget, Op.ADD, priced=True, prices=prices)


def test_ccav_coverage_bribery_work_stops_at_the_optimum(monkeypatch):
    # The optimum is 2 at every budget, and the sweep tests the same 47
    # final states at each.  The depth-first search it replaced, bounded by
    # the budget, tested 80 leaves at budget 2 and 1,463,678 at budget 24.
    leaves = count_calls(monkeypatch, fpt, "_ccav_wins")
    for budget in (2, 6, 24):
        leaves[0] = 0
        got, _ = solve(_priced_adds(1, 0, budget), Rule.CCAV, "exact")
        assert (verdict(got), leaves[0]) == ((True, 2), 47), budget


def test_ccav_exact_answers_what_the_oracle_answers():
    # With twelve candidates a guard on type-set guesses refused this instance
    # before any search; the sweep expands far fewer states than its cap.
    inst = _priced_adds(3, 1, 6)
    assert not is_cowinner(inst.election, Rule.CCAV, 1, 1)
    assert verdict(solve(inst, Rule.CCAV, "exact")[0]) == (True, 3) == \
        verdict(solve(inst, Rule.CCAV, "oracle")[0])


def _states_within(ladders: list[list[tuple[int, int]]], p: int, budget: int) -> int:
    """The (candidates assigned, types present, p's type) states that some
    assignment prefix reaches within the budget, counted layer by layer."""
    layer = {(0, -1): 0}  # (types present, p's type) -> cheapest cost
    count = 1
    for c, ladder in enumerate(ladders):
        following: dict[tuple[int, int], int] = {}
        for (present, p_type), cost in layer.items():
            for extra, t in ladder:
                if cost + extra <= budget:
                    key = (present | 1 << t, t if c == p else p_type)
                    following[key] = min(following.get(key, cost + extra), cost + extra)
        layer = following
        count += len(layer)
    return count


def test_ccav_sweep_expands_each_state_within_the_budget_once(monkeypatch):
    # Hand-made ladders over three voters: p = candidate 0 keeps the
    # one-voter type A and every other type covers two voters, so with k = 1
    # p never wins and the sweep reads every level up to the budget of 6.
    # The candidates' cost-0 types list their states on level 0 while it is
    # read: 4 states expand there.  (3, {A, B, C}) is listed at cost 5 from
    # (2, {A, B}), then at cost 2 from (2, {A, C}); its stale entry at level
    # 5 is skipped, so the 9 states within the budget expand once each.
    a, b, c, d = 0b001, 0b011, 0b110, 0b101
    ladders = [[(0, a)], [(0, b), (1, c)], [(0, d), (1, b), (5, c)]]
    assert _states_within(ladders, 0, 6) == 9
    assert fpt._assignment_search(ladders, 0, 1, 6, 9) is None
    with pytest.raises(ResourceGuardError, match="cap of 8"):
        fpt._assignment_search(ladders, 0, 1, 6, 8)

    # The same count on the ladders of seeded solves that find no answer.
    seen = []
    search = fpt._assignment_search

    def recording(ladders, p, k, budget, state_cap):
        seen.append((ladders, p, k, budget))
        return search(ladders, p, k, budget, state_cap)
    monkeypatch.setattr(fpt, "_assignment_search", recording)
    checked = 0
    for op in (Op.ADD, Op.DELETE):
        cfg = SuiteConfig(op=op, count=150, seed=97, priced=True, max_candidates=5,
                          max_voters=4, max_budget=3, price_choices=(1, 2, 3))
        for inst in suite_instances(cfg):
            if ccav_gav_flow_bribery(inst, Rule.CCAV).feasible or not seen:
                seen.clear()
                continue
            ladders, p, k, budget = seen.pop()
            states = _states_within(ladders, p, budget)
            assert search(ladders, p, k, budget, states) is None
            with pytest.raises(ResourceGuardError):
                search(ladders, p, k, budget, states - 1)
            checked += 1
    assert checked >= 20


def test_ccav_free_action_wins_at_cost_0():
    # p ties a once v1 approves it, and that addition is free: the winning
    # final state is listed on level 0 while level 0 is read.
    e = make_election(["a", "p"], [("v1", ["a"])])
    inst = BriberyInstance(e, 1, 1, 0, Op.ADD, priced=True,
                           prices=PriceTable(add={(0, 1): 0}))
    got = rules.certify(inst, Rule.CCAV, ccav_gav_flow_bribery(inst, Rule.CCAV))
    assert (got.actions, verdict(got)) == ((AtomicAction(Op.ADD, 0, target=1),), (True, 0))


def test_flow_matches_oracle_on_wider_elections():
    # Six or seven candidates, up to four voters, prices with zeros: several
    # types are reachable at cost 0, so many assignments tie.
    seed = 140
    for rule in (Rule.CCAV, Rule.GAV):
        for op, restricted in ((Op.ADD, False), (Op.ADD, True), (Op.DELETE, False)):
            seed += 1
            cfg = SuiteConfig(op=op, count=600, seed=seed, priced=True,
                              restricted_to_p=restricted, max_candidates=7, max_voters=4,
                              max_budget=6, price_choices=(0, 1, 2, 3))
            chosen = [inst for inst in suite_instances(cfg)
                      if inst.election.m >= 6
                      and not is_cowinner(inst.election, rule, inst.k, inst.p)][:8]
            assert len(chosen) == 8, (rule, op, restricted)
            for inst in chosen:
                got = rules.certify(inst, rule, ccav_gav_flow_bribery(inst, rule))
                assert verdict(got) == verdict(oracle_bribery(inst, rule)), (rule, inst)


def test_searches_leave_no_reference_cycles():
    # The depth-first searches are closures that call themselves; each search
    # must drop that cycle itself, also when a resource guard stops it, so
    # that nothing it built waits for the cyclic collector.  The priced swap
    # solver runs the oracle's search through its option builder; the type
    # enumeration's walk recurses through a module function, here to a
    # winning set of size 3 or 4, to no set at all and into its guard; GAV's
    # coverage bribery is an oracle call, and CCAV's cost-level sweep is a
    # loop that holds no closure.
    e = make_election(["a", "b", "p"],
                      [("v1", ["a", "b"]), ("v2", ["a"]), ("v3", ["b"]), ("v4", ["a"])])
    gc.collect()
    gc.disable()
    try:
        for rule in Rule:
            assert oracle_margins(e, rule, 1, Op.DELETE)[0] == 0
            assert oracle_margin(e, rule, 1, 2, Op.SWAP) in (2, 3)
            assert oracle_bribery(BriberyInstance(e, 2, 1, 4, Op.ADD), rule).feasible
            with pytest.raises(ResourceGuardError):
                oracle_margins(e, rule, 1, Op.ADD, max_configs=10)
            swap = BriberyInstance(e, 2, 1, 1, Op.SWAP, priced=True, restricted_to_p=True)
            assert not priced_swap_to_p_type_enum(swap, rule).feasible
            assert unpriced_type_enum(BriberyInstance(e, 2, 1, 4, Op.ADD), rule).cost in (3, 4)
            assert not unpriced_type_enum(BriberyInstance(e, 2, 1, 1, Op.SWAP), rule).feasible
            with pytest.raises(ResourceGuardError):
                unpriced_type_enum(BriberyInstance(e, 2, 1, 1, Op.SWAP), rule, enum_cap=8)
            assert gc.collect() == 0, rule
        delete = BriberyInstance(e, 2, 1, 3, Op.DELETE, priced=True)
        assert not ccav_gav_flow_bribery(delete, Rule.GAV).feasible
        assert not ccav_gav_flow_bribery(delete, Rule.CCAV).feasible
        add = BriberyInstance(e, 2, 1, 4, Op.ADD, priced=True)
        assert ccav_gav_flow_bribery(add, Rule.CCAV).cost == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("solver, instance, rule, message", [
    (add_for_p_subset_enum, dict(op=Op.SWAP, restricted_to_p=True), Rule.AV, "additions only"),
    (add_for_p_subset_enum, dict(op=Op.ADD), Rule.AV, "adding approvals for p only"),
    (unpriced_type_enum, dict(op=Op.ADD, priced=True), Rule.AV, "called on a priced instance"),
    (unpriced_type_enum, dict(op=Op.DELETE), Rule.AV, "additions and swaps only"),
    (priced_swap_to_p_type_enum, dict(op=Op.SWAP, priced=True), Rule.AV, "swaps toward p only"),
    (ccav_gav_flow_bribery, dict(op=Op.ADD), Rule.PAV,
     "^the coverage search covers CCAV and GAV only$"),
], ids=["subset-op", "subset-restricted", "enum-priced", "enum-delete", "swap-to-p",
        "coverage-rule"])
def test_solver_checks_its_instance(e0, solver, instance, rule, message):
    with pytest.raises(ValueError, match=message):
        solver(BriberyInstance(e0, 3, 2, 3, **instance), rule)
