import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcbribery import (
    AtomicAction,
    Op,
    ResourceGuardError,
    Rule,
    apply_actions,
    av_scores,
    ccav_coverage,
    gav_committee,
    is_cowinner,
    make_election,
    pav_score,
    rav_committee,
    sav_scores,
    winning_committees,
)
from abcbribery import rules
from abcbribery.core import _iter_bits, approver_masks, ballot_masks
from abcbribery.fpt import _type_cowinner_ccav
from abcbribery.generators import Stream64

from helpers import (
    count_calls,
    fraction_reference,
    random_sized_election,
    reference_greedy,
    reference_winners,
)


def test_av_scores(e0):
    assert av_scores(e0) == [7, 5, 4, 1]


def test_av_scores_trivial():
    assert av_scores(make_election(["a", "b"], [])) == [0, 0]
    assert av_scores(make_election(["a", "b"], [("v1", ["a", "b"])])) == [1, 1]


def test_sav_scores_e0(e0):
    # Hand-derived: a = 1/3 + 1 + 1/2 + 1/2 + 1/2 + 1 + 1, b = 1/3+1/2+1/2+1/2+1/3,
    # c = 1/3+1/2+1/2+1/3, p = 1/3; the four sum to the 9 nonempty ballots.
    scores = sav_scores(e0)
    assert scores == [Fraction(29, 6), Fraction(13, 6), Fraction(5, 3), Fraction(1, 3)]
    assert sum(scores) == 9


def test_sav_single_voter():
    e = make_election(["a", "b"], [("v1", ["a", "b"])])
    assert sav_scores(e) == [Fraction(1, 2), Fraction(1, 2)]


def test_ccav_coverage(e0):
    assert ccav_coverage(e0, frozenset({0, 1})) == 9
    assert ccav_coverage(e0, frozenset({3, 2})) == 4
    empty_hitting = make_election(["a", "b"], [("v1", ["a"])])
    assert ccav_coverage(empty_hitting, frozenset({1})) == 0


def test_pav_score(e0):
    pair = make_election(["a", "b"], [("v1", ["a", "b"])])
    assert pav_score(pair, frozenset({0, 1})) == Fraction(3, 2)
    assert pav_score(e0, frozenset({0, 1})) == Fraction(21, 2)
    disjoint = make_election(["a", "b"], [("v1", ["a"])])
    assert pav_score(disjoint, frozenset({1})) == 0


def test_gav_committee(e0):
    assert gav_committee(e0, 2) == frozenset({0, 1})
    assert gav_committee(e0, 4) == frozenset({0, 1, 2, 3})
    e = make_election(["a", "b", "c"], [("v1", ["c"])])
    assert gav_committee(e, 1) == frozenset({2})


def _rav_gains(e, committee):
    """RAV's gain for adding each candidate to the committee, as a Fraction."""
    weights = rules._thiele_weights(Rule.RAV, len(committee) + 1)
    gains = rules._thiele_gains(ballot_masks(e), e.m, sum(1 << c for c in committee), weights)
    return [Fraction(g, weights[0]) for g in gains]


def test_rav_committee(e0):
    assert _rav_gains(e0, frozenset({0})) == [
        Fraction(0), Fraction(7, 2), Fraction(3), Fraction(1)]
    assert rav_committee(e0, 2) == frozenset({0, 1})
    # one round of RAV is an AV argmax
    assert rav_committee(e0, 1) == frozenset({0})


def test_rav_disjoint_ballots_matches_av_winners():
    # With pairwise-disjoint ballots every approved candidate has AV score
    # exactly 1, and RAV keeps preferring approved candidates, so its
    # committee is always one of the AV tie completions.
    stream = Stream64(99)
    for _ in range(40):
        m = stream.randint(2, 6)
        n = stream.randint(1, min(m, 5))
        names = [f"c{i}" for i in range(m)]
        blocks = [[] for _ in range(n)]
        for c in range(m):
            blocks[stream.randint(0, n - 1)].append(names[c])
        e = make_election(names, [(f"v{i}", blocks[i]) for i in range(n)])
        k = stream.randint(1, m)
        assert rav_committee(e, k) in winning_committees(e, Rule.AV, k)


def test_winning_committees_av(e0):
    assert winning_committees(e0, Rule.AV, 2) == {frozenset({0, 1})}


def test_winning_committees_tie():
    e = make_election(["a", "b"], [("v1", ["a", "b"])])
    assert winning_committees(e, Rule.AV, 1) == {frozenset({0}), frozenset({1})}


def test_winning_committees_ccav(e0):
    assert winning_committees(e0, Rule.CCAV, 1) == {frozenset({0})}


def test_winning_committees_guard(e0):
    with pytest.raises(ResourceGuardError):
        winning_committees(e0, Rule.PAV, 2, cap=3)


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_committee_guard_boundary(e0, rule, k):
    # C(4, k) committees: a cap of exactly that passes, one less trips before
    # the member lanes are built.
    size = math.comb(e0.m, k)
    rules._committee_lanes.cache_clear()
    for check in (lambda cap: is_cowinner(e0, rule, k, 3, cap),
                  lambda cap: winning_committees(e0, rule, k, cap)):
        with pytest.raises(ResourceGuardError, match=f"C\\(4,{k}\\) committees"):
            check(size - 1)
        assert rules._committee_lanes.cache_info().currsize == 0
    assert is_cowinner(e0, rule, k, 3, size) == is_cowinner(e0, rule, k, 3)
    assert winning_committees(e0, rule, k, size) == winning_committees(e0, rule, k)
    assert rules._committee_lanes.cache_info().currsize == 1


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV])
def test_cowinner_questions_list_no_committees(e0, monkeypatch, rule):
    # The co-winner questions read the member lanes alone, even while building
    # them; only winning_committees walks the committees themselves.
    expected = [is_cowinner(e0, rule, 2, p) for p in range(e0.m)]
    for cached in vars(rules).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()

    def refuse(*args):
        raise AssertionError("committees listed")

    monkeypatch.setattr(rules.itertools, "combinations", refuse)
    assert [is_cowinner(e0, rule, 2, p) for p in range(e0.m)] == expected
    with pytest.raises(AssertionError, match="committees listed"):
        winning_committees(e0, rule, 2)


def test_streaming_survives_huge_tie_families():
    import itertools
    from abcbribery import iter_winning_committees

    # 40 candidates all tied: C(40, 20) committees, streamed without blowup
    e = make_election([f"c{i}" for i in range(40)],
                      [("v1", [f"c{i}" for i in range(40)])])
    first_three = list(itertools.islice(iter_winning_committees(e, Rule.AV, 20), 3))
    assert len(first_three) == 3
    assert all(len(w) == 20 for w in first_three)
    with pytest.raises(ResourceGuardError):
        winning_committees(e, Rule.AV, 20)
    # membership tests never materialize the family
    assert is_cowinner(e, Rule.AV, 20, 39)


def test_is_cowinner_av(e0):
    assert not is_cowinner(e0, Rule.AV, 2, 3)
    swaps = [
        AtomicAction(Op.SWAP, 0, source=1, target=3),
        AtomicAction(Op.SWAP, 1, source=1, target=3),
        AtomicAction(Op.SWAP, 5, source=2, target=3),
    ]
    assert is_cowinner(apply_actions(e0, swaps), Rule.AV, 2, 3)


def test_is_cowinner_unique_max():
    e = make_election(["a", "p"], [("v1", ["p"]), ("v2", ["p", "a"])])
    for k in (1, 2):
        assert is_cowinner(e, Rule.AV, k, 1)


def test_score_cowinner_counts_candidates_above():
    # The AV/SAV leaf test stops at the k-th candidate above p; it must equal
    # the full count for every p and every k the instances allow (1..m), on
    # score vectors drawn from a few values so that most of them hold ties.
    stream = Stream64(97)
    tied = 0
    for _ in range(300):
        m = stream.randint(1, 8)
        scores = [stream.randint(0, 3) for _ in range(m)]
        tied += len(set(scores)) < m
        for p in range(m):
            above = sum(s > scores[p] for s in scores)
            for k in range(1, m + 1):
                assert rules._score_cowinner(scores, k, p) == (above <= k - 1), (scores, k, p)
    assert tied > 200, tied


def test_is_cowinner_matches_committee_membership():
    stream = Stream64(5)
    for _ in range(60):
        e = random_sized_election(stream, 5, 5)
        k = stream.randint(1, e.m)
        for rule in Rule:
            committees = winning_committees(e, rule, k)
            for p in range(e.m):
                member = any(p in w for w in committees)
                assert is_cowinner(e, rule, k, p) == member, (rule, e, k, p)


def _types(e, p):
    """Distinct candidate types (approver masks) and the position of p's type."""
    columns = approver_masks(e)
    types = tuple(sorted(set(columns)))
    return types, types.index(columns[p])


def test_type_cowinner_large_committee():
    stream = Stream64(17)
    for _ in range(30):
        e = random_sized_election(stream, 6, 4)
        if e.m < e.n + 1:
            continue
        k = stream.randint(e.n + 1, e.m)
        for p in range(e.m):
            types, i = _types(e, p)
            assert _type_cowinner_ccav(types, k) >> i & 1
            assert is_cowinner(e, Rule.CCAV, k, p)


def test_type_cowinner_k_equals_n_boundary():
    # Two voters with disjoint singleton ballots: max coverage needs both
    # approved candidates, so p is in no optimal committee although k = n.
    e = make_election(["a", "b", "p"], [("v1", ["a"]), ("v2", ["b"])])
    types, i = _types(e, 2)
    assert not _type_cowinner_ccav(types, 2) >> i & 1
    assert not is_cowinner(e, Rule.CCAV, 2, 2)


def test_type_cowinner_matches_bruteforce(e0):
    types, i = _types(e0, 3)
    assert bool(_type_cowinner_ccav(types, 2) >> i & 1) == is_cowinner(e0, Rule.CCAV, 2, 3)
    stream = Stream64(23)
    for _ in range(120):
        e = random_sized_election(stream, 7, 5)
        k = stream.randint(1, e.m)
        for p in range(e.m):
            types, i = _types(e, p)
            assert bool(_type_cowinner_ccav(types, k) >> i & 1) == is_cowinner(e, Rule.CCAV, k, p)


def test_type_cowinner_single_type():
    e = make_election(["a", "b", "p"], [("v1", ["a", "b", "p"])])
    for p in range(3):
        types, i = _types(e, p)
        assert _type_cowinner_ccav(types, 1) >> i & 1
        assert is_cowinner(e, Rule.CCAV, 1, p)


def test_kernel_matches_fraction_reference():
    stream = Stream64(41)
    for _ in range(40):
        e = random_sized_election(stream, 7, 7)
        av, sav, _, pav = fraction_reference(e)
        assert av_scores(e) == av
        assert sav_scores(e) == sav
        for k in range(1, e.m + 1):
            for rule in Rule:
                expected = reference_winners(e, rule, k)
                assert winning_committees(e, rule, k) == expected, (rule, e, k)
                for p in range(e.m):
                    assert is_cowinner(e, rule, k, p) == any(p in w for w in expected)
            for w in map(frozenset, itertools.combinations(range(e.m), k)):
                assert pav_score(e, w) == pav(w)
                assert _rav_gains(e, w) == [0 if c in w else pav(w | {c}) - pav(w)
                                            for c in range(e.m)]


def _packed_winners(ballots, m, rule, k):
    """Winning committees and co-winner mask read off the packed values."""
    values = rules._committee_values(rule, m, k, len(ballots))
    total = values.total(ballots)
    return (set(map(frozenset, values.committees(total))),
            values.cowinners(total))


def _mask_election(ballots, m):
    names = [f"c{i}" for i in range(m)]
    return make_election(names, [(f"v{v}", [names[c] for c in rules._iter_bits(mask)])
                                 for v, mask in enumerate(ballots)])


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV])
def test_packed_values_match_fraction_reference(rule):
    stream = Stream64(47)
    for _ in range(30):
        e = random_sized_election(stream, 7, 7)
        ballots = ballot_masks(e)
        for k in range(1, e.m + 1):
            expected = reference_winners(e, rule, k)
            assert _packed_winners(ballots, e.m, rule, k) == (
                expected, sum(1 << c for c in frozenset().union(*expected))), (e, k)


def _tally_state(tally):
    return (tuple(tally.scores or ()), tuple(tally.columns or ()),
            tuple(getattr(tally, "counts", ())), getattr(tally, "total", None))


@pytest.mark.parametrize("rule", list(Rule))
def test_packed_running_total_under_replacements(rule):
    # As the solvers' searches do: replace one ballot at a time on a running
    # tally, test every state against the Fraction reference, then revert in
    # reverse order back to the base.
    stream = Stream64(53)
    for _ in range(25):
        e = random_sized_election(stream, 7, 7)
        k = stream.randint(1, e.m)
        ballots = ballot_masks(e)
        tally = rules._Tally(ballots, e.m, rule, k)
        base = _tally_state(tally)
        undo = []
        for _ in range(stream.randint(1, 6)):
            v, new = stream.randint(0, e.n - 1), stream.randint(0, (1 << e.m) - 1)
            undo.append((v, ballots[v]))
            tally.set(v, new)
            ballots[v] = new
            expected = frozenset().union(*reference_winners(_mask_election(ballots, e.m), rule, k))
            assert tally.cowinners() == sum(1 << c for c in expected), (e, k, ballots)
            assert [tally.wins(p) for p in range(e.m)] == [p in expected for p in range(e.m)]
        while undo:
            tally.set(*undo.pop())
        fresh = rules._Tally(ballot_masks(e), e.m, rule, k)
        assert tally.ballots == fresh.ballots
        assert _tally_state(tally) == base == _tally_state(fresh)


@pytest.mark.parametrize("rule, k, n", [(Rule.CCAV, 1, 3), (Rule.CCAV, 3, 7), (Rule.PAV, 2, 5)])
def test_lane_width_switch(rule, k, n):
    # n * sat[k] = 2**j - 1 fills j bits; one voter more needs a wider lane.
    width = rules._lane_width(rule, k, n)
    assert n * rules._satisfaction(rule, k)[k] == (1 << width) - 1
    assert rules._lane_width(rule, k, n + 1) == width + 1
    # Voters approving everything put n * sat[k] in every lane; with the last
    # one approving only candidate 0, the best committees are those holding 0.
    m = 4
    for voters in (n, n + 1):
        for ballots in ([(1 << m) - 1] * voters, [(1 << m) - 1] * (voters - 1) + [1]):
            expected = reference_winners(_mask_election(ballots, m), rule, k)
            assert _packed_winners(ballots, m, rule, k)[0] == expected


def test_lanes_wider_than_64_bits():
    # PAV with k = 45 scales the harmonic weights by lcm(1..45), about 2**63.
    m, k = 47, 45
    ballots = [(1 << m) - 1, (1 << 30) - 1, (1 << m) - 1 - 0b111, 0b101 << 44]
    assert rules._lane_width(Rule.PAV, k, len(ballots)) > 64
    expected = reference_winners(_mask_election(ballots, m), Rule.PAV, k)
    assert _packed_winners(ballots, m, Rule.PAV, k)[0] == expected


def test_member_lanes_follow_committee_table():
    for m in range(1, 9):
        for k in range(1, m + 1):
            table = list(itertools.combinations(range(m), k))
            for width in (2, 5, 70):
                assert rules._member_lanes(m, k, width) == tuple(
                    sum(1 << j * width for j, committee in enumerate(table) if c in committee)
                    for c in range(m)), (m, k, width)


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV])
def test_every_committee_tied(rule):
    # Voters approving nothing tie all C(12, 6) committees; every lane is read.
    m, k = 12, 6
    assert _packed_winners([0, 0, 0], m, rule, k) == (
        {frozenset(c) for c in itertools.combinations(range(m), k)}, (1 << m) - 1)


def test_cowinner_mask_and_pick_order_match_reference():
    # Pick order matters beyond the committee: approx uses greedy prefixes
    # (GAV, down to the empty one at k = 0) and pick lists (RAV).  k runs up
    # to m, so zero-gain rounds occur.  The tally's greedy takes its first
    # pick from kept counts, and a membership test cuts the list at its target.
    stream = Stream64(43)
    unapproved_picks = 0  # each one is a zero-gain round
    for _ in range(40):
        e = random_sized_election(stream, 7, 7)
        ballots = ballot_masks(e)
        columns = approver_masks(e)
        counts = [column.bit_count() for column in columns]
        for k in range(e.m + 1):
            for rule in (Rule.GAV, Rule.RAV):
                picks = reference_greedy(e, rule, k)
                assert rules._thiele_greedy(ballots, e.m, rule, k) == picks, (rule, e, k)
                assert rules._greedy_picks(columns, rule, k, counts) == picks
                for stop in range(e.m):
                    cut = picks[:picks.index(stop) + 1] if stop in picks else picks
                    assert rules._greedy_picks(columns, rule, k, counts, stop) == cut
                    assert rules._greedy_picks(columns, rule, k, stop=stop) == cut
                approved = frozenset().union(*(b.approved for b in e.ballots))
                unapproved_picks += len(set(picks) - approved)
            if not k:
                continue
            for rule in Rule:
                union = frozenset().union(*reference_winners(e, rule, k))
                mask = rules._Tally(ballots, e.m, rule, k).cowinners()
                assert mask == sum(1 << c for c in union)
    assert unapproved_picks > 50


@pytest.mark.parametrize("rule", [Rule.GAV, Rule.RAV])
def test_tally_counts_follow_set(rule):
    # Random replacements, some of them restoring a voter's base ballot, then
    # every voter restored: the kept counts always equal recounted columns.
    stream = Stream64(67)
    for _ in range(40):
        e = random_sized_election(stream, 7, 7)
        base = ballot_masks(e)
        tally = rules._Tally(base, e.m, rule, stream.randint(1, e.m))
        for _ in range(stream.randint(1, 10)):
            v = stream.randint(0, e.n - 1)
            tally.set(v, base[v] if stream.chance(0.3) else stream.randint(0, (1 << e.m) - 1))
            columns = rules._transpose(tally.ballots, e.m)
            assert tally.columns == columns
            assert tally.counts == [column.bit_count() for column in columns]
        for v in range(e.n):
            tally.set(v, base[v])
        assert tally.counts == [column.bit_count() for column in approver_masks(e)]


def test_wins_screen_matches_reference(monkeypatch):
    # The GAV/RAV screen in wins answers False without a greedy once k
    # candidates are sure to be picked before p; every answer, screened or
    # not, must match the Fraction greedy.  Screened asks are those that ran
    # no greedy.
    greedies = count_calls(monkeypatch, rules, "_greedy_picks")
    stream = Stream64(71)
    screened = {"superset": 0, "count only": 0, "gav k >= 2": 0}
    for _ in range(40):
        e = random_sized_election(stream, 8, 8, probability=stream.choice([0.3, 0.5, 0.7]))
        ballots, columns = ballot_masks(e), approver_masks(e)
        for k in range(1, e.m + 1):
            for rule in (Rule.GAV, Rule.RAV):
                picks = reference_greedy(e, rule, k)
                tally = rules._Tally(ballots, e.m, rule, k)
                for p in range(e.m):
                    before = greedies[0]
                    assert tally.wins(p) == (p in picks), (rule, e, k, p)
                    if greedies[0] == before:
                        superset = any(not columns[p] & ~columns[c] for c in range(p))
                        screened["superset" if superset else "count only"] += 1
                        screened["gav k >= 2"] += rule is Rule.GAV and k >= 2
    assert min(screened.values()) > 20, screened


@pytest.mark.parametrize("names, rule, k, p", [
    # k - 1 = 1 dominator: c0 approves all of p's voters; p then ties c2 at
    # 2 and takes the second seat on its lower index.
    ([["c0", "p"], ["c0", "p"], ["c0"], ["c2"]], Rule.RAV, 2, 1),
    # c1 has p's column but a higher index: the tie goes to p.
    ([["p", "c1"], ["p", "c1"], ["c2"]], Rule.RAV, 1, 0),
    ([["p", "c1"], ["p", "c1"], ["c2"]], Rule.GAV, 1, 0),
    # count(c) * w(1) = count(p) * w(0) for c0 and c2 (4 * 1 = 2 * 2): after
    # c0, p and c2 tie at 4 and p takes the seat.
    ([["c0", "c2"]] * 4 + [["p"]] * 2, Rule.RAV, 2, 1),
    # GAV at k = 2 has w(1) = 0: c0 and c1 cover 5 voters each, but after c0
    # the second round gives p 1 and c1 nothing.
    ([["c0", "c1"]] * 5 + [["p"]], Rule.GAV, 2, 2),
])
def test_wins_screen_boundaries(monkeypatch, names, rule, k, p):
    # Fewer than k sure dominators: the screen must pass p to the greedy,
    # which seats p.
    candidates = ["c0", "c1", "c2"]
    candidates[p] = "p"
    e = make_election(candidates, [(f"v{v}", approved) for v, approved in enumerate(names)])
    greedies = count_calls(monkeypatch, rules, "_greedy_picks")
    assert rules._Tally(ballot_masks(e), e.m, rule, k).wins(p)
    assert greedies[0] == 1
    assert p in reference_greedy(e, rule, k)


def test_rules_hash_by_identity():
    # The caches keyed by a rule hash it as an object, not through Enum's
    # Python-level __hash__, and still keep one entry per rule.
    for rule in Rule:
        assert hash(rule) == object.__hash__(rule)
        assert Rule(rule.value) is rule
    assert len({rule: rule.value for rule in Rule}) == len(Rule) == 6
    assert rules._greedy_weights(Rule.GAV, 3) != rules._greedy_weights(Rule.RAV, 3)
    assert rules._thiele_weights(Rule.CCAV, 3) != rules._thiele_weights(Rule.PAV, 3)
    assert rules._score_shares(Rule.AV, 4) != rules._score_shares(Rule.SAV, 4)
    assert rules._satisfaction(Rule.GAV, 2) != rules._satisfaction(Rule.RAV, 2)


# --- guarantees and symmetry --------------------------------------------------


def _brute_best(e, k, objective):
    return max(objective(frozenset(combo))
               for combo in itertools.combinations(range(e.m), k))


def test_gav_coverage_guarantee():
    stream = Stream64(31)
    for _ in range(60):
        e = random_sized_election(stream, 8, 8)
        k = stream.randint(1, e.m)
        opt = _brute_best(e, k, lambda w: ccav_coverage(e, w))
        score = ccav_coverage(e, gav_committee(e, k))
        assert 2721 * (opt - score) <= 1001 * opt


def test_rav_score_guarantee():
    stream = Stream64(32)
    for _ in range(60):
        e = random_sized_election(stream, 8, 8)
        k = stream.randint(1, e.m)
        opt = _brute_best(e, k, lambda w: pav_score(e, w))
        score = pav_score(e, rav_committee(e, k))
        assert 2721 * (opt - score) <= 1001 * opt


def _greedy_has_tie(e, k, rule):
    if rule is Rule.GAV:
        approvers = approver_masks(e)
        covered = 0
        chosen = set()
        for _ in range(k):
            gains = {}
            for c in range(e.m):
                if c in chosen:
                    continue
                gains[c] = (approvers[c] & ~covered).bit_count()
            best = max(gains.values())
            winners = [c for c, g in gains.items() if g == best]
            if len(winners) > 1:
                return True
            chosen.add(winners[0])
            covered |= approvers[winners[0]]
        return False
    committee = frozenset()
    for _ in range(k):
        marginals = _rav_gains(e, committee)
        options = [c for c in range(e.m) if c not in committee]
        best = max(marginals[c] for c in options)
        winners = [c for c in options if marginals[c] == best]
        if len(winners) > 1:
            return True
        committee |= {winners[0]}
    return False


def test_candidate_permutation_symmetry():
    stream = Stream64(33)
    checked = 0
    while checked < 40:
        e = random_sized_election(stream, 5, 5)
        k = stream.randint(1, e.m)
        perm = list(range(e.m))
        for i in range(e.m - 1, 0, -1):
            j = stream.randint(0, i)
            perm[i], perm[j] = perm[j], perm[i]
        names = [f"c{i}" for i in range(e.m)]
        permuted = make_election(
            names,
            [(b.voter_name, [names[perm[c]] for c in sorted(b.approved)]) for b in e.ballots],
        )
        for rule in Rule:
            if rule in (Rule.GAV, Rule.RAV) and _greedy_has_tie(e, k, rule):
                continue
            before = winning_committees(e, rule, k)
            after = winning_committees(permuted, rule, k)
            assert {frozenset(perm[c] for c in w) for w in before} == after, rule
        checked += 1


def test_voter_permutation_symmetry():
    stream = Stream64(34)
    for _ in range(40):
        e = random_sized_election(stream, 5, 5)
        k = stream.randint(1, e.m)
        order = list(range(e.n))
        for i in range(e.n - 1, 0, -1):
            j = stream.randint(0, i)
            order[i], order[j] = order[j], order[i]
        names = [c.name for c in e.candidates]
        shuffled = make_election(
            names,
            [(f"w{i}", [names[c] for c in sorted(e.ballots[v].approved)])
             for i, v in enumerate(order)],
        )
        for rule in Rule:
            assert winning_committees(e, rule, k) == winning_committees(shuffled, rule, k)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_sav_point_conservation(seed):
    stream = Stream64(seed)
    e = random_sized_election(stream, 6, 6)
    nonempty = sum(1 for b in e.ballots if b.approved)
    assert sum(sav_scores(e), Fraction(0)) == nonempty


def test_trading_an_approval_for_p_keeps_p_winning():
    # The type enumeration's dominance rule: in a vote lacking p, replacing an
    # approved t by p raises the value of every committee holding p and lowers
    # that of every other, so a co-winner p stays one under AV, SAV, CCAV and
    # PAV.  A fresh tally of the traded ballots must agree with the moved one.
    stream = Stream64(97)
    trades = 0
    for _ in range(150):
        e = random_sized_election(stream, 6, 5)
        base = ballot_masks(e)
        for rule in (Rule.AV, Rule.SAV, Rule.CCAV, Rule.PAV):
            k = stream.randint(1, e.m)
            tally = rules._Tally(base, e.m, rule, k)
            for p in range(e.m):
                if not tally.wins(p):
                    continue
                for v, mask in enumerate(base):
                    if mask >> p & 1:
                        continue
                    for t in _iter_bits(mask):
                        traded = mask ^ (1 << t | 1 << p)
                        tally.set(v, traded)
                        assert tally.wins(p), (rule, base, k, p, v, t)
                        ballots = base[:v] + [traded] + base[v + 1:]
                        assert rules._Tally(ballots, e.m, rule, k).wins(p)
                        tally.set(v, mask)
                        trades += 1
    assert trades > 1000, trades


def test_trading_an_approval_for_p_can_cost_gav_its_winner():
    # Why GAV and RAV keep their plain walk: the greedy's lowest-index
    # tie-break.  Ballots {c1}, {c1, c3}, {c0, c3}, k = 3, p = c2: GAV picks
    # c1 (tied with c3 at two approvals), then c0 for voter 2, and with no gain
    # left the lowest free index, p.  Once voter 1 trades c1 for p, c3 goes
    # first and covers voters 1 and 2, c1 covers voter 0, and the free pick
    # is c0: p is out.
    base = [0b00010, 0b01010, 0b01001]
    tally = rules._Tally(base, 5, Rule.GAV, 3)
    assert tally.wins(2)
    tally.set(1, 0b01100)
    assert not tally.wins(2)
    assert not rules._Tally([0b00010, 0b01100, 0b01001], 5, Rule.GAV, 3).wins(2)


@pytest.mark.parametrize("rule", [Rule.CCAV, Rule.PAV, Rule.GAV, Rule.RAV])
def test_committee_streaming_takes_score_rules_only(e0, rule):
    with pytest.raises(ValueError, match="^lazy committee streaming applies to the score rules only$"):
        next(rules.iter_winning_committees(e0, rule, 2))
