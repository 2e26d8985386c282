"""Scores, committees and co-winner tests for six approval-based rules.

AV and SAV are separable score rules; CCAV and PAV are optimization rules
solved exactly by guarded brute force at desk scale; GAV and RAV are greedy
rules made deterministic by breaking round ties toward the lowest candidate
index.

CCAV, PAV, GAV and RAV are Thiele rules: a voter's (t+1)-th approved
committee member is worth w(t), with w = (1, 0, 0, ...) for the coverage
rules and w(t) = 1/(t+1) for the harmonic ones.  Scores are exact integers
inside the package: harmonic weights are scaled by lcm(1..k) and SAV shares
by lcm(1..m).  The public functions return ``Fraction`` values.

Every co-winner question goes through one object on ballot bitmasks,
``_Tally``: built once from an election, it moves its state one voter's
ballot at a time (``set``) and answers for one target (``wins``) or for
every candidate at once as a bitmask (``cowinners``).  A solver's search
changes a few voters per step, and the type enumeration restores them; a
from-scratch question is a fresh tally.  AV and SAV keep the scores, and
``_score_delta`` moves them.  GAV
and RAV keep the candidate columns (approver bitmasks) and their approval
counts, flipping one voter's bit and moving one count per changed
candidate, and run one greedy on them.  The first pick is read off the
counts.  After each pick, its approvers move up a level (``levels[t]``
holds the voters with exactly t committee members), and every candidate's
gain drops by w(t) - w(t+1) per approver it shares with them at level t:
the coverage rules keep one drop, and no round recomputes the gains.  A
membership test, ``_greedy_wins``, stops the greedy once its target is
picked, and first screens: with k candidates sure to be picked before the
target, it loses without a greedy.  ``_Tally.wins`` asks it.

CCAV and PAV keep every size-k committee's value in one packed integer,
``_CommitteeValues``: lane j holds the value of the j-th committee of a
table built once per (m, k), after the committee cap is checked.  A voter's
row, its satisfaction with every committee, sums the cached member lanes of
its approved candidates and turns the member counts into satisfaction with
one threshold test per nonzero Thiele weight; no loop runs over committees.
The election's total is the sum of the rows, so a changed voter moves it by
row(new) - row(old).  The best lanes are read by one descent over the bit
planes.  A single target wins when one AND of the best lanes with its
member lanes is nonzero; the co-winner mask unions the best committees.

``certify`` replays a solver's answer on ballot masks (``core.replay_masks``)
and reruns the kernel on them: every answer ``solve`` returns has passed it.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from math import comb, lcm

from .core import (
    BriberyInstance,
    BriberySolution,
    Election,
    ElectionError,
    ResourceGuardError,
    _iter_bits,
    _transpose,
    approver_masks,
    ballot_masks,
    replay_masks,
    solution_cost,
)

COMMITTEE_ENUM_CAP = 10**6


class Rule(Enum):
    AV = "av"
    SAV = "sav"
    CCAV = "ccav"
    GAV = "gav"
    PAV = "pav"
    RAV = "rav"

    # Members are singletons, so identity is their equality.  Enum's own
    # __hash__ is a Python-level call that every lru_cache lookup keyed by a
    # rule would pay, once per greedy oracle leaf.
    __hash__ = object.__hash__


def _check_k(e: Election, k: int):
    if not 1 <= k <= e.m:
        raise ElectionError(f"committee size {k} out of range 1..{e.m}")


# --- integer kernel over ballot masks, shared with every solver ---------------


def _scale(top: int) -> int:
    """lcm(1..top): the least multiplier making 1/1, ..., 1/top integers."""
    return lcm(*range(1, top + 1))


@lru_cache(maxsize=256)
def _score_shares(rule: Rule, m: int) -> tuple[int, ...]:
    """Per-candidate share of a ballot approving s candidates, s = 0..m.

    AV gives each approved candidate 1; SAV splits lcm(1..m) equally.
    """
    if rule is Rule.AV:
        return (1,) * (m + 1)
    scale = _scale(m)
    return (0,) + tuple(scale // s for s in range(1, m + 1))


def _scores(ballots: list[int], m: int, shares: tuple[int, ...]) -> list[int]:
    """AV counts, or SAV scores scaled by lcm(1..m), given ``_score_shares``."""
    scores = [0] * m
    for mask in ballots:
        share = shares[mask.bit_count()]
        for c in _iter_bits(mask):
            scores[c] += share
    return scores


def _score_delta(scores: list[int], old: int, new: int, shares: tuple[int, ...]) -> None:
    """Move AV or SAV scores in place as one ballot goes from old to new.

    The candidates the ballot keeps move only when its size, and with it the
    SAV share, changes.
    """
    lost, gained = shares[old.bit_count()], shares[new.bit_count()]
    moved = old ^ new if gained == lost else old | new
    while moved:  # _iter_bits inlined: every changed voter of a search step moves scores
        low = moved & -moved
        scores[low.bit_length() - 1] += (gained if new & low else 0) - (lost if old & low else 0)
        moved ^= low


@lru_cache(maxsize=256)
def _thiele_weights(rule: Rule, k: int) -> tuple[int, ...]:
    """w(0..k-1): a voter's gain from its 1st, 2nd, ... approved member.

    Harmonic weights 1/(t+1) are scaled by lcm(1..k), so weights[0] is the
    scale.
    """
    if rule in (Rule.CCAV, Rule.GAV):
        return (1,) + (0,) * (k - 1)
    scale = _scale(k)
    return tuple(scale // (t + 1) for t in range(k))


@lru_cache(maxsize=256)
def _satisfaction(rule: Rule, k: int) -> tuple[int, ...]:
    """A voter's value for approving t = 0..k committee members."""
    return tuple(itertools.accumulate(_thiele_weights(rule, k), initial=0))


def _committee_value(ballots: list[int], committee: int, satisfaction: tuple[int, ...]) -> int:
    """Sum over voters of satisfaction[number of approved committee members]."""
    value = 0
    for mask in ballots:
        value += satisfaction[(mask & committee).bit_count()]
    return value


@lru_cache(maxsize=8)
def _committee_table(m: int, k: int) -> tuple[int, ...]:
    """Every size-k committee over m candidates as a bitmask.

    Callers check comb(m, k) against their cap first, so a guarded size is
    never built and each kept table holds at most cap entries.
    """
    return tuple(sum(1 << c for c in combo) for combo in itertools.combinations(range(m), k))


def _lane_width(rule: Rule, k: int, n: int) -> int:
    """Bits per committee lane for n voters.

    A lane must hold the largest committee value, n * sat[k], and the row
    threshold test needs k below the lane's top bit.
    """
    return max((n * _satisfaction(rule, k)[k]).bit_length(), k.bit_length() + 1)


def _lane_ones(lanes: int, width: int) -> int:
    """A 1 in the lowest bit of each of ``lanes`` lanes."""
    return ((1 << lanes * width) - 1) // ((1 << width) - 1)


def _member_lanes(m: int, k: int, width: int) -> tuple[int, ...]:
    """members[c]: a 1 in the lane of each size-k committee holding c.

    Lanes follow ``_committee_table``'s lexicographic order, in which the
    size-j committees over candidates lo..m-1 are those holding lo, then
    those not holding it.  Sweeping lo down from m-1 joins two blocks of the
    previous sweep per size with one shift per candidate; nothing loops
    over committees.
    """
    # blocks[j] = (lanes, members) for the size-j committees over lo..m-1.
    empty = (0, (0,) * m)
    blocks = [(1, (0,) * m)] + [empty] * k
    for lo in range(m - 1, -1, -1):
        first = max(1, k - lo)  # smaller blocks can never grow to size k
        joined = blocks[:1] + [empty] * (first - 1)
        for j in range(first, k + 1):
            (with_lanes, with_lo), (without_lanes, without_lo) = blocks[j - 1], blocks[j]
            shift = with_lanes * width
            members = [a | b << shift for a, b in zip(with_lo, without_lo)]
            members[lo] = _lane_ones(with_lanes, width)
            joined.append((with_lanes + without_lanes, tuple(members)))
        blocks = joined
    return blocks[k][1]


class _CommitteeValues:
    """Every size-k committee's CCAV or PAV value packed into one integer.

    Lane j, the ``width`` bits from j * width up, holds the value of
    ``_committee_table(m, k)[j]``.  A voter's row is the packed value that
    one ballot contributes, so the election's total is the sum of its rows,
    and replacing one ballot moves the total by row(new) - row(old).  Lane
    values never go negative or reach 2**width, so packed sums need no
    carry handling.
    """

    __slots__ = ("table", "width", "ones", "high", "members", "thresholds")

    def __init__(self, rule: Rule, m: int, k: int, width: int):
        self.table = _committee_table(m, k)
        self.width = width
        self.ones = _lane_ones(len(self.table), width)
        self.high = self.ones << width - 1  # every lane's top bit
        self.members = _member_lanes(m, k, width)
        # (weight, offset) per nonzero Thiele weight w(t): adding the offset
        # sets a lane's top bit exactly when its member count exceeds t.
        top = 1 << width - 1
        self.thresholds = tuple((w, self.ones * (top - t - 1))
                                for t, w in enumerate(_thiele_weights(rule, k)) if w)

    def row(self, mask: int) -> int:
        """One ballot's satisfaction with every committee."""
        count = 0
        rest = mask
        while rest:  # _iter_bits inlined: every changed voter of a leaf builds a row
            low = rest & -rest
            count += self.members[low.bit_length() - 1]
            rest ^= low
        # Nonzero weights come first, and a lane counts at most |mask| members.
        high, shift = self.high, self.width - 1
        value = 0
        for weight, offset in self.thresholds[:mask.bit_count()]:
            value += (((count + offset) & high) >> shift) * weight
        return value

    def total(self, ballots: list[int]) -> int:
        return sum(map(self.row, ballots))

    def best(self, total: int) -> int:
        """A 1 in the lowest bit of each lane of maximal value.

        One descent over the bit planes, most significant first, keeps the
        lanes that have the current bit whenever some kept lane has it.
        """
        lanes = self.ones
        for b in range(self.width - 1, -1, -1):
            kept = (total >> b) & lanes
            if kept:
                lanes = kept
        return lanes

    def cowinners(self, total: int) -> int:
        """Bitmask of the candidates in some committee of maximal value."""
        best = self.best(total)
        mask = 0
        for c, lanes in enumerate(self.members):  # a loop, not a generator: every leaf asks
            if lanes & best:
                mask |= 1 << c
        return mask

    def committees(self, total: int) -> list[int]:
        """Bitmasks of the committees of maximal value."""
        # Read every lane's lowest bit off one binary string: peeling the
        # bits off the packed integer one by one takes quadratic time.
        flags = format(self.best(total), "b")[::-1][::self.width]
        return [committee for committee, flag in zip(self.table, flags) if flag == "1"]


@lru_cache(maxsize=8)
def _committee_lanes(rule: Rule, m: int, k: int, width: int) -> _CommitteeValues:
    """Built once per lane layout; callers check the committee cap first."""
    return _CommitteeValues(rule, m, k, width)


def _committee_values(rule: Rule, m: int, k: int, n: int,
                      cap: int = COMMITTEE_ENUM_CAP) -> _CommitteeValues:
    """The packed committee values of CCAV or PAV for n voters."""
    if comb(m, k) > cap:
        raise ResourceGuardError(f"C({m},{k}) committees exceed the cap of {cap}")
    return _committee_lanes(rule, m, k, _lane_width(rule, k, n))


def _thiele_gains(ballots: list[int], m: int, committee: int,
                  weights: tuple[int, ...]) -> list[int]:
    """Value gained by adding each candidate to the committee (0 for members):
    w(t) per approver holding t members, summed over t."""
    levels = [0] * len(weights)
    for v, mask in enumerate(ballots):
        levels[(mask & committee).bit_count()] |= 1 << v
    columns = _transpose(ballots, m)
    gains = [0] * m
    for w, level in zip(weights, levels):
        if w and level:
            gains = [gain + w * (column & level).bit_count()
                     for gain, column in zip(gains, columns)]
    for c in _iter_bits(committee):
        gains[c] = 0
    return gains


@lru_cache(maxsize=256)
def _greedy_weights(rule: Rule, k: int) -> tuple[int, tuple[int, ...]]:
    """w(0) and the drops w(t) - w(t+1) for t = 0, 1, ... while w(t) is
    nonzero, with w(k) = 0.

    A voter moving from level t to t+1 lowers each candidate it approves by
    the drop at t; past the last nonzero weight a voter gains nothing more.
    The coverage rules keep one drop, the harmonic ones k.
    """
    weights = _thiele_weights(rule, k) + (0,)
    return weights[0], tuple(weights[t] - weights[t + 1]
                             for t in range(len(weights) - 1) if weights[t])


def _greedy_picks(columns: list[int], rule: Rule, k: int, counts: list[int] | None = None,
                  stop: int | None = None) -> list[int]:
    """Greedy pick list over candidate columns (approver masks), ties toward
    the lowest index.  Rounds with no gain still pick, the lowest free index.

    ``counts`` are the columns' approval counts when the caller keeps them.
    The list ends early once ``stop`` is picked, which is all a membership
    test needs.
    """
    if not k:  # the empty prefix approx asks for
        return []
    if counts is None:
        counts = [column.bit_count() for column in columns]
    # Every voter starts at level 0, so the first round's gain is w(0) times
    # a candidate's approvals: the first pick is the most approved candidate.
    best = counts.index(max(counts))
    picks = [best]
    if best == stop or k == 1:
        return picks
    w0, drops = _greedy_weights(rule, k)
    # The first pick's approvers move to level 1, lowering every candidate
    # by the drop at level 0 per approver it shares with them.  A picked gain
    # is set to -1 and only falls from there, below every free gain, which
    # never goes negative.
    column = columns[best]
    drop = drops[0]
    gains = [w0 * count - drop * (other & column).bit_count()
             for count, other in zip(counts, columns)]
    gains[best] = -1
    # levels[t] holds the voters approving exactly t picks; only the levels
    # with a drop are kept.
    levels = [~column, column][:len(drops)]
    while True:
        best = gains.index(max(gains))
        gains[best] = -1
        picks.append(best)
        if best == stop or len(picks) == k:
            return picks
        # The pick's approvers move up a level and lower the gains of the
        # candidates they approve by the drop at their old level.
        column = columns[best]
        moved = 0
        for t, level in enumerate(levels):
            levels[t] = (level & ~column) | moved
            moved = level & column
            if moved:
                drop = drops[t]
                gains = [gain - drop * (other & moved).bit_count()
                         for gain, other in zip(gains, columns)]
        if len(levels) < len(drops):
            levels.append(moved)


def _greedy_wins(columns: list[int], counts: list[int], rule: Rule, k: int, p: int,
                 w0: int, w_last: int) -> bool:
    """Does the greedy over these columns pick p?  w0 and w_last are w(0)
    and w(k-1).

    Screen first: a candidate c is picked before p when (a) c < p and c's
    voters include p's, so c gains at least as much in every round and wins
    the tie, or (b) c's gain can never fall to the highest gain p can have:
    count(c) * w(k-1) > count(p) * w(0).  With k such candidates p is out
    before the greedy runs.
    """
    column, ceiling = columns[p], counts[p] * w0
    beaten = k
    for c, count in enumerate(counts):  # p itself meets neither rule
        if count * w_last > ceiling or (c < p and not column & ~columns[c]):
            beaten -= 1
            if not beaten:
                return False
    return p in _greedy_picks(columns, rule, k, counts, p)


def _thiele_greedy(ballots: list[int], m: int, rule: Rule, k: int) -> list[int]:
    """Greedy committee as an ordered pick list, ties toward the lowest index."""
    return _greedy_picks(_transpose(ballots, m), rule, k)


def _score_cutoff(scores: list[int], k: int) -> int:
    """The k-th highest score: AV and SAV committees hold every candidate
    above it and complete with candidates at it."""
    return sorted(scores, reverse=True)[k - 1]


def _score_cowinner(scores: list[int], k: int, p: int) -> bool:
    """Do fewer than k candidates score above p?  k is at least 1."""
    # A plain loop that stops at the k-th candidate above p: every AV and SAV
    # leaf asks, and a generator's set-up costs more than its handful of items.
    ceiling, above = scores[p], k
    for s in scores:
        if s > ceiling:
            above -= 1
            if not above:
                return False
    return True


class _Tally:
    """One election's co-winner state, moved one voter's ballot at a time.

    AV and SAV keep the scores, GAV and RAV the candidate columns, CCAV and
    PAV the packed total of their committee values, with one row cached per
    distinct ballot.  ``ballots`` is copied: ``self.ballots`` holds the
    ballots the state currently describes.  Searches call ``set`` at every
    step, so its bit loops are inlined.
    """

    __slots__ = ("ballots", "rule", "k", "scores", "shares", "columns", "counts", "w0", "w_last",
                 "values", "rows", "total")

    def __init__(self, ballots: list[int], m: int, rule: Rule, k: int,
                 cap: int = COMMITTEE_ENUM_CAP):
        self.ballots = list(ballots)
        self.rule = rule
        self.k = k
        self.scores = self.columns = None
        if rule in (Rule.AV, Rule.SAV):
            self.shares = _score_shares(rule, m)
            self.scores = _scores(ballots, m, self.shares)
        elif rule in (Rule.GAV, Rule.RAV):
            self.columns = _transpose(ballots, m)
            self.counts = [column.bit_count() for column in self.columns]
            weights = _thiele_weights(rule, k)
            self.w0, self.w_last = weights[0], weights[-1]
        else:
            self.values = _committee_values(rule, m, k, len(ballots), cap)
            self.rows = {mask: self.values.row(mask) for mask in set(ballots)}
            self.total = sum(map(self.rows.__getitem__, ballots))

    def set(self, v: int, mask: int) -> None:
        """Voter v now holds ``mask``."""
        old = self.ballots[v]
        if old == mask:  # a search restores voters it may not have moved
            return
        self.ballots[v] = mask
        if self.scores is not None:
            _score_delta(self.scores, old, mask, self.shares)
        elif self.columns is not None:
            columns, counts, bit, flips = self.columns, self.counts, 1 << v, old ^ mask
            while flips:
                low = flips & -flips
                c = low.bit_length() - 1
                columns[c] ^= bit
                counts[c] += 1 if mask & low else -1
                flips ^= low
        else:
            rows = self.rows
            row = rows.get(mask)
            if row is None:  # every ballot the tally holds has its row cached
                row = rows[mask] = self.values.row(mask)
            self.total += row - rows[old]

    def wins(self, p: int) -> bool:
        """Does p belong to some winning committee?"""
        # One count or one greedy for a single target: no sort, no mask.
        if self.scores is not None:
            return _score_cowinner(self.scores, self.k, p)
        if self.columns is not None:
            return _greedy_wins(self.columns, self.counts, self.rule, self.k, p,
                                self.w0, self.w_last)
        values = self.values
        return bool(values.best(self.total) & values.members[p])

    def cowinners(self) -> int:
        """Bitmask of every candidate belonging to some winning committee."""
        # Plain loops: every oracle leaf asks, and a generator's set-up costs
        # more than its handful of items.
        mask = 0
        if self.scores is not None:
            cutoff = _score_cutoff(self.scores, self.k)
            for c, s in enumerate(self.scores):
                if s >= cutoff:
                    mask |= 1 << c
        elif self.columns is not None:
            for c in _greedy_picks(self.columns, self.rule, self.k, self.counts):
                mask |= 1 << c
        else:
            mask = self.values.cowinners(self.total)
        return mask


def _is_cowinner_from_ballots(ballots: list[int], m: int, rule: Rule, k: int, p: int,
                              cap: int = COMMITTEE_ENUM_CAP) -> bool:
    return _Tally(ballots, m, rule, k, cap).wins(p)


# --- public scores and committee operations ----------------------------------


def av_scores(e: Election) -> list[int]:
    """Number of approving voters per candidate."""
    return [column.bit_count() for column in approver_masks(e)]


def sav_scores(e: Election) -> list[Fraction]:
    """Each voter splits one point equally among approved candidates."""
    scale = _scale(e.m)
    shares = _score_shares(Rule.SAV, e.m)
    return [Fraction(s, scale) for s in _scores(ballot_masks(e), e.m, shares)]


def _thiele_value(e: Election, rule: Rule, committee: frozenset[int]) -> int:
    return _committee_value(ballot_masks(e), sum(1 << c for c in committee),
                            _satisfaction(rule, len(committee)))


def ccav_coverage(e: Election, committee: frozenset[int]) -> int:
    """Number of ballots approving at least one committee member."""
    return _thiele_value(e, Rule.CCAV, committee)


def pav_score(e: Election, committee: frozenset[int]) -> Fraction:
    """Sum over voters of the harmonic number of their committee intersection."""
    return Fraction(_thiele_value(e, Rule.PAV, committee), _scale(len(committee)))


def gav_committee(e: Election, k: int) -> frozenset[int]:
    """Greedy coverage committee, ties broken toward the lowest index."""
    _check_k(e, k)
    return frozenset(_thiele_greedy(ballot_masks(e), e.m, Rule.GAV, k))


def rav_committee(e: Election, k: int) -> frozenset[int]:
    """Greedy committee maximizing the harmonic (PAV) score round by round."""
    _check_k(e, k)
    return frozenset(_thiele_greedy(ballot_masks(e), e.m, Rule.RAV, k))


def iter_winning_committees(e: Election, rule: Rule, k: int):
    """Lazily stream the AV or SAV tie-completion family.

    The family can be exponentially large; callers that only need membership
    should use is_cowinner, which never materializes it.
    """
    _check_k(e, k)
    if rule not in (Rule.AV, Rule.SAV):
        raise ValueError("lazy committee streaming applies to the score rules only")
    scores = _scores(ballot_masks(e), e.m, _score_shares(rule, e.m))
    cutoff = _score_cutoff(scores, k)
    fixed = frozenset(c for c in range(e.m) if scores[c] > cutoff)
    tied = [c for c in range(e.m) if scores[c] == cutoff]
    for combo in itertools.combinations(tied, k - len(fixed)):
        yield fixed | frozenset(combo)


def winning_committees(e: Election, rule: Rule, k: int,
                       cap: int = COMMITTEE_ENUM_CAP) -> set[frozenset[int]]:
    """All tied winning committees; deterministic singleton for GAV/RAV."""
    _check_k(e, k)
    ballots = ballot_masks(e)
    if rule in (Rule.AV, Rule.SAV):
        scores = _scores(ballots, e.m, _score_shares(rule, e.m))
        cutoff = _score_cutoff(scores, k)
        tied = sum(1 for s in scores if s == cutoff)
        above = sum(1 for s in scores if s > cutoff)
        if comb(tied, k - above) > cap:
            raise ResourceGuardError(
                f"C({tied},{k - above}) tie completions exceed the cap of {cap}")
        return set(iter_winning_committees(e, rule, k))
    if rule in (Rule.GAV, Rule.RAV):
        return {frozenset(_thiele_greedy(ballots, e.m, rule, k))}
    values = _committee_values(rule, e.m, k, e.n, cap)
    return {frozenset(_iter_bits(committee))
            for committee in values.committees(values.total(ballots))}


def is_cowinner(e: Election, rule: Rule, k: int, p: int, cap: int = COMMITTEE_ENUM_CAP) -> bool:
    """Does candidate p belong to at least one winning committee?"""
    _check_k(e, k)
    return _is_cowinner_from_ballots(ballot_masks(e), e.m, rule, k, p, cap)


class CertificationError(RuntimeError):
    """A solver's answer failed ``certify``: a fault in the solver."""


def certify(instance: BriberyInstance, rule: Rule, solution: BriberySolution) -> BriberySolution:
    """Return the solution once its witness checks out against the instance.

    The actions must be the instance's operation (toward p when restricted),
    replay on the election's ballot masks, reprice to ``cost`` and make p a
    co-winner there, and ``feasible`` must equal cost <= budget.  A solution
    without a cost has nothing to replay.  Raises ``CertificationError``,
    never through ``assert``, so ``python -O`` keeps the check.
    """
    if solution.cost is None:
        return solution
    e, p = instance.election, instance.p
    for action in solution.actions:
        if action.kind is not instance.op or (instance.restricted_to_p and action.target != p):
            raise CertificationError(f"{action} is outside the instance's operation")
    try:
        ballots = replay_masks(e, solution.actions)
        cost = solution_cost(solution.actions, instance.prices)
    except ElectionError as exc:
        raise CertificationError(f"the actions do not replay: {exc}") from None
    if cost != solution.cost:
        raise CertificationError(f"the actions cost {cost}, not {solution.cost}")
    if not _is_cowinner_from_ballots(ballots, e.m, rule, instance.k, p):
        raise CertificationError("the actions do not make p a co-winner")
    if solution.feasible != (cost <= instance.budget):
        raise CertificationError(f"feasible is {solution.feasible} at cost {cost} "
                                 f"and budget {instance.budget}")
    return solution
