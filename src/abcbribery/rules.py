"""Scores, committees and co-winner tests for six approval-based rules.

AV and SAV are separable score rules; CCAV and PAV are optimization rules
solved exactly by guarded brute force at desk scale; GAV and RAV are greedy
rules made deterministic by breaking round ties toward the lowest candidate
index.

CCAV, PAV, GAV and RAV are Thiele rules: a voter's (t+1)-th approved
committee member is worth w(t), with w = (1, 0, 0, ...) for the coverage
rules and w(t) = 1/(t+1) for the harmonic ones.  One committee scan serves
CCAV and PAV, and one greedy serves GAV and RAV.  Scores are exact integers
inside the package: harmonic weights are scaled by lcm(1..k) and SAV shares
by lcm(1..m).  The public functions return ``Fraction`` values.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import comb, lcm

from .core import (
    Election,
    ElectionError,
    ResourceGuardError,
    _iter_bits,
    approver_masks,
    ballot_masks,
)

COMMITTEE_ENUM_CAP = 10**6


class Rule(Enum):
    AV = "av"
    SAV = "sav"
    CCAV = "ccav"
    GAV = "gav"
    PAV = "pav"
    RAV = "rav"


def _check_k(e: Election, k: int):
    if not 1 <= k <= e.m:
        raise ElectionError(f"committee size {k} out of range 1..{e.m}")


# --- integer kernel over ballot masks, shared with every solver ---------------


def _scale(top: int) -> int:
    """lcm(1..top): the least multiplier making 1/1, ..., 1/top integers."""
    return lcm(*range(1, top + 1))


def _score_shares(rule: Rule, m: int) -> list[int]:
    """Per-candidate share of a ballot approving s candidates, s = 0..m.

    AV gives each approved candidate 1; SAV splits lcm(1..m) equally.
    """
    if rule is Rule.AV:
        return [1] * (m + 1)
    scale = _scale(m)
    return [0] + [scale // s for s in range(1, m + 1)]


def _scores(ballots: list[int], m: int, rule: Rule) -> list[int]:
    """AV counts, or SAV scores scaled by lcm(1..m)."""
    shares = _score_shares(rule, m)
    scores = [0] * m
    for mask in ballots:
        share = shares[mask.bit_count()]
        for c in _iter_bits(mask):
            scores[c] += share
    return scores


def _thiele_weights(rule: Rule, k: int) -> list[int]:
    """w(0..k-1): a voter's gain from its 1st, 2nd, ... approved member.

    Harmonic weights 1/(t+1) are scaled by lcm(1..k), so weights[0] is the
    scale.
    """
    if rule in (Rule.CCAV, Rule.GAV):
        return [1] + [0] * (k - 1)
    scale = _scale(k)
    return [scale // (t + 1) for t in range(k)]


def _satisfaction(rule: Rule, k: int) -> list[int]:
    """A voter's value for approving t = 0..k committee members."""
    return list(itertools.accumulate(_thiele_weights(rule, k), initial=0))


def _committee_value(ballots: list[int], committee: int, satisfaction: list[int]) -> int:
    """Sum over voters of satisfaction[number of approved committee members]."""
    value = 0
    for mask in ballots:
        value += satisfaction[(mask & committee).bit_count()]
    return value


def _committee_scan(ballots: list[int], m: int, rule: Rule, k: int, cap: int):
    """(members, value) for every size-k committee, in lexicographic order."""
    if comb(m, k) > cap:
        raise ResourceGuardError(f"C({m},{k}) committees exceed the cap of {cap}")
    satisfaction = _satisfaction(rule, k)
    for combo in itertools.combinations(range(m), k):
        committee = 0
        for c in combo:
            committee |= 1 << c
        yield combo, _committee_value(ballots, committee, satisfaction)


def _thiele_gains(ballots: list[int], m: int, committee: int, weights: list[int]) -> list[int]:
    """Value gained by adding each candidate to the committee (0 for members)."""
    gains = [0] * m
    for mask in ballots:
        weight = weights[(mask & committee).bit_count()]
        if weight:
            for c in _iter_bits(mask & ~committee):
                gains[c] += weight
    return gains


def _thiele_greedy(ballots: list[int], m: int, rule: Rule, k: int) -> list[int]:
    """Greedy committee as an ordered pick list, ties toward the lowest index."""
    weights = _thiele_weights(rule, k)
    picks: list[int] = []
    committee = 0
    for _ in range(k):
        gains = _thiele_gains(ballots, m, committee, weights)
        for c in picks:
            gains[c] = -1
        best = gains.index(max(gains))
        picks.append(best)
        committee |= 1 << best
    return picks


def _score_cowinner(scores, k: int, p: int) -> bool:
    return sum(1 for s in scores if s > scores[p]) <= k - 1


def _is_cowinner_from_ballots(ballots: list[int], m: int, rule: Rule, k: int, p: int,
                              cap: int = COMMITTEE_ENUM_CAP) -> bool:
    if rule in (Rule.AV, Rule.SAV):
        return _score_cowinner(_scores(ballots, m, rule), k, p)
    if rule in (Rule.GAV, Rule.RAV):
        return p in _thiele_greedy(ballots, m, rule, k)
    best_all = best_with_p = -1
    for combo, value in _committee_scan(ballots, m, rule, k, cap):
        if value > best_all:
            best_all = value
        if value > best_with_p and p in combo:
            best_with_p = value
    return best_with_p == best_all


# --- public scores and committee operations ----------------------------------


def av_scores(e: Election) -> list[int]:
    """Number of approving voters per candidate."""
    return [column.bit_count() for column in approver_masks(e)]


def sav_scores(e: Election) -> list[Fraction]:
    """Each voter splits one point equally among approved candidates."""
    scale = _scale(e.m)
    return [Fraction(s, scale) for s in _scores(ballot_masks(e), e.m, Rule.SAV)]


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


def rav_marginals(e: Election, committee: frozenset[int]) -> list[Fraction]:
    """Harmonic-score gain of adding each candidate to the given committee."""
    weights = _thiele_weights(Rule.RAV, len(committee) + 1)
    gains = _thiele_gains(ballot_masks(e), e.m, sum(1 << c for c in committee), weights)
    return [Fraction(g, weights[0]) for g in gains]


def iter_winning_committees(e: Election, rule: Rule, k: int):
    """Lazily stream the AV or SAV tie-completion family.

    The family can be exponentially large; callers that only need membership
    should use is_cowinner, which never materializes it.
    """
    _check_k(e, k)
    if rule not in (Rule.AV, Rule.SAV):
        raise ValueError("lazy committee streaming applies to the score rules only")
    scores = _scores(ballot_masks(e), e.m, rule)
    cutoff = sorted(scores, reverse=True)[k - 1]
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
        scores = _scores(ballots, e.m, rule)
        cutoff = sorted(scores, reverse=True)[k - 1]
        tied = sum(1 for s in scores if s == cutoff)
        above = sum(1 for s in scores if s > cutoff)
        if comb(tied, k - above) > cap:
            raise ResourceGuardError(
                f"C({tied},{k - above}) tie completions exceed the cap of {cap}")
        return set(iter_winning_committees(e, rule, k))
    if rule in (Rule.GAV, Rule.RAV):
        return {frozenset(_thiele_greedy(ballots, e.m, rule, k))}
    best_value = -1
    best: list[frozenset[int]] = []
    for combo, value in _committee_scan(ballots, e.m, rule, k, cap):
        if value > best_value:
            best_value, best = value, [frozenset(combo)]
        elif value == best_value:
            best.append(frozenset(combo))
    return set(best)


def is_cowinner(e: Election, rule: Rule, k: int, p: int, cap: int = COMMITTEE_ENUM_CAP) -> bool:
    """Does candidate p belong to at least one winning committee?"""
    _check_k(e, k)
    return _is_cowinner_from_ballots(ballot_masks(e), e.m, rule, k, p, cap)
