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

Every co-winner question goes through one kernel on ballot bitmasks,
``_cowinner_mask``, which returns the set of candidates belonging to some
winning committee as a bitmask, so one call answers for every candidate.
CCAV and PAV scan a table of all size-k committee bitmasks, built once per
(m, k) after the committee cap is checked and kept in a small LRU cache; the
committees tied for the best value are unioned.  GAV and RAV run one greedy
on candidate columns (approver bitmasks): ``levels[t]`` holds the voters with
exactly t committee members, and a candidate gains w(t) per approver at
level t.  AV and SAV compare scores.

``certify`` reruns the kernel on a solver's answer: every answer ``solve``
returns has passed it.
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
    apply_actions,
    approver_masks,
    ballot_masks,
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


def _scores(ballots: list[int], m: int, rule: Rule) -> list[int]:
    """AV counts, or SAV scores scaled by lcm(1..m)."""
    shares = _score_shares(rule, m)
    scores = [0] * m
    for mask in ballots:
        share = shares[mask.bit_count()]
        for c in _iter_bits(mask):
            scores[c] += share
    return scores


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


def _optimal_committees(ballots: list[int], m: int, rule: Rule, k: int, cap: int) -> list[int]:
    """Bitmasks of the size-k committees of maximal value (CCAV, PAV)."""
    if comb(m, k) > cap:
        raise ResourceGuardError(f"C({m},{k}) committees exceed the cap of {cap}")
    satisfaction = _satisfaction(rule, k)
    best_value = -1
    best: list[int] = []
    for committee in _committee_table(m, k):
        value = 0
        for mask in ballots:
            value += satisfaction[(mask & committee).bit_count()]
        if value > best_value:
            best_value, best = value, [committee]
        elif value == best_value:
            best.append(committee)
    return best


def _level_gains(columns: list[int], levels: list[int], weights: tuple[int, ...]) -> list[int]:
    """Each candidate's gain: w(t) times its approvers at level t, summed over t.

    ``levels[t]`` holds the voters approving exactly t committee members.
    """
    gains = [0] * len(columns)
    for w, level in zip(weights, levels):
        if w and level:
            gains = [gain + w * (column & level).bit_count()
                     for gain, column in zip(gains, columns)]
    return gains


def _thiele_gains(ballots: list[int], m: int, committee: int,
                  weights: tuple[int, ...]) -> list[int]:
    """Value gained by adding each candidate to the committee (0 for members)."""
    levels = [0] * len(weights)
    for v, mask in enumerate(ballots):
        levels[(mask & committee).bit_count()] |= 1 << v
    gains = _level_gains(_transpose(ballots, m), levels, weights)
    for c in _iter_bits(committee):
        gains[c] = 0
    return gains


def _greedy_picks(columns: list[int], rule: Rule, k: int) -> list[int]:
    """Greedy pick list over candidate columns (approver masks), ties toward
    the lowest index.  Rounds with no gain still pick, the lowest free index.
    """
    weights = _thiele_weights(rule, k)
    # Voters past the last nonzero weight gain nothing more: for the coverage
    # rules only level 0, the uncovered voters, is kept.
    depth = len(weights) - weights.count(0)
    levels = [0]
    for column in columns:
        levels[0] |= column
    picks: list[int] = []
    for _ in range(k):
        gains = _level_gains(columns, levels, weights)
        for c in picks:
            gains[c] = -1
        best = gains.index(max(gains))
        picks.append(best)
        column = columns[best]
        moved = 0
        for t, level in enumerate(levels):
            levels[t] = (level & ~column) | moved
            moved = level & column
        if len(levels) < depth:
            levels.append(moved)
    return picks


def _thiele_greedy(ballots: list[int], m: int, rule: Rule, k: int) -> list[int]:
    """Greedy committee as an ordered pick list, ties toward the lowest index."""
    return _greedy_picks(_transpose(ballots, m), rule, k)


def _score_cowinner(scores, k: int, p: int) -> bool:
    return sum(1 for s in scores if s > scores[p]) <= k - 1


def _cowinner_mask(ballots: list[int], m: int, rule: Rule, k: int,
                   cap: int = COMMITTEE_ENUM_CAP) -> int:
    """Bitmask of every candidate belonging to some winning committee."""
    if rule in (Rule.AV, Rule.SAV):
        scores = _scores(ballots, m, rule)
        cutoff = sorted(scores, reverse=True)[k - 1]
        return sum(1 << c for c, s in enumerate(scores) if s >= cutoff)
    if rule in (Rule.GAV, Rule.RAV):
        return sum(1 << c for c in _thiele_greedy(ballots, m, rule, k))
    mask = 0
    for committee in _optimal_committees(ballots, m, rule, k, cap):
        mask |= committee
    return mask


def _is_cowinner_from_ballots(ballots: list[int], m: int, rule: Rule, k: int, p: int,
                              cap: int = COMMITTEE_ENUM_CAP) -> bool:
    if rule in (Rule.AV, Rule.SAV):
        return _score_cowinner(_scores(ballots, m, rule), k, p)
    return bool(_cowinner_mask(ballots, m, rule, k, cap) >> p & 1)


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
    return {frozenset(_iter_bits(committee))
            for committee in _optimal_committees(ballots, e.m, rule, k, cap)}


def is_cowinner(e: Election, rule: Rule, k: int, p: int, cap: int = COMMITTEE_ENUM_CAP) -> bool:
    """Does candidate p belong to at least one winning committee?"""
    _check_k(e, k)
    return _is_cowinner_from_ballots(ballot_masks(e), e.m, rule, k, p, cap)


class CertificationError(RuntimeError):
    """A solver's answer failed ``certify``: a fault in the solver."""


def certify(instance: BriberyInstance, rule: Rule, solution: BriberySolution) -> BriberySolution:
    """Return the solution once its witness checks out against the instance.

    The actions must be the instance's operation (toward p when restricted),
    replay on the election, reprice to ``cost`` and make p a co-winner, and
    ``feasible`` must equal cost <= budget.  A solution without a cost has
    nothing to replay.  Raises ``CertificationError``, never through
    ``assert``, so ``python -O`` keeps the check.
    """
    if solution.cost is None:
        return solution
    p = instance.p
    for action in solution.actions:
        if action.kind is not instance.op or (instance.restricted_to_p and action.target != p):
            raise CertificationError(f"{action} is outside the instance's operation")
    try:
        final = apply_actions(instance.election, solution.actions)
        cost = solution_cost(solution.actions, instance.prices)
    except ElectionError as exc:
        raise CertificationError(f"the actions do not replay: {exc}") from None
    if cost != solution.cost:
        raise CertificationError(f"the actions cost {cost}, not {solution.cost}")
    if not is_cowinner(final, rule, instance.k, p):
        raise CertificationError("the actions do not make p a co-winner")
    if solution.feasible != (cost <= instance.budget):
        raise CertificationError(f"feasible is {solution.feasible} at cost {cost} "
                                 f"and budget {instance.budget}")
    return solution
