"""Shared test utilities: deterministic random elections, result shapes, call
counters, the Fraction reference winners and an Election-level certify."""

import itertools
import sys
from fractions import Fraction

from abcbribery import (AtomicAction, BriberySolution, CertificationError, ElectionError, Op, Rule,
                        apply_actions, certify, fpt, is_cowinner, make_election, oracle,
                        solution_cost)
from abcbribery.core import _iter_bits, ballot_masks
from abcbribery.generators import Stream64
from abcbribery.rules import _Tally


def verdict(solution: BriberySolution):
    """Comparable outcome: feasibility plus cost when feasible.

    Kept because solvers may return a witness above the budget where others
    return cost None, so raw (feasible, cost) pairs differ on the same verdict.
    """
    return (solution.feasible, solution.cost if solution.feasible else None)


def random_election(stream: Stream64, m: int, n: int, probability: float = 0.5):
    names = [f"c{i}" for i in range(m)]
    ballots = []
    for v in range(n):
        approved = [names[c] for c in range(m) if stream.chance(probability)]
        ballots.append((f"v{v}", approved))
    return make_election(names, ballots)


def random_sized_election(stream: Stream64, m_max: int, n_max: int, probability: float = 0.5):
    m = stream.randint(2, m_max)
    n = stream.randint(1, n_max)
    return random_election(stream, m, n, probability)


def count_calls(monkeypatch, module, name):
    """Wrap module.name with a call counter; returns the one-element count list."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def count_leaves(monkeypatch):
    """Count the configurations the oracle's searches test: each leaf asks
    the search's own tally ``wins`` or ``cowinners`` once, and tallies built
    outside ``oracle`` are not counted.  Returns the one-element count list."""
    calls = [0]

    class CountedTally(_Tally):
        __slots__ = ()

        def wins(self, p):
            calls[0] += 1
            return super().wins(p)

        def cowinners(self):
            calls[0] += 1
            return super().cowinners()
    monkeypatch.setattr(oracle, "_Tally", CountedTally)
    return calls


def count_certify(monkeypatch):
    """Wrap ``certify`` in every package module that binds it, all with one
    counter, so a solver certifying its own answer counts too."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return certify(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "abcbribery" and getattr(module, "certify", None) is certify:
            monkeypatch.setattr(module, "certify", counted)
    return calls


def fraction_reference(e):
    """AV and SAV scores, CC and PAV committee values, from the definitions."""
    ballots = [b.approved for b in e.ballots]
    av = [sum(c in a for a in ballots) for c in range(e.m)]
    sav = [sum(Fraction(1, len(a)) for a in ballots if c in a) for c in range(e.m)]

    def cc(w):
        return sum(1 for a in ballots if a & w)

    def pav(w):
        return sum(Fraction(1, t) for a in ballots for t in range(1, len(a & w) + 1))
    return av, sav, cc, pav


def reference_greedy(e, rule, k):
    """GAV or RAV pick order: each round the lowest index of maximal gain."""
    _, _, cc, pav = fraction_reference(e)
    objective = cc if rule is Rule.GAV else pav
    picks = []
    for _ in range(k):
        w = frozenset(picks)
        gain = {c: objective(w | {c}) - objective(w) for c in range(e.m) if c not in w}
        picks.append(min(c for c in gain if gain[c] == max(gain.values())))
    return picks


def reference_winners(e, rule, k):
    """The winning committees from the definitions: every committee of maximal
    value for AV, SAV, CCAV and PAV, the greedy's one for GAV and RAV."""
    av, sav, cc, pav = fraction_reference(e)
    if rule in (Rule.GAV, Rule.RAV):
        return {frozenset(reference_greedy(e, rule, k))}
    value = {Rule.AV: lambda w: sum(av[c] for c in w), Rule.SAV: lambda w: sum(sav[c] for c in w),
             Rule.CCAV: cc, Rule.PAV: pav}[rule]
    committees = [frozenset(w) for w in itertools.combinations(range(e.m), k)]
    best = max(map(value, committees))
    return {w for w in committees if value(w) == best}


def reference_type_enum(instance, rule, *, canonical=False):
    """``fpt.unpriced_type_enum`` as a plain loop, with no guard: every action
    set by size, each size in ``itertools.combinations`` order, tested on a
    tally moved to the set's ballots and back; the first winning set is the
    answer.  A set holding two swaps that clash in one vote is skipped.

    With ``canonical`` the loop takes the walk's restriction: under the rules
    of ``fpt._INTERCHANGEABLE`` each vote lacking p lists its actions
    targeting p first, and a set that changes such a vote without giving it
    p is skipped."""
    e, p, n = instance.election, instance.p, instance.election.n
    interchangeable = rule in fpt._INTERCHANGEABLE
    if interchangeable:
        pool = fpt._type_pool(e, p)
        cap = min(instance.budget, n - 1)
    else:
        pool = set(range(e.m))
        cap = instance.budget
    base = ballot_masks(e)
    sources = sum(1 << c for c in pool)
    targets = 1 << p if instance.restricted_to_p else sources
    needs_p = {v for v in range(n) if canonical and interchangeable and not base[v] >> p & 1}
    cells = []
    for v in range(n):
        if instance.op is Op.ADD:
            vote = [(v, None, t) for t in _iter_bits(targets & ~base[v])]
        else:
            vote = [(v, s, t) for s in _iter_bits(sources & base[v])
                    for t in _iter_bits(targets & ~base[v])]
        if v in needs_p:
            vote.sort(key=lambda cell: cell[2] != p)  # stable: p's cells move up
        cells += vote
    flips = [(v, (0 if s is None else 1 << s) | 1 << t) for v, s, t in cells]
    tally = _Tally(base, e.m, rule, instance.k)
    for size in range(min(cap, len(cells)) + 1):
        for chosen in itertools.combinations(range(len(cells)), size):
            changed = {}
            for i in chosen:
                v, flip = flips[i]
                mask = changed.get(v, base[v])
                if (mask ^ base[v]) & flip:
                    break
                changed[v] = mask ^ flip
            else:
                if any(v in needs_p and not mask >> p & 1 for v, mask in changed.items()):
                    continue
                for v, mask in changed.items():
                    tally.set(v, mask)
                won = tally.wins(p)
                for v in changed:
                    tally.set(v, base[v])
                if won:
                    actions = tuple(AtomicAction(instance.op, *cells[i]) for i in chosen)
                    return BriberySolution(actions, size, True)
    if interchangeable and instance.budget >= n:
        actions = fpt._approve_p_everywhere(e, p, instance.op)
        return certify(instance, rule, BriberySolution(actions, len(actions), True))
    return BriberySolution((), None, False)


def election_certify(instance, rule, solution):
    """``certify`` on elections: the same checks in the same order, with the
    replay through ``apply_actions`` and the co-winner test through
    ``is_cowinner``."""
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
