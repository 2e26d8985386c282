"""Shared test utilities: deterministic random elections, result shapes and call counters."""

from abcbribery import BriberySolution, make_election
from abcbribery.generators import Stream64


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
