from fractions import Fraction

import pytest

from abcbribery import (
    AtomicAction,
    BriberyInstance,
    ElectionError,
    Op,
    Rule,
    apply_actions,
    av_scores,
    is_cowinner,
    parse_election,
    sav_scores,
    serialize_election,
)
from abcbribery.avbribery import av_priced_swap_exact
from abcbribery.generators import (
    Graph,
    Stream64,
    SuiteConfig,
    X3CInstance,
    _draw_election,
    cubic_graphs,
    exact_cover_exists,
    gen_is_to_av_swap,
    gen_random_election,
    gen_x3c_to_sav_swap,
    independent_set_exists,
    suite_instances,
)
from abcbribery.oracle import oracle_bribery

from helpers import random_election, random_sized_election

K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))

# No two of these six triples are disjoint with complementary union, so no
# exact cover exists; every element appears in exactly three of them.
X3C_NO = X3CInstance(2, (
    frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 4, 5}),
    frozenset({1, 4, 5}), frozenset({2, 3, 4}), frozenset({2, 3, 5})))


def test_random_election_determinism():
    assert gen_random_election(5, 5, 0.5, 42) == gen_random_election(5, 5, 0.5, 42)
    assert gen_random_election(5, 5, 0.5, 42) != gen_random_election(5, 5, 0.5, 43)


def test_random_election_extremes():
    empty = gen_random_election(3, 4, 0.0, 7)
    assert all(not b.approved for b in empty.ballots)
    full = gen_random_election(3, 4, 1.0, 7)
    assert all(b.approved == frozenset({0, 1, 2}) for b in full.ballots)


def test_random_election_validation():
    with pytest.raises(ElectionError):
        gen_random_election(0, 3, 0.5, 1)
    with pytest.raises(ElectionError):
        gen_random_election(3, 3, 1.5, 1)


def test_draw_matches_the_reference_coins():
    # One coin per (voter, candidate) pair, voter by voter, as the
    # name-based reference draws them; the streams end in the same state.
    shapes = Stream64(2024)
    for seed in range(5_000):
        m, n = shapes.randint(1, 8), shapes.randint(0, 8)
        probability = (0.0, 0.22, 0.3, 0.5, 0.75, 1.0)[seed % 6]
        ours, theirs = Stream64(seed), Stream64(seed)
        assert _draw_election(ours, m, n, probability) == random_election(theirs, m, n, probability)
        assert ours.state == theirs.state


def _reference_suite(cfg):
    """suite_instances with the election drawn by the test reference."""
    for index in range(cfg.count):
        stream = Stream64(cfg.seed * 1_000_003 + index)
        e = random_sized_election(stream, cfg.max_candidates, cfg.max_voters,
                                  cfg.approval_probability)
        k, p, budget = stream.randint(1, e.m), stream.randint(0, e.m - 1), \
            stream.randint(0, cfg.max_budget)
        add, delete, swap = {}, {}, {}
        if cfg.priced:
            for v in range(e.n):
                for c in range(e.m):
                    add[(v, c)] = stream.choice(cfg.price_choices)
                    delete[(v, c)] = stream.choice(cfg.price_choices)
                    for d in range(e.m):
                        if c != d:
                            swap[(v, c, d)] = stream.choice(cfg.price_choices)
        yield (e, p, k, budget, cfg.op, cfg.priced, cfg.restricted_to_p, add, delete, swap)


@pytest.mark.parametrize("op", list(Op))
@pytest.mark.parametrize("priced", [False, True])
def test_suite_instances_unchanged(op, priced):
    cfg = SuiteConfig(op=op, count=200, seed=31 + priced, priced=priced,
                      restricted_to_p=op is not Op.DELETE, approval_probability=0.4)
    got = [(i.election, i.p, i.k, i.budget, i.op, i.priced, i.restricted_to_p,
            i.prices.add, i.prices.delete, i.prices.swap) for i in suite_instances(cfg)]
    assert got == list(_reference_suite(cfg))


def test_stream_is_stable():
    # pinned output of the versioned LCG; a change here breaks suite replays
    stream = Stream64(1)
    assert [stream.bits(8) for _ in range(4)] == [66, 168, 193, 206]


def test_cubic_graph_counts():
    # 1, 2 and 6 isomorphism classes (the 8-vertex count includes the
    # disconnected pair of K4s); cross-checked against a brute-force
    # enumeration of labeled graphs during development
    assert len(cubic_graphs(4)) == 1
    assert len(cubic_graphs(6)) == 2
    assert len(cubic_graphs(8)) == 6
    assert cubic_graphs(5) == []
    assert all(g.is_cubic() for g in cubic_graphs(6))


def test_is_reduction_shape_and_scores():
    inst = gen_is_to_av_swap(K4, 1)
    e = inst.election
    assert e.m == 5 and e.n == 9  # 6 edge voters + 3h big voters
    assert inst.k == 4 and inst.budget == 3
    scores = av_scores(e)
    assert scores[inst.p] == 0
    assert all(s == 3 + 3 * 1 for c, s in enumerate(scores) if c != inst.p)


def test_is_reduction_big_voter_prices():
    inst = gen_is_to_av_swap(K4, 1)
    big_voter = 6  # first of the z voters
    assert inst.prices.swap_price(big_voter, 1, 0) == 4
    assert inst.prices.swap_price(0, 1, 0) == 1


def test_is_reduction_rejects_non_cubic():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ElectionError):
        gen_is_to_av_swap(path, 1)
    with pytest.raises(ElectionError):
        gen_is_to_av_swap(K4, 0)


def test_is_reduction_yes_instance():
    inst = gen_is_to_av_swap(K4, 1)
    assert independent_set_exists(K4, 1)
    sol = oracle_bribery(inst, Rule.AV)
    assert sol.feasible and sol.cost == 3


def test_is_reduction_no_instance():
    assert not independent_set_exists(K4, 2)
    inst = gen_is_to_av_swap(K4, 2)
    assert not av_priced_swap_exact(inst).feasible


def test_x3c_validation():
    with pytest.raises(ElectionError):
        X3CInstance(1, (frozenset({0, 1, 2}),) * 2)
    with pytest.raises(ElectionError):
        X3CInstance(1, (frozenset({0, 1, 2}), frozenset({0, 1, 2}), frozenset({0, 1, 3})))


def test_x3c_reduction_counts_and_scores():
    x = X3CInstance(1, (frozenset({0, 1, 2}),) * 3)
    inst = gen_x3c_to_sav_swap(x, 1)
    e = inst.election
    n, N = 1, 27 * 2
    assert e.n == 3 * n + n * (N + 3 * n) - 1 + 10 * n * N == 599
    assert e.m == 3 * n + N + 1
    assert inst.k == N + 2 * n + 1 and inst.budget == 3 * n
    scores = sav_scores(e)
    assert scores[inst.p] == 0
    for j in range(3 * n):
        assert scores[j] == 1 + n - Fraction(1, N + 3 * n)
    assert all(scores[3 * n + d] >= 10 * n for d in range(N))


def test_x3c_yes_instance_constructive_solution():
    x = X3CInstance(1, (frozenset({0, 1, 2}),) * 3)
    assert exact_cover_exists(x)
    inst = gen_x3c_to_sav_swap(x, 1)
    e = inst.election
    swaps = [AtomicAction(Op.SWAP, v, source=0, target=inst.p) for v in range(3)]
    assert is_cowinner(apply_actions(e, swaps), Rule.SAV, inst.k, inst.p)
    assert not is_cowinner(e, Rule.SAV, inst.k, inst.p)


def test_x3c_no_instance_score_audit():
    """For the frozen no-cover family, the construction's arithmetic shows p
    loses even after alpha times the budget in swaps.

    At most n - 1 set candidates can lose all their element voters (a full
    strip of n sets would be an exact cover), every other set candidate keeps
    at least 1/3 + (n(N+3n) - 1 - 3an) shares, and dummies stay near 10n, so
    fewer than n candidates score below p.
    """
    alpha = 1
    n = X3C_NO.n
    assert not exact_cover_exists(X3C_NO)
    inst = gen_x3c_to_sav_swap(X3C_NO, alpha)
    N = 27 * (alpha * n + 1)
    p_best = n + Fraction(3 * alpha * n - 3 * n, N)
    kept_set_min = Fraction(1, 3) + (n * (N + 3 * n) - 1 - 3 * alpha * n) * Fraction(1, N + 3 * n)
    dummy_min = 10 * n - Fraction(3 * alpha * n, N)
    bar = n + Fraction(1, 9)
    assert p_best < bar < kept_set_min
    assert bar < dummy_min
    # below p: at most the n-1 fully stripped sets; everyone else stays above
    m = inst.election.m
    strictly_above = (m - 1) - (n - 1)
    assert strictly_above > inst.k - 1


def test_gen_emits_parseable_files():
    inst = gen_is_to_av_swap(K4, 1)
    text = serialize_election(inst.election, inst.prices, k=inst.k)
    parsed, prices, k = parse_election(text)
    assert parsed == inst.election
    assert k == inst.k
    assert prices.swap == inst.prices.swap


@pytest.mark.parametrize("build, message", [
    (lambda: gen_random_election(2, -1, 0.5, 1), "voter count must be nonnegative"),
    (lambda: Graph(3, ((1, 1),)), r"bad edge \(1, 1\)"),
    (lambda: Graph(3, ((0, 1), (0, 1))), r"duplicate edge \(0, 1\)"),
    (lambda: X3CInstance(1, (frozenset({0, 1}),) * 3), "every set must have exactly three elements"),
    (lambda: X3CInstance(2, (frozenset({0, 1, 2}),) * 3 + (frozenset({3, 4, 5}),) * 2
                         + (frozenset({0, 4, 5}),)),
     "every element must belong to exactly three sets"),
    (lambda: gen_x3c_to_sav_swap(X3CInstance(1, (frozenset({0, 1, 2}),) * 3), 0),
     "alpha must be a positive integer"),
], ids=["voters", "bad-edge", "duplicate-edge", "set-size", "element-count", "alpha"])
def test_input_checks(build, message):
    with pytest.raises(ElectionError, match=f"^{message}$"):
        build()
