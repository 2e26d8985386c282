import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcbribery import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    ElectionError,
    InfeasibleActionError,
    InvalidActionError,
    Op,
    ParseError,
    PriceTable,
    apply_actions,
    make_election,
    parse_election,
    parse_solution,
    serialize_election,
    solution_cost,
)
from abcbribery import core
from abcbribery.core import format_action
from abcbribery.rules import av_scores

from helpers import random_sized_election
from abcbribery.generators import Stream64


def test_parse_e0(e0_text, e0):
    election, prices, k = parse_election(e0_text)
    assert election == e0
    assert k == 2
    assert av_scores(election) == [7, 5, 4, 1]
    assert prices == PriceTable()


def test_parse_no_voters():
    election, _, k = parse_election("candidates: a b\n")
    assert election.n == 0
    assert k is None
    assert av_scores(election) == [0, 0]


def test_parse_price_override(e0_text):
    election, prices, _ = parse_election(e0_text + "swapprice v1 b p 5\n")
    assert prices.swap_price(0, 1, 3) == 5
    assert prices.swap_price(0, 1, 2) == 1
    assert prices.add_price(0, 3) == 1


def test_parse_inf_price(e0_text):
    _, prices, _ = parse_election(e0_text + "addprice v1 p inf\n")
    assert prices.add_price(0, 3) == FORBIDDEN


@pytest.mark.parametrize(
    "text,line",
    [
        ("candidates: a a b\n", 1),
        ("candidates: a b\nvoter v1: a\nvoter v1: b\n", 3),
        ("candidates: a b\nvoter v1: a z\n", 2),
        ("candidates: a b\nvoter v1: a\naddprice v1 z 2\n", 3),
        ("candidates: a b\nvoter v1: a\naddprice v2 a 2\n", 3),
        ("candidates: a b\nvoter v1: a\naddprice v1 a -2\n", 3),
        ("candidates: a b\nnonsense line\n", 2),
        ("candidates: a b\nk: zero\n", 2),
        ("voter v1: a\n", 1),
    ],
)
def test_parse_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_election(text)
    assert err.value.line_no == line


@pytest.mark.parametrize("text, message", [
    ("candidates: a b\ncandidates: c\n", "line 2: duplicate candidates line"),
    ("candidates: a b\nk: 0\n", "line 2: committee size must be at least 1"),
    ("candidates: a b\nk: 3\n", "line 1: committee size 3 exceeds number of candidates 2"),
    ("candidates: a b\nvoter v1 a\n", "line 2: voter line needs ':'"),
    ("candidates: a b\nvoter : a\n", "line 2: bad voter name ''"),
    ("candidates: a b\nvoter v1: a\naddprice v1 b x\n", "line 3: bad price 'x'"),
    ("candidates: a b\nvoter v1: a\nswapprice v1 a z 1\n", "line 3: unknown candidate 'z'"),
    ("k: 1\n", "line 1: missing candidates line"),
    ("", "line 1: missing candidates line"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_election(text)
    assert str(err.value) == message


def test_parse_rejects_candidate_names_that_are_not_tokens():
    # The candidates line splits on whitespace, so only ':' can slip through;
    # the Candidate check refuses it.
    with pytest.raises(ElectionError, match="^candidate name must be a plain token: 'a:b'$"):
        parse_election("candidates: a:b c\n")


def test_token_whitespace_is_str_isspace():
    # The token pattern's \s must refuse exactly what str.isspace() calls
    # whitespace, over every code point.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", every)) == {ch for ch in every if ch.isspace()}
    for ch in ("a", "\u00e9", "\u3000", "\x1c", "\u200b", ":", "#"):
        assert bool(core._is_token(f"v{ch}1")) == (not ch.isspace() and ch not in ":#")


def test_apply_swap_e0(e0):
    swapped = apply_actions(e0, [AtomicAction(Op.SWAP, 5, source=2, target=3)])
    assert swapped.ballots[5].approved == frozenset({0, 3})
    # only the changed ballot is rebuilt
    assert all(after is before for v, (before, after) in enumerate(zip(e0.ballots, swapped.ballots))
               if v != 5)
    assert av_scores(swapped) == [7, 5, 3, 2]
    # original untouched
    assert av_scores(e0) == [7, 5, 4, 1]


def test_apply_add_existing_is_error(e0):
    with pytest.raises(InvalidActionError):
        apply_actions(e0, [AtomicAction(Op.ADD, 0, target=0)])


def test_apply_double_delete(e0):
    cur = apply_actions(
        e0,
        [
            AtomicAction(Op.DELETE, 1, source=1),
            AtomicAction(Op.DELETE, 1, source=2),
        ],
    )
    assert cur.ballots[1].approved == frozenset()
    scores = av_scores(cur)
    assert scores[1] == 4 and scores[2] == 3


def test_apply_swap_preconditions(e0):
    with pytest.raises(InvalidActionError):
        apply_actions(e0, [AtomicAction(Op.SWAP, 2, source=1, target=3)])  # v3 lacks b
    with pytest.raises(InvalidActionError):
        apply_actions(e0, [AtomicAction(Op.SWAP, 6, source=1, target=3)])  # v7 has p


@pytest.mark.parametrize("action", [
    AtomicAction(Op.ADD, 0, target=-2),
    AtomicAction(Op.DELETE, 0, source=-1),
    AtomicAction(Op.SWAP, 0, source=-3, target=1),
    AtomicAction(Op.SWAP, 0, source=0, target=3),
])
def test_apply_rejects_candidate_index_out_of_range(action):
    # Negative indices are refused too, not read from the end of the list.
    e = make_election(["a", "b", "c"], [("v1", ["a", "c"])])
    bad = action.target if action.kind is Op.ADD or action.target == 3 else action.source
    with pytest.raises(InvalidActionError, match=f"^no candidate with index {bad}$"):
        apply_actions(e, [action])


def test_apply_actions_reports_the_failing_action(e0):
    # A replay checks each action against the state the earlier ones left
    # behind, as one-at-a-time replays do: the third action fails, and the
    # error carries its 1-based position.
    actions = [AtomicAction(Op.DELETE, 1, source=1), AtomicAction(Op.ADD, 2, target=3),
               AtomicAction(Op.SWAP, 1, source=1, target=3), AtomicAction(Op.ADD, 0, target=3)]
    with pytest.raises(InvalidActionError, match="^v2 does not approve b$") as failed:
        apply_actions(e0, actions)
    assert failed.value.position == 3
    cur = e0
    with pytest.raises(InvalidActionError, match="^v2 does not approve b$") as failed:
        for a in actions:
            cur = apply_actions(cur, [a])
    assert failed.value.position == 1
    assert cur == apply_actions(e0, actions[:2])
    with pytest.raises(InvalidActionError, match="^no voter with index -1$") as failed:
        apply_actions(e0, actions[:1] + [AtomicAction(Op.ADD, -1, target=3)])
    assert failed.value.position == 2


def test_solution_cost_unit_and_priced(e0):
    swaps = [
        AtomicAction(Op.SWAP, 0, source=1, target=3),
        AtomicAction(Op.SWAP, 1, source=1, target=3),
        AtomicAction(Op.SWAP, 5, source=2, target=3),
    ]
    assert solution_cost(swaps, PriceTable()) == 3
    assert solution_cost([], PriceTable()) == 0
    priced = PriceTable(add={(0, 3): 4, (1, 3): 7})
    adds = [AtomicAction(Op.ADD, 0, target=3), AtomicAction(Op.ADD, 1, target=3)]
    assert solution_cost(adds, priced) == 11


def test_solution_cost_forbidden(e0):
    prices = PriceTable(add={(0, 3): FORBIDDEN})
    with pytest.raises(InfeasibleActionError):
        solution_cost([AtomicAction(Op.ADD, 0, target=3)], prices)


def test_instance_validation(e0):
    with pytest.raises(ElectionError):
        BriberyInstance(e0, 3, 2, 3, Op.DELETE, restricted_to_p=True)
    with pytest.raises(ElectionError):
        BriberyInstance(e0, 3, 0, 3, Op.ADD)
    with pytest.raises(ElectionError):
        BriberyInstance(e0, 3, 2, -1, Op.ADD)
    with pytest.raises(ElectionError):
        BriberyInstance(e0, 3, 2, 3, Op.ADD, priced=False,
                        prices=PriceTable(add={(0, 3): 2}))


def test_price_validation():
    with pytest.raises(ElectionError):
        PriceTable(add={(0, 0): -1})
    with pytest.raises(ElectionError):
        PriceTable(swap={(0, 0, 1): 1.5})


def test_solution_roundtrip(e0):
    actions = [
        AtomicAction(Op.SWAP, 0, source=1, target=3),
        AtomicAction(Op.ADD, 2, target=3),
        AtomicAction(Op.DELETE, 1, source=1),
    ]
    text = "\n".join(["# witness"] + [format_action(e0, a) for a in actions])
    assert parse_solution(text, e0) == actions


def test_parse_solution_errors(e0):
    with pytest.raises(ParseError):
        parse_solution("add v1\n", e0)
    with pytest.raises(ParseError):
        parse_solution("add v1 zz\n", e0)


# --- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_roundtrip_serialize_parse(seed):
    stream = Stream64(seed)
    e = random_sized_election(stream, 6, 6)
    parsed, _, _ = parse_election(serialize_election(e))
    assert parsed == e


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_swap_preserves_ballot_sizes(seed):
    stream = Stream64(seed)
    e = random_sized_election(stream, 5, 5)
    v = stream.randint(0, e.n - 1)
    approved = e.ballots[v].approved
    outside = [c for c in range(e.m) if c not in approved]
    if not approved or not outside:
        return
    source = sorted(approved)[stream.randint(0, len(approved) - 1)]
    target = outside[stream.randint(0, len(outside) - 1)]
    swapped = apply_actions(e, [AtomicAction(Op.SWAP, v, source=source, target=target)])
    for before, after in zip(e.ballots, swapped.ballots):
        assert len(before.approved) == len(after.approved)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_add_then_delete_restores(seed):
    stream = Stream64(seed)
    e = random_sized_election(stream, 5, 5)
    v = stream.randint(0, e.n - 1)
    outside = [c for c in range(e.m) if c not in e.ballots[v].approved]
    if not outside:
        return
    c = outside[stream.randint(0, len(outside) - 1)]
    back = apply_actions(
        e, [AtomicAction(Op.ADD, v, target=c), AtomicAction(Op.DELETE, v, source=c)]
    )
    assert back == e


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), count=st.integers(0, 8))
def test_unit_cost_counts_actions(seed, count):
    stream = Stream64(seed)
    e = random_sized_election(stream, 5, 5)
    actions = []
    cur = e
    for _ in range(count):
        v = stream.randint(0, cur.n - 1)
        outside = [c for c in range(cur.m) if c not in cur.ballots[v].approved]
        if not outside:
            continue
        c = outside[stream.randint(0, len(outside) - 1)]
        a = AtomicAction(Op.ADD, v, target=c)
        cur = apply_actions(cur, [a])
        actions.append(a)
    assert solution_cost(actions, PriceTable()) == len(actions)


def test_solution_contract():
    add = AtomicAction(Op.ADD, 0, target=3)
    BriberySolution((), None, False)
    BriberySolution((add,), 5, False)  # a witness above the budget is legal
    for actions, cost, feasible in [((add,), None, False), ((), None, True),
                                    ((), -1, False), ((), True, True), ((), 1.0, True)]:
        with pytest.raises(ElectionError):
            BriberySolution(actions, cost, feasible)


# Each check a constructor or lookup makes on its input.
_ONE = (core.Candidate(0, "a"),)


@pytest.mark.parametrize("build, message", [
    (lambda: core.ApprovalBallot("v 1", frozenset()), "voter name must be a plain token: 'v 1'"),
    (lambda: core.Election((core.Candidate(0, "a"), core.Candidate(1, "a")), ()),
     "duplicate candidate names"),
    (lambda: core.Election((core.Candidate(1, "a"),), ()), "candidate a has index 1, expected 0"),
    (lambda: core.Election(_ONE, (core.ApprovalBallot("v", frozenset()),) * 2),
     "duplicate voter names"),
    (lambda: core.Election(_ONE, (core.ApprovalBallot("v", frozenset({1})),)),
     "ballot v approves unknown candidate index 1"),
    (lambda: make_election(["a"], [("v", [])]).voter_index("w"), "unknown voter: w"),
    (lambda: make_election(["a"], [("v", ["b"])]), "ballot v approves unknown candidate 'b'"),
    (lambda: AtomicAction(Op.ADD, 0, source=0, target=1), "Add action needs a target and no source"),
    (lambda: AtomicAction(Op.DELETE, 0, target=1), "Delete action needs a source and no target"),
    (lambda: AtomicAction(Op.SWAP, 0, source=1, target=1),
     "Swap action needs distinct source and target"),
    (lambda: BriberyInstance(make_election(["a"], []), 1, 1, 0, Op.ADD),
     "preferred candidate index 1 out of range"),
], ids=["ballot-name", "duplicate-candidates", "candidate-index", "duplicate-voters",
        "unknown-index", "unknown-voter", "unknown-candidate", "add-shape", "delete-shape",
        "swap-shape", "p-range"])
def test_input_checks(build, message):
    with pytest.raises(ElectionError, match=f"^{re.escape(message)}$"):
        build()
