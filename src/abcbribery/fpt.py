"""Bribery solvers whose running time is governed by the number of voters.

Four families.  Restricted additions run the oracle's cost-level search,
each voter keeping its ballot or gaining p.  Priced swaps toward the
preferred candidate p build options for that search: each voter keeps its
ballot or swaps one donor to p, the donors drawn from per-type-pair cheapest
pools.  Unit-price additions and swaps enumerate action sets over
type-restricted candidate pools.  Priced additions and deletions under the
coverage rules run the oracle for GAV, and for CCAV past four voters; CCAV
with at most four voters sweeps cost levels over partial candidate-to-type
assignments, each candidate's types built by the oracle's add/delete option
builder.  A CCAV state (candidates assigned, types present, p's type) is
expanded once, at its cheapest cost, and a set of types is scored once.
Each search refuses only on the work it does: the configurations the
oracle's walk visits, the action sets of each size enumerated, the CCAV
states expanded.

The type enumeration tests each candidate action set by flipping bits of the
ballot bitmasks; no ``Election`` is built per set, and actions are built only
for the set it returns.  No leaf re-derives the election: the solve builds
one ``rules._Tally`` of the base election, and a depth-first walk over the
action indices moves it from one action straight to the next action of the
same voter, restoring a voter only when the walk leaves it, so a set costs one
move and one ``wins``.  For CCAV and PAV that is one AND of the best committee
lanes with p's member lanes.

Under AV, SAV, CCAV and PAV the walk tests only canonical sets: those in
which every changed vote lacking p gains p.  In a final ballot B lacking p,
replacing an approved t by p lowers no committee holding p and raises no
other committee, so a co-winner p stays one.  Rewritten so, a
winning set becomes a canonical winning set of the same size, and the
optimum is unchanged; only the witness returned can differ.  GAV's and
RAV's greedy tie-breaks void the lemma (a trade for p can push p out of the
greedy committee), so their walk tests every set.

The classic pool restrictions (n representatives per type) are sound for
rules that treat same-type candidates interchangeably, which holds for the
score and coverage rules here.  The deterministic lowest-index tie-break of
GAV and RAV makes membership index-dependent, so for those two the pools are
not restricted, and GAV's coverage bribery searches final elections in the
oracle instead of type sets.
"""

from __future__ import annotations

import heapq
import itertools
from math import comb

from .core import (
    FORBIDDEN,
    AtomicAction,
    BriberyInstance,
    BriberySolution,
    Election,
    Op,
    ResourceGuardError,
    _iter_bits,
    _transpose,
    approver_masks,
    ballot_masks,
)
from .core import apply_actions  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .flows import min_cost_flow_lb  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .oracle import _cellwise_options, _cheapest, _vote_options, _witness, oracle_bribery
from .rules import Rule, _Tally, is_cowinner

ENUM_CAP = 2_000_000
SWEEP_VOTER_CAP = 4

_INTERCHANGEABLE = frozenset({Rule.AV, Rule.SAV, Rule.CCAV, Rule.PAV})


def add_for_p_subset_enum(instance: BriberyInstance, rule: Rule) -> BriberySolution:
    """Exact optimum for adding approvals for p: try every voter subset.

    This is the oracle's restricted-add search: each eligible voter keeps its
    ballot or gains p, and the subsets are visited cheapest first, under the
    oracle's guard on the configurations visited.  The answer is
    uncertified; ``solve`` certifies.
    """
    if instance.op is not Op.ADD:
        raise ValueError("subset enumeration handles additions only")
    if not instance.restricted_to_p:
        raise ValueError("subset enumeration handles adding approvals for p only")
    return oracle_bribery(instance, rule)


def _type_pool(e: Election, p: int) -> set[int]:
    """The n lowest-index candidates of each type, plus p."""
    groups: dict[int, list[int]] = {}
    for c, approvals in enumerate(approver_masks(e)):
        groups.setdefault(approvals, []).append(c)  # members in ascending order
    pool = {p}
    for members in groups.values():
        pool.update(members[: e.n])
    return pool


def unpriced_type_enum(instance: BriberyInstance, rule: Rule, *,
                       enum_cap: int = ENUM_CAP) -> BriberySolution:
    """Exact optimum for unit-price additions or swaps.

    With a budget of at least n the answer is trivially feasible for rules
    with interchangeable same-type candidates: give p an approval in every
    vote lacking one (for swaps, in every nonempty such vote) and unanimity
    does the rest.  Below that, action sets are enumerated over a pool of at
    most n candidates per type.  GAV and RAV drop both shortcuts.

    Sets are visited by size, each size in lexicographic order of the action
    indices, after the size's count is checked against ``enum_cap``.  The
    walk moves one shared tally from an action to the next one of the same
    voter and restores a voter on leaving it, and an action clashing with a
    chosen swap in the same vote prunes every set extending that prefix.  For
    the interchangeable rules a vote lacking p lists its actions targeting p
    first, and the walk prunes an action of such a vote that leaves it
    without p (see the module docstring): the count checked against
    ``enum_cap`` is still that of every set.  The first winning set is
    returned.  Answers are uncertified, the approve-p-everywhere one too;
    ``solve`` certifies.
    """
    if instance.priced:
        raise ValueError("unit-price algorithm called on a priced instance")
    if instance.op not in (Op.ADD, Op.SWAP):
        raise ValueError("type enumeration handles additions and swaps only")
    e, p, k = instance.election, instance.p, instance.k
    n = e.n
    interchangeable = rule in _INTERCHANGEABLE
    if interchangeable:
        pool = _type_pool(e, p)
        cap = min(instance.budget, n - 1)
    else:
        pool = set(range(e.m))
        cap = instance.budget

    # A cell is one atomic action as (voter, flip): the bits it flips on the
    # voter's ballot mask, source and target for a swap, the target alone for
    # an addition.  A swap's source was approved and its target was not, so
    # two swaps in one vote clash exactly when their flips overlap;
    # additions never clash.  For interchangeable rules a vote lacking p is
    # marked in ``needs_p`` and lists its cells targeting p first.
    base = ballot_masks(e)
    sources = sum(1 << c for c in pool)
    targets = 1 << p if instance.restricted_to_p else sources
    flips = []
    needs_p = 0
    for v, mask in enumerate(base):
        lacking = [1 << t for t in _iter_bits(targets & ~mask)]
        donors = [1 << s for s in _iter_bits(sources & mask)] if instance.op is Op.SWAP else [0]
        if interchangeable and not mask >> p & 1:
            needs_p |= 1 << v
            lacking.remove(1 << p)
            flips += [(v, s | 1 << p) for s in donors]
        flips += [(v, s | t) for s in donors for t in lacking]

    tally = _Tally(base, e.m, rule, k)
    cap = min(cap, len(flips))
    explored = 0
    chosen: list[int] = []
    for size in range(cap + 1):
        explored += comb(len(flips), size)
        if explored > enum_cap:
            raise ResourceGuardError(
                f"enumerating action sets of size {size} needs {explored} "
                f"combinations, above the cap of {enum_cap}")
        # The empty set comes first: p already winning costs 0.
        if tally.wins(p) if not size else _first_win(tally, base, flips, needs_p, p, size,
                                                     0, chosen):
            actions = []
            for i in reversed(chosen):
                v, flip = flips[i]
                source = flip & base[v]  # 0 for an addition
                actions.append(AtomicAction(instance.op, v,
                                            source.bit_length() - 1 if source else None,
                                            (flip ^ source).bit_length() - 1))
            return BriberySolution(tuple(actions), size, True)

    if interchangeable and instance.budget >= n:
        actions = _approve_p_everywhere(e, p, instance.op)
        return BriberySolution(actions, len(actions), True)
    return BriberySolution((), None, False)


def _first_win(tally: _Tally, base: list[int], flips: list[tuple[int, int]], needs_p: int,
               p: int, size: int, start: int, chosen: list[int]) -> bool:
    """Walk the sets of ``size`` more cells from index ``start`` on, in
    lexicographic order, on a tally moved by the cells chosen above.

    Cells are listed voter by voter, so the tally moves straight from one
    cell to the next cell of the same voter, and a voter is restored only
    when the walk moves on to another voter or returns: each set costs one
    ``set`` and one ``wins``.  A cell that clashes with a chosen one is
    skipped, and with it every set extending that prefix.  So is a cell not
    targeting p of a voter in ``needs_p`` whose ballot still lacks p: that
    voter's cells targeting p come first, so only canonical sets are walked,
    those in which every changed vote of ``needs_p`` gains p.  On the first
    set that makes p win its cells are appended to ``chosen``, the last cell
    first, so no leaf pushes or pops; the tally is always left as it was found.
    """
    ballots = tally.ballots  # moved in place by tally.set
    # The voter of the last cell visited, its ballot on entry, the bits the
    # cells chosen in it above have flipped, and p's bit if its next cells
    # must target p, else 0.  The range is never empty: callers leave at least ``size``
    # cells from ``start``.
    v = flips[start][0]
    entry = ballots[v]
    moved, gate = entry ^ base[v], (needs_p >> v & ~entry >> p & 1) << p
    for i in range(start, len(flips) - size + 1):
        u, flip = flips[i]
        if u != v:
            tally.set(v, entry)
            v, entry = u, ballots[u]
            moved, gate = entry ^ base[v], (needs_p >> v & ~entry >> p & 1) << p
        if moved & flip or gate & ~flip:
            continue
        tally.set(v, entry ^ flip)
        if tally.wins(p) if size == 1 else _first_win(tally, base, flips, needs_p, p, size - 1,
                                                      i + 1, chosen):
            tally.set(v, entry)
            chosen.append(i)
            return True
    tally.set(v, entry)
    return False


def _approve_p_everywhere(e: Election, p: int, op: Op) -> tuple[AtomicAction, ...]:
    """One action per vote giving it p, for the enumeration's fallback.

    The fallback runs only when no set of at most n - 1 actions wins.  A vote
    approving p, or an empty one, would leave giving p to every nonempty vote
    to at most n - 1 actions, which the enumeration tests, and under AV, SAV,
    CCAV and PAV p wins once every nonempty vote approves it.  So every vote
    here lacks p and approves someone.
    """
    if op is Op.ADD:
        return tuple(AtomicAction(Op.ADD, v, target=p) for v in range(e.n))
    return tuple(AtomicAction(Op.SWAP, v, source=min(ballot.approved), target=p)
                 for v, ballot in enumerate(e.ballots))


def priced_swap_to_p_type_enum(instance: BriberyInstance, rule: Rule, *,
                               enum_cap: int = ENUM_CAP) -> BriberySolution:
    """Exact optimum for priced swaps toward p.

    Each vote hosts at most one such swap, so at most n candidates change
    type.  For interchangeable rules the donors are restricted, per ordered
    type pair, to the n members cheapest to convert: a type of at most n
    members enters whole, and a larger one ranks its members for every
    subset of its approvers, a count checked against ``enum_cap`` first.
    GAV and RAV again use every candidate.  Each voter keeps its ballot or
    swaps one pool donor to p, and the oracle's cost-level search runs over
    those options, ``enum_cap`` capping the configurations it visits.
    """
    if instance.op is not Op.SWAP or not instance.restricted_to_p:
        raise ValueError("this algorithm handles swaps toward p only")
    e, p, n = instance.election, instance.p, instance.election.n
    # p winning already costs 0: answer before the pool and the guard can trip.
    if is_cowinner(e, rule, instance.k, p):
        return BriberySolution((), 0, True)
    if rule in _INTERCHANGEABLE:
        approvals = approver_masks(e)
        groups: dict[int, list[int]] = {}
        for c in range(e.m):
            if c != p:
                groups.setdefault(approvals[c], []).append(c)
        pool = {p}
        for source_type, members in groups.items():
            # With no voter removed every member costs 0, so the n
            # lowest-index ones enter: a type of at most n members enters whole.
            if len(members) <= n:
                pool.update(members)
                continue
            vote_bits = list(_iter_bits(source_type))
            if 1 << len(vote_bits) > enum_cap:
                raise ResourceGuardError(
                    f"{1 << len(vote_bits)} approver subsets of a candidate type "
                    f"exceed the cap of {enum_cap}")
            for r in range(len(vote_bits) + 1):
                for removed in itertools.combinations(vote_bits, r):
                    ranked = []
                    for c in members:
                        cost = 0
                        for v in removed:
                            price = instance.prices.swap_price(v, c, p)
                            if price == FORBIDDEN:
                                cost = FORBIDDEN
                                break
                            cost += price
                        if cost != FORBIDDEN:
                            ranked.append((cost, c))
                    ranked.sort()
                    pool.update(c for _, c in ranked[:n])
    else:
        pool = set(range(e.m))

    # At most m ballots per voter: the option cap cannot trip.
    masks = ballot_masks(e)
    options, parents = _vote_options(e, masks, instance.prices, Op.SWAP, True, p,
                                     instance.budget, e.m)
    outside = sum(1 << c for c in range(e.m) if c not in pool)
    options = [[(cost, mask) for cost, mask in opts if not start & ~mask & outside]
               for start, opts in zip(masks, options)]
    return _cheapest(instance, masks, rule, options, parents, enum_cap)


# --- an assignment search for CCAV --------------------------------------------


def _type_cowinner_ccav(types: tuple[int, ...], k: int) -> int:
    """Bitmask over ``types`` of the types that can join an optimal CCAV committee.

    ``types`` are the distinct approver masks present.  Coverage depends only
    on which types a committee holds, and more types never cover less, so
    the committee scan runs over the types themselves as candidates.
    """
    ballots = _transpose(list(types), max(t.bit_length() for t in types))
    return _Tally(ballots, len(types), Rule.CCAV, min(k, len(types))).cowinners()


def ccav_gav_flow_bribery(instance: BriberyInstance, rule: Rule, *,
                          state_cap: int = 100_000) -> BriberySolution:
    """Exact priced additions/deletions for the coverage rules CCAV and GAV.

    GAV runs the oracle: its lowest-index tie-break makes membership depend
    on which candidate holds which approver set, so it has no type sets to
    search.  CCAV with at most ``SWEEP_VOTER_CAP`` voters sweeps cost levels
    over partial candidate-to-type assignments, expanding at most
    ``state_cap`` states; its states index all 2^n types, so with more
    voters CCAV runs the oracle too.  No flow is built; the name stays
    because callers ask it for both rules.
    """
    if rule not in (Rule.CCAV, Rule.GAV):
        raise ValueError("the coverage search covers CCAV and GAV only")
    if instance.op not in (Op.ADD, Op.DELETE):
        raise ValueError("the coverage search handles additions and deletions only")
    e, p, k = instance.election, instance.p, instance.k
    n = e.n
    if rule is Rule.GAV or n > SWEEP_VOTER_CAP:
        return oracle_bribery(instance, rule)

    # A candidate's ladder: every type (approver mask) its approver set can be
    # bought into, cheapest first.  Each voter whose approval may be bought is
    # a cell; additions restricted to p leave every other candidate as it is.
    price_of = instance.prices.add_price if instance.op is Op.ADD else instance.prices.delete_price
    ladders = []
    for c, column in enumerate(approver_masks(e)):
        if instance.op is Op.DELETE:
            movable = column
        else:
            movable = 0 if instance.restricted_to_p and c != p else ~column & ((1 << n) - 1)
        cells = [(v, price) for v in _iter_bits(movable) if (price := price_of(v, c)) != FORBIDDEN]
        # At most n cells, so at most 2^n types: the option cap cannot trip.
        ladders.append(_cellwise_options(c, column, cells, None, 1 << n))
    best = _assignment_search(ladders, p, k, instance.budget, state_cap)
    if best is None:
        return BriberySolution((), None, False)
    cost, assignment = best
    # The assignment holds each candidate's final approvers: its transpose is
    # the final ballots, and the witness lists each voter's changed cells.
    actions = _witness(instance.op, ballot_masks(e), _transpose(assignment, n), [])
    return BriberySolution(actions, cost, True)


def _ccav_wins(present: int, p_type: int, k: int, cowinners: dict[int, int]) -> bool:
    """Whether p's type can join an optimal CCAV committee of the types in
    ``present``, a bitmask over the types; each type set is tested once."""
    mask = cowinners.get(present)
    if mask is None:
        mask = cowinners[present] = _type_cowinner_ccav(tuple(_iter_bits(present)), k)
    # The types are listed lowest first, so p's index is the count of those below it.
    return bool(mask >> (present & ((1 << p_type) - 1)).bit_count() & 1)


def _assignment_search(ladders: list[list[tuple[int, int]]], p: int, k: int, budget: int,
                       state_cap: int) -> tuple[int, list[int]] | None:
    """Cheapest assignment of reachable types that makes p a CCAV co-winner.

    A state ``(c, present, p_type)`` is candidates 0..c-1 assigned, the
    bitmask of their types and p's type once assigned (-1 before); whether
    a full assignment wins depends on its state alone.  Cost levels are swept
    over states as by Dial's bucket queue (CACM 1969), so the first winning
    final state is the optimum, but a heap holds the costs that have a
    bucket, so only those levels are read, whatever the price scale.  A
    state keeps its cheapest cost and its (previous state, type); an entry
    read above that cost is stale, and a cost-0 type lists its state on the
    level being read.  ``state_cap`` bounds the states expanded, a count
    that stops at the optimum's level.
    """
    m = len(ladders)
    limit = min(budget, sum(ladder[-1][0] for ladder in ladders))  # dearest types come last
    start = (0, 0, -1)
    reached: dict[tuple[int, int, int], tuple] = {start: (0, None, 0)}  # cost, previous, type
    levels = {0: [start]}
    costs = [0]  # a heap of the keys of levels not read yet
    cowinners: dict[int, int] = {}
    expanded = 0
    while costs:
        level = heapq.heappop(costs)
        for state in levels[level]:
            if reached[state][0] < level:
                continue
            expanded += 1
            if expanded > state_cap:
                raise ResourceGuardError(f"assignment search states exceed the cap of {state_cap}")
            c, present, p_type = state
            if c == m:
                if _ccav_wins(present, p_type, k, cowinners):
                    assignment = []
                    while state != start:
                        _, state, t = reached[state]
                        assignment.append(t)
                    return level, assignment[::-1]
                continue
            for extra, t in ladders[c]:
                cost = level + extra
                if cost > limit:  # ladders are cheapest first: no later type fits
                    break
                following = (c + 1, present | 1 << t, t if c == p else p_type)
                known = reached.get(following)
                if known is None or cost < known[0]:
                    reached[following] = (cost, state, t)
                    if cost not in levels:
                        levels[cost] = []
                        heapq.heappush(costs, cost)
                    levels[cost].append(following)
    return None
