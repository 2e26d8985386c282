"""Core data model: elections, prices, atomic bribery actions, file formats.

Elections are immutable value objects.  Score arithmetic elsewhere in the
package is exact: scores are lcm-scaled integers inside the package and
``Fraction`` values at the public boundary.  Prices and budgets
are nonnegative integers, with ``FORBIDDEN`` (infinity) marking operations
that must never be chosen.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

# Sentinel price for forbidden operations.  Compares correctly against any
# integer cost; it must never be summed into a solution cost.
FORBIDDEN = math.inf

Price = "int | float"  # nonnegative int, or FORBIDDEN


class ElectionError(ValueError):
    """Base class for errors raised by this package's data model."""


class ParseError(ElectionError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidActionError(ElectionError):
    """An action whose precondition fails, at 1-based ``position`` in its list."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


class InfeasibleActionError(ElectionError):
    """A forbidden (infinite-price) operation was selected."""


class ResourceGuardError(RuntimeError):
    """An enumeration would exceed its configured size guard."""


class Op(Enum):
    ADD = "add"
    DELETE = "delete"
    SWAP = "swap"


# A plain token: nonempty, with no whitespace, ':' or '#'.  \s matches exactly
# the characters for which str.isspace() is true.
_is_token = re.compile(r"[^\s:#]+").fullmatch


@dataclass(frozen=True)
class Candidate:
    index: int
    name: str

    def __post_init__(self):
        if not _is_token(self.name):
            raise ElectionError(f"candidate name must be a plain token: {self.name!r}")


@dataclass(frozen=True)
class ApprovalBallot:
    voter_name: str
    approved: frozenset[int]

    def __post_init__(self):
        if not _is_token(self.voter_name):
            raise ElectionError(f"voter name must be a plain token: {self.voter_name!r}")


@dataclass(frozen=True)
class Election:
    candidates: tuple[Candidate, ...]
    ballots: tuple[ApprovalBallot, ...]

    def __post_init__(self):
        names = [c.name for c in self.candidates]
        if len(set(names)) != len(names):
            raise ElectionError("duplicate candidate names")
        for i, c in enumerate(self.candidates):
            if c.index != i:
                raise ElectionError(f"candidate {c.name} has index {c.index}, expected {i}")
        vnames = [b.voter_name for b in self.ballots]
        if len(set(vnames)) != len(vnames):
            raise ElectionError("duplicate voter names")
        m = len(self.candidates)
        for b in self.ballots:
            for c in b.approved:
                if not 0 <= c < m:
                    raise ElectionError(f"ballot {b.voter_name} approves unknown candidate index {c}")

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.ballots)

    def candidate_index(self, name: str) -> int:
        for c in self.candidates:
            if c.name == name:
                return c.index
        raise ElectionError(f"unknown candidate: {name}")

    def voter_index(self, name: str) -> int:
        for i, b in enumerate(self.ballots):
            if b.voter_name == name:
                return i
        raise ElectionError(f"unknown voter: {name}")


def make_election(candidate_names: Iterable[str], ballots: Iterable[tuple[str, Iterable[str]]]) -> Election:
    """Build an election from names; ballots are (voter name, approved names)."""
    cands = tuple(Candidate(i, name) for i, name in enumerate(candidate_names))
    index = {c.name: c.index for c in cands}
    out = []
    for vname, approved in ballots:
        try:
            mask = frozenset(index[a] for a in approved)
        except KeyError as exc:
            raise ElectionError(f"ballot {vname} approves unknown candidate {exc.args[0]!r}") from None
        out.append(ApprovalBallot(vname, mask))
    return Election(cands, tuple(out))


def _iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: list[int], width: int) -> list[int]:
    """Bit j of out[i] is bit i of masks[j]: voter masks <-> candidate masks."""
    out = [0] * width
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:  # _iter_bits inlined: every GAV/RAV co-winner test transposes
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def ballot_masks(e: Election) -> list[int]:
    """Per-voter bitmask over candidate indices."""
    return [sum(1 << c for c in b.approved) for b in e.ballots]


def approver_masks(e: Election) -> list[int]:
    """Per-candidate bitmask over voter indices."""
    masks = [0] * e.m
    for i, b in enumerate(e.ballots):
        for c in b.approved:
            masks[c] |= 1 << i
    return masks


@dataclass(frozen=True)
class AtomicAction:
    """One bribery operation.

    ``source`` is the candidate losing an approval (Delete/Swap), ``target``
    the candidate gaining one (Add/Swap).  For Swap, source != target.
    """

    kind: Op
    voter: int
    source: int | None = None
    target: int | None = None

    def __post_init__(self):
        if self.kind is Op.ADD:
            if self.target is None or self.source is not None:
                raise ElectionError("Add action needs a target and no source")
        elif self.kind is Op.DELETE:
            if self.source is None or self.target is not None:
                raise ElectionError("Delete action needs a source and no target")
        else:
            if self.source is None or self.target is None or self.source == self.target:
                raise ElectionError("Swap action needs distinct source and target")

    def sort_key(self) -> tuple:
        return (self.voter, self.kind.value, -1 if self.source is None else self.source,
                -1 if self.target is None else self.target)


def _actions_key(actions: Iterable[AtomicAction]) -> tuple:
    """Deterministic order on action lists, for breaking ties between solutions."""
    return tuple(a.sort_key() for a in actions)


def _check_price(value, what: str):
    if value is FORBIDDEN or value == FORBIDDEN:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ElectionError(f"{what} must be a nonnegative integer or infinity: {value!r}")


@dataclass(frozen=True)
class PriceTable:
    """Prices for atomic operations; unlisted entries cost 1.

    Keys: add/delete by (voter, candidate); swap by (voter, source, target).
    """

    add: Mapping[tuple[int, int], Price] = field(default_factory=dict)
    delete: Mapping[tuple[int, int], Price] = field(default_factory=dict)
    swap: Mapping[tuple[int, int, int], Price] = field(default_factory=dict)

    def __post_init__(self):
        for table, what in ((self.add, "add price"), (self.delete, "delete price"), (self.swap, "swap price")):
            for v in table.values():
                _check_price(v, what)

    def add_price(self, voter: int, candidate: int) -> Price:
        return self.add.get((voter, candidate), 1)

    def delete_price(self, voter: int, candidate: int) -> Price:
        return self.delete.get((voter, candidate), 1)

    def swap_price(self, voter: int, source: int, target: int) -> Price:
        return self.swap.get((voter, source, target), 1)

    def price_of(self, action: AtomicAction) -> Price:
        if action.kind is Op.ADD:
            return self.add_price(action.voter, action.target)
        if action.kind is Op.DELETE:
            return self.delete_price(action.voter, action.source)
        return self.swap_price(action.voter, action.source, action.target)


@dataclass(frozen=True)
class BriberyInstance:
    election: Election
    p: int
    k: int
    budget: int
    op: Op
    priced: bool = False
    restricted_to_p: bool = False
    prices: PriceTable = field(default_factory=PriceTable)

    def __post_init__(self):
        if not 0 <= self.p < self.election.m:
            raise ElectionError(f"preferred candidate index {self.p} out of range")
        if not 1 <= self.k <= self.election.m:
            raise ElectionError(f"committee size {self.k} out of range 1..{self.election.m}")
        if not isinstance(self.budget, int) or self.budget < 0:
            raise ElectionError("budget must be a nonnegative integer")
        if self.restricted_to_p and self.op is Op.DELETE:
            raise ElectionError("restricted-to-p is meaningless for deletions")
        if not self.priced and (self.prices.add or self.prices.delete or self.prices.swap):
            raise ElectionError("unpriced instance must carry the all-ones price table")


@dataclass(frozen=True)
class BriberySolution:
    """Ordered action list with its total price.

    The result contract of every solver: ``cost`` None means no winning
    action set was found within the solver's search bound, and then
    ``actions`` is empty and ``feasible`` False.  Otherwise ``cost`` is a
    nonnegative integer, replaying ``actions`` makes the preferred candidate
    a co-winner at exactly that price, and ``feasible`` is cost <= budget; a
    solver may return such a witness above the budget (README "result
    contract" says which do, and why both shapes stay).  Where p already
    wins, every solver answers ``((), 0, True)``, with no action even when
    some are free.  ``solve`` checks the part that needs the instance,
    through ``rules.certify``.
    """

    actions: tuple[AtomicAction, ...]
    cost: int | None
    feasible: bool

    def __post_init__(self):
        if self.cost is None:
            if self.actions or self.feasible is not False:
                raise ElectionError("a solution without a cost has no actions and is infeasible")
        elif not isinstance(self.cost, int) or isinstance(self.cost, bool) or self.cost < 0:
            raise ElectionError(f"solution cost must be a nonnegative integer: {self.cost!r}")


def replay_masks(e: Election, actions: Iterable[AtomicAction]) -> list[int]:
    """Ballot masks after the actions in order, each checked against the
    approvals so far: its voter and candidates exist, its source is approved
    and its target is not.  The package's one replay of an action list."""
    masks, cands = ballot_masks(e), e.candidates
    for position, a in enumerate(actions, start=1):
        if not 0 <= a.voter < len(masks):
            raise InvalidActionError(position, f"no voter with index {a.voter}")
        moved = 0  # the source's bit and the target's: they differ
        for idx in (a.source, a.target):
            if idx is not None:
                if not 0 <= idx < len(cands):
                    raise InvalidActionError(position, f"no candidate with index {idx}")
                moved |= 1 << idx
        vname, mask = e.ballots[a.voter].voter_name, masks[a.voter]
        if a.source is not None and not mask >> a.source & 1:
            raise InvalidActionError(position, f"{vname} does not approve {cands[a.source].name}")
        if a.target is not None and mask >> a.target & 1:
            raise InvalidActionError(position, f"{vname} already approves {cands[a.target].name}")
        masks[a.voter] = mask ^ moved
    return masks


def apply_actions(e: Election, actions: Iterable[AtomicAction]) -> Election:
    """The election after ``replay_masks``: the same checks, and only the
    ballots whose approvals changed are rebuilt."""
    return Election(e.candidates, tuple(
        ballot if mask == start else ApprovalBallot(ballot.voter_name, frozenset(_iter_bits(mask)))
        for ballot, start, mask in zip(e.ballots, ballot_masks(e), replay_masks(e, actions))))


def solution_cost(actions: Iterable[AtomicAction], prices: PriceTable) -> int:
    total = 0
    for a in actions:
        price = prices.price_of(a)
        if price == FORBIDDEN:
            raise InfeasibleActionError(f"forbidden operation: {a}")
        total += price
    return total


# ---------------------------------------------------------------------------
# Election file format
#
#   candidates: a b c p
#   k: 2
#   voter v1: a b c
#   addprice v1 p 4
#   delprice v2 b 2
#   swapprice v6 c p 1
#
# '#' starts a comment, blank lines are ignored, unlisted prices default to 1,
# the price value "inf" marks a forbidden operation, 'k:' is optional.
# ---------------------------------------------------------------------------


def _parse_price(tok: str, line_no: int) -> Price:
    if tok == "inf":
        return FORBIDDEN
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(line_no, f"bad price {tok!r}") from None
    if value < 0:
        raise ParseError(line_no, f"negative price {value}")
    return value


def parse_election(text: str) -> tuple[Election, PriceTable, int | None]:
    candidates: list[str] = []
    cand_index: dict[str, int] = {}
    voters: list[tuple[str, frozenset[int]]] = []
    voter_index: dict[str, int] = {}
    add: dict[tuple[int, int], Price] = {}
    delete: dict[tuple[int, int], Price] = {}
    swap: dict[tuple[int, int, int], Price] = {}
    k: int | None = None

    def need_candidate(name: str, line_no: int) -> int:
        if name not in cand_index:
            raise ParseError(line_no, f"unknown candidate {name!r}")
        return cand_index[name]

    def need_voter(name: str, line_no: int) -> int:
        if name not in voter_index:
            raise ParseError(line_no, f"unknown voter {name!r}")
        return voter_index[name]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("candidates:"):
            if candidates:
                raise ParseError(line_no, "duplicate candidates line")
            names = line[len("candidates:"):].split()
            for name in names:
                if name in cand_index:
                    raise ParseError(line_no, f"duplicate candidate name {name!r}")
                cand_index[name] = len(candidates)
                candidates.append(name)
            continue
        if line.startswith("k:"):
            try:
                k = int(line[len("k:"):].strip())
            except ValueError:
                raise ParseError(line_no, "bad committee size") from None
            if k < 1:
                raise ParseError(line_no, "committee size must be at least 1")
            continue
        if line.startswith("voter "):
            body = line[len("voter "):]
            if ":" not in body:
                raise ParseError(line_no, "voter line needs ':'")
            name, _, rest = body.partition(":")
            name = name.strip()
            if not _is_token(name):
                raise ParseError(line_no, f"bad voter name {name!r}")
            if name in voter_index:
                raise ParseError(line_no, f"duplicate voter name {name!r}")
            if not candidates:
                raise ParseError(line_no, "voter line before candidates line")
            approved = frozenset(need_candidate(tok, line_no) for tok in rest.split())
            voter_index[name] = len(voters)
            voters.append((name, approved))
            continue
        toks = line.split()
        if toks[0] in ("addprice", "delprice") and len(toks) == 4:
            v = need_voter(toks[1], line_no)
            c = need_candidate(toks[2], line_no)
            price = _parse_price(toks[3], line_no)
            (add if toks[0] == "addprice" else delete)[(v, c)] = price
            continue
        if toks[0] == "swapprice" and len(toks) == 5:
            v = need_voter(toks[1], line_no)
            src = need_candidate(toks[2], line_no)
            dst = need_candidate(toks[3], line_no)
            swap[(v, src, dst)] = _parse_price(toks[4], line_no)
            continue
        raise ParseError(line_no, f"malformed line: {raw.strip()!r}")

    if not candidates:
        raise ParseError(1, "missing candidates line")
    # Built from the indices directly; the constructors still check every
    # name and index.
    election = Election(tuple(Candidate(i, name) for i, name in enumerate(candidates)),
                        tuple(ApprovalBallot(name, approved) for name, approved in voters))
    if k is not None and k > election.m:
        raise ParseError(1, f"committee size {k} exceeds number of candidates {election.m}")
    return election, PriceTable(add, delete, swap), k


def _price_str(value: Price) -> str:
    return "inf" if value == FORBIDDEN else str(value)


def serialize_election(e: Election, prices: PriceTable | None = None, k: int | None = None) -> str:
    lines = ["candidates: " + " ".join(c.name for c in e.candidates)]
    if k is not None:
        lines.append(f"k: {k}")
    for b in e.ballots:
        names = " ".join(e.candidates[c].name for c in sorted(b.approved))
        lines.append(f"voter {b.voter_name}: {names}".rstrip())
    if prices is not None:
        for (v, c), price in sorted(prices.add.items()):
            lines.append(f"addprice {e.ballots[v].voter_name} {e.candidates[c].name} {_price_str(price)}")
        for (v, c), price in sorted(prices.delete.items()):
            lines.append(f"delprice {e.ballots[v].voter_name} {e.candidates[c].name} {_price_str(price)}")
        for (v, s, t), price in sorted(prices.swap.items()):
            lines.append(f"swapprice {e.ballots[v].voter_name} {e.candidates[s].name} "
                         f"{e.candidates[t].name} {_price_str(price)}")
    return "\n".join(lines) + "\n"


# Solution file format: one action per line, e.g. "add v1 p" / "del v2 b" /
# "swap v6 c p".


def format_action(e: Election, a: AtomicAction) -> str:
    vname = e.ballots[a.voter].voter_name
    if a.kind is Op.ADD:
        return f"add {vname} {e.candidates[a.target].name}"
    if a.kind is Op.DELETE:
        return f"del {vname} {e.candidates[a.source].name}"
    return f"swap {vname} {e.candidates[a.source].name} {e.candidates[a.target].name}"


def parse_solution(text: str, e: Election) -> list[AtomicAction]:
    actions = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "add" and len(toks) == 3:
                actions.append(AtomicAction(Op.ADD, e.voter_index(toks[1]),
                                            target=e.candidate_index(toks[2])))
            elif toks[0] == "del" and len(toks) == 3:
                actions.append(AtomicAction(Op.DELETE, e.voter_index(toks[1]),
                                            source=e.candidate_index(toks[2])))
            elif toks[0] == "swap" and len(toks) == 4:
                actions.append(AtomicAction(Op.SWAP, e.voter_index(toks[1]),
                                            source=e.candidate_index(toks[2]),
                                            target=e.candidate_index(toks[3])))
            else:
                raise ParseError(line_no, f"malformed action line: {raw.strip()!r}")
        except ElectionError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(line_no, str(exc)) from None
    return actions
