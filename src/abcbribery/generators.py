"""Instance generators: adversarial reductions and seeded random elections.

The random stream is a fixed 64-bit linear congruential generator (constants
below, version 1) rather than the stdlib generator, so that suites built from
seeds reproduce bit-identically across platforms and reimplementations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    ApprovalBallot,
    BriberyInstance,
    Candidate,
    Election,
    ElectionError,
    Op,
    PriceTable,
    make_election,
)

STREAM_VERSION = 1
_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Stream64:
    """Deterministic 64-bit LCG: state <- state * 6364136223846793005
    + 1442695040888963407 (mod 2^64); outputs take the high bits."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def bits(self, width: int) -> int:
        return self._step() >> (64 - width)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is accepted)."""
        return lo + self.bits(48) % (hi - lo + 1)

    def chance(self, probability: float) -> bool:
        return self.bits(53) < int(probability * (1 << 53))

    def choice(self, seq):
        return seq[self.bits(48) % len(seq)]


def _draw_election(stream: Stream64, m: int, n: int, probability: float) -> Election:
    """Candidates c0..c(m-1) and voters v0..v(n-1); voter by voter, one coin
    per candidate in index order, each drawn as ``stream.chance(probability)``."""
    threshold = int(probability * (1 << 53))
    bits = stream.bits
    candidates = tuple(Candidate(c, f"c{c}") for c in range(m))
    ballots = tuple(ApprovalBallot(f"v{v}", frozenset([c for c in range(m) if bits(53) < threshold]))
                    for v in range(n))
    return Election(candidates, ballots)


def gen_random_election(m: int, n: int, approval_probability: float, seed: int) -> Election:
    """Independent coin per (voter, candidate) pair, driven by Stream64."""
    if m < 1:
        raise ElectionError("need at least one candidate")
    if n < 0:
        raise ElectionError("voter count must be nonnegative")
    if not 0 <= approval_probability <= 1:
        raise ElectionError("approval probability must lie in [0, 1]")
    return _draw_election(Stream64(seed), m, n, approval_probability)


# --- graphs and the independent-set construction -----------------------------


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise ElectionError(f"bad edge ({u}, {v})")
            if (u, v) in seen:
                raise ElectionError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    def degrees(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_cubic(self) -> bool:
        return all(d == 3 for d in self.degrees())

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n_vertices
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj


def independent_set_exists(g: Graph, h: int) -> bool:
    adj = g.adjacency_masks()
    for combo in itertools.combinations(range(g.n_vertices), h):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if all(adj[v] & mask == 0 for v in combo):
            return True
    return False


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether two cubic graphs of one order are isomorphic; ``cubic_graphs``
    compares no others, so vertex, edge and degree counts already agree."""
    n = g1.n_vertices
    a1, a2 = g1.adjacency_masks(), g2.adjacency_masks()
    perm = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for q in range(n):
            if used[q]:
                continue
            if all((a1[i] >> j & 1) == (a2[q] >> perm[j] & 1) for j in range(i)):
                perm[i] = q
                used[q] = True
                if extend(i + 1):
                    return True
                used[q] = False
        return False

    return extend(0)


def cubic_graphs(n_vertices: int) -> list[Graph]:
    """All 3-regular simple graphs on n_vertices, up to isomorphism.

    Backtracks over each vertex's higher-indexed neighbors; vertex 0 is
    pinned to neighbors {1, 2, 3}, which loses no isomorphism class.
    """
    if n_vertices < 4 or n_vertices % 2:
        return []
    found: list[Graph] = []

    deg = [0] * n_vertices
    edges: list[tuple[int, int]] = []

    def place(i: int):
        if i == n_vertices:  # each vertex took 3 - deg neighbors: all have degree 3
            g = Graph(n_vertices, tuple(sorted(edges)))
            if not any(_isomorphic(g, other) for other in found):
                found.append(g)
            return
        # A vertex gains degree only as a chosen candidate, below 3, so need >= 0.
        need = 3 - deg[i]
        candidates = [j for j in range(i + 1, n_vertices) if deg[j] < 3]
        if need > len(candidates):
            return
        pools = [(1, 2, 3)] if i == 0 else itertools.combinations(candidates, need)
        for chosen in pools:
            for j in chosen:
                deg[j] += 1
                edges.append((i, j))
            deg[i] += len(chosen)
            place(i + 1)
            deg[i] -= len(chosen)
            for j in chosen:
                deg[j] -= 1
                edges.pop()

    place(0)
    return found


def gen_is_to_av_swap(g: Graph, h: int) -> BriberyInstance:
    """Priced swap-to-p instance whose feasibility encodes an independent set.

    One voter per edge approving both endpoints (unit swaps); 3h voters
    approving every vertex candidate, with all their swaps priced just above
    the budget of 3h.  Committee size n - h + 1.  Feasible within budget iff
    the graph has an independent set of size h.
    """
    if not g.is_cubic():
        raise ElectionError("the construction needs a cubic graph")
    if not 1 <= h <= g.n_vertices:
        raise ElectionError(f"need 1 <= h <= {g.n_vertices}")
    names = ["p"] + [f"x{v}" for v in range(g.n_vertices)]
    ballots = []
    for u, v in g.edges:
        ballots.append((f"e{u}_{v}", [f"x{u}", f"x{v}"]))
    for i in range(3 * h):
        ballots.append((f"z{i}", [f"x{v}" for v in range(g.n_vertices)]))
    e = make_election(names, ballots)
    m = e.m
    big_price = 3 * h + 1
    swap = {}
    for i in range(len(g.edges), len(g.edges) + 3 * h):
        for c1 in range(m):
            for c2 in range(m):
                if c1 != c2:
                    swap[(i, c1, c2)] = big_price
    return BriberyInstance(
        election=e, p=0, k=g.n_vertices - h + 1, budget=3 * h, op=Op.SWAP,
        priced=True, restricted_to_p=True, prices=PriceTable(swap=swap))


# --- exact cover construction -------------------------------------------------


@dataclass(frozen=True)
class X3CInstance:
    """Restricted exact cover by 3-sets: 3n elements, 3n sets of size 3,
    every element in exactly three sets."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.sets) != 3 * self.n:
            raise ElectionError(f"need exactly {3 * self.n} sets")
        counts = [0] * (3 * self.n)
        for s in self.sets:
            if len(s) != 3:
                raise ElectionError("every set must have exactly three elements")
            for x in s:
                if not 0 <= x < 3 * self.n:
                    raise ElectionError(f"element {x} out of range")
                counts[x] += 1
        if any(c != 3 for c in counts):
            raise ElectionError("every element must belong to exactly three sets")


def exact_cover_exists(x: X3CInstance) -> bool:
    universe = frozenset(range(3 * x.n))
    for combo in itertools.combinations(range(len(x.sets)), x.n):
        union = frozenset()
        size = 0
        for i in combo:
            union |= x.sets[i]
            size += 3
        if union == universe and size == len(union):
            return True
    return False


def gen_x3c_to_sav_swap(x: X3CInstance, alpha: int) -> BriberyInstance:
    """Unit-price swap-to-p instance under SAV encoding Restricted X3C.

    Element voters approve the three sets containing their element; a large
    block approves all set and dummy candidates; a larger block approves the
    dummies.  An exact cover frees exactly n set candidates of their element
    voters within the budget of 3n swaps.
    """
    if alpha < 1:
        raise ElectionError("alpha must be a positive integer")
    n = x.n
    big_n = 27 * (alpha * n + 1)
    set_names = [f"S{j + 1}" for j in range(3 * n)]
    dummy_names = [f"d{j + 1}" for j in range(big_n)]
    names = set_names + dummy_names + ["p"]
    ballots = []
    for elem in range(3 * n):
        owners = [set_names[j] for j in range(3 * n) if elem in x.sets[j]]
        ballots.append((f"x{elem + 1}", owners))
    block = set_names + dummy_names
    for i in range(n * (big_n + 3 * n) - 1):
        ballots.append((f"w{i + 1}", block))
    for i in range(10 * n * big_n):
        ballots.append((f"u{i + 1}", dummy_names))
    e = make_election(names, ballots)
    return BriberyInstance(
        election=e, p=e.m - 1, k=big_n + 2 * n + 1, budget=3 * n, op=Op.SWAP,
        priced=False, restricted_to_p=True)


# --- seeded bribery instances for cross-validation suites --------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Shape of a seeded random cross-validation suite."""

    op: Op
    count: int = 500
    seed: int = 1
    max_candidates: int = 6
    max_voters: int = 6
    max_budget: int = 4
    price_choices: tuple[int, ...] = (1, 2, 3)
    priced: bool = False
    restricted_to_p: bool = False
    approval_probability: float = 0.5


def suite_instances(cfg: SuiteConfig):
    """Deterministic stream of bribery instances for a suite config."""
    for index in range(cfg.count):
        stream = Stream64(cfg.seed * 1_000_003 + index)
        m = stream.randint(2, cfg.max_candidates)
        n = stream.randint(1, cfg.max_voters)
        e = _draw_election(stream, m, n, cfg.approval_probability)
        k = stream.randint(1, m)
        p = stream.randint(0, m - 1)
        budget = stream.randint(0, cfg.max_budget)
        add: dict = {}
        delete: dict = {}
        swap: dict = {}
        if cfg.priced:
            for v in range(n):
                for c in range(m):
                    add[(v, c)] = stream.choice(cfg.price_choices)
                    delete[(v, c)] = stream.choice(cfg.price_choices)
                    for d in range(m):
                        if c != d:
                            swap[(v, c, d)] = stream.choice(cfg.price_choices)
        prices = PriceTable(add=add, delete=delete, swap=swap) if cfg.priced else PriceTable()
        yield BriberyInstance(
            election=e, p=p, k=k, budget=budget, op=cfg.op, priced=cfg.priced,
            restricted_to_p=cfg.restricted_to_p, prices=prices)
