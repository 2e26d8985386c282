"""Min-cost flow with arc lower bounds.

Lower bounds are removed by the usual excess transformation, after which a
successive-shortest-path solver with potentials (all costs nonnegative) runs
between a super source and super sink.  Integral, exact and deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class InfeasibleFlowError(RuntimeError):
    """No flow satisfies the capacities, lower bounds and required value."""


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    lower: int
    capacity: int
    cost: int

    def __post_init__(self):
        if self.lower < 0 or self.capacity < 0 or self.lower > self.capacity:
            raise ValueError(f"need 0 <= lower <= capacity, got {self}")
        if self.cost < 0:
            raise ValueError("arc costs must be nonnegative")


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    arcs: tuple[Arc, ...]
    source: int
    sink: int
    required_flow: int

    def __post_init__(self):
        for a in self.arcs:
            if not (0 <= a.tail < self.num_nodes and 0 <= a.head < self.num_nodes):
                raise ValueError(f"arc endpoints out of range: {a}")
        if self.required_flow < 0:
            raise ValueError("required flow must be nonnegative")


class _Mcmf:
    """Successive shortest paths with Dijkstra and node potentials."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx

    def run(self, s: int, t: int) -> tuple[int, int]:
        """Max flow s->t at minimum cost; returns (flow, cost)."""
        n = self.n
        total_flow = 0
        total_cost = 0
        potential = [0] * n
        INF = float("inf")
        while True:
            dist = [INF] * n
            parent_edge = [-1] * n
            dist[s] = 0
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for idx in self.head[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.to[idx]
                    nd = d + self.cost[idx] + potential[u] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent_edge[v] = idx
                        heapq.heappush(heap, (nd, v))
            if dist[t] == INF:
                return total_flow, total_cost
            for v in range(n):
                if dist[v] < INF:
                    potential[v] += dist[v]
            bottleneck = None
            v = t
            while v != s:
                idx = parent_edge[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = self.to[idx ^ 1]
            v = t
            while v != s:
                idx = parent_edge[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                total_cost += bottleneck * self.cost[idx]
                v = self.to[idx ^ 1]
            total_flow += bottleneck


def min_cost_flow_lb(net: FlowNetwork) -> tuple[int, tuple[int, ...]]:
    """Cheapest feasible flow of the required value respecting lower bounds.

    Returns (total cost, per-arc flows in input order).  Raises
    InfeasibleFlowError when no such flow exists.
    """
    n = net.num_nodes
    solver = _Mcmf(n + 2)
    super_s, super_t = n, n + 1
    balance = [0] * n
    arc_edge: list[int] = []
    base_cost = 0
    for a in net.arcs:
        arc_edge.append(solver.add_edge(a.tail, a.head, a.capacity - a.lower, a.cost))
        balance[a.head] += a.lower
        balance[a.tail] -= a.lower
        base_cost += a.lower * a.cost
    # Force exactly the required value through a saturated sink->source arc.
    balance[net.source] += net.required_flow
    balance[net.sink] -= net.required_flow
    need = 0
    for v in range(n):
        if balance[v] > 0:
            solver.add_edge(super_s, v, balance[v], 0)
            need += balance[v]
        elif balance[v] < 0:
            solver.add_edge(v, super_t, -balance[v], 0)
    flow, cost = solver.run(super_s, super_t)
    if flow < need:
        raise InfeasibleFlowError(
            f"required flow {net.required_flow} with the given lower bounds is unattainable")
    # From a list, not a generator: tuple() grows a generator's items by
    # resizing, which moves a block from one of CPython's per-size tuple free
    # lists to another on every call, and they fill until a full collection.
    flows = tuple([net.arcs[i].lower + solver.cap[arc_edge[i] ^ 1] for i in range(len(net.arcs))])
    return base_cost + cost, flows
