import itertools

import pytest

from abcbribery.flows import Arc, FlowNetwork, InfeasibleFlowError, min_cost_flow_lb
from abcbribery.generators import Stream64


def test_single_arc_with_lower_bound():
    net = FlowNetwork(2, (Arc(0, 1, 1, 1, 5),), 0, 1, 1)
    assert min_cost_flow_lb(net) == (5, (1,))


def test_lower_bound_above_capacity_rejected():
    with pytest.raises(ValueError):
        Arc(0, 1, 1, 0, 0)


def test_unsupported_lower_bound_is_infeasible():
    # the lb-1 arc hangs off a node the source cannot feed
    net = FlowNetwork(3, (Arc(0, 1, 0, 1, 1), Arc(2, 1, 1, 1, 0)), 0, 1, 1)
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow_lb(net)


def test_required_flow_exceeding_capacity_is_infeasible():
    net = FlowNetwork(2, (Arc(0, 1, 0, 1, 1),), 0, 1, 2)
    with pytest.raises(InfeasibleFlowError):
        min_cost_flow_lb(net)


def _brute_min_cost(net: FlowNetwork):
    best = None
    ranges = [range(a.lower, a.capacity + 1) for a in net.arcs]
    for flows in itertools.product(*ranges):
        balance = [0] * net.num_nodes
        for f, a in zip(flows, net.arcs):
            balance[a.tail] -= f
            balance[a.head] += f
        if any(balance[v] != 0 for v in range(net.num_nodes)
               if v not in (net.source, net.sink)):
            continue
        if balance[net.sink] != net.required_flow:
            continue
        cost = sum(f * a.cost for f, a in zip(flows, net.arcs))
        if best is None or cost < best:
            best = cost
    return best


def test_matches_bruteforce_on_random_networks():
    stream = Stream64(7)
    solved = 0
    for _ in range(250):
        n = stream.randint(2, 5)
        arcs = []
        for _ in range(stream.randint(1, 7)):
            u = stream.randint(0, n - 1)
            v = stream.randint(0, n - 1)
            if u == v:
                continue
            cap = stream.randint(0, 3)
            arcs.append(Arc(u, v, stream.randint(0, cap), cap, stream.randint(0, 4)))
        if not arcs:
            continue
        net = FlowNetwork(n, tuple(arcs), 0, n - 1, stream.randint(0, 3))
        expected = _brute_min_cost(net)
        try:
            cost, flows = min_cost_flow_lb(net)
        except InfeasibleFlowError:
            cost, flows = None, None
        assert cost == expected, net
        if flows is not None:
            solved += 1
            _assert_valid_flow(net, cost, flows)
    assert solved > 30


def _assert_valid_flow(net: FlowNetwork, cost: int, flows: tuple[int, ...]):
    balance = [0] * net.num_nodes
    for f, a in zip(flows, net.arcs):
        assert a.lower <= f <= a.capacity
        balance[a.tail] -= f
        balance[a.head] += f
    for v in range(net.num_nodes):
        if v not in (net.source, net.sink):
            assert balance[v] == 0
    assert balance[net.sink] == net.required_flow
    assert sum(f * a.cost for f, a in zip(flows, net.arcs)) == cost


def _networkx_min_cost(nx, net: FlowNetwork):
    """Reference optimum from networkx: lower bounds become node demands."""
    demand = [0] * net.num_nodes
    demand[net.source] -= net.required_flow
    demand[net.sink] += net.required_flow
    graph = nx.MultiDiGraph()
    base = 0
    for a in net.arcs:
        graph.add_edge(a.tail, a.head, capacity=a.capacity - a.lower, weight=a.cost)
        demand[a.tail] += a.lower
        demand[a.head] -= a.lower
        base += a.lower * a.cost
    for v in range(net.num_nodes):
        graph.add_node(v, demand=demand[v])
    try:
        cost, _ = nx.network_simplex(graph)
    except nx.NetworkXUnfeasible:
        return None
    return base + cost


def test_matches_networkx_on_random_networks():
    # Networks too big for the brute force above, sources and sinks anywhere.
    nx = pytest.importorskip("networkx")
    stream = Stream64(8)
    solved = infeasible = 0
    for _ in range(300):
        n = stream.randint(2, 8)
        arcs = []
        for _ in range(stream.randint(1, 16)):
            u = stream.randint(0, n - 1)
            v = stream.randint(0, n - 1)
            if u == v:
                continue
            cap = stream.randint(0, 4)
            lower = stream.randint(0, cap) if stream.chance(0.25) else 0
            arcs.append(Arc(u, v, lower, cap, stream.randint(0, 6)))
        if not arcs:
            continue
        source = stream.randint(0, n - 1)
        sink = (source + stream.randint(1, n - 1)) % n
        net = FlowNetwork(n, tuple(arcs), source, sink, stream.randint(0, 4))
        expected = _networkx_min_cost(nx, net)
        try:
            cost, flows = min_cost_flow_lb(net)
        except InfeasibleFlowError:
            assert expected is None, net
            infeasible += 1
            continue
        assert cost == expected, net
        _assert_valid_flow(net, cost, flows)
        solved += 1
    assert solved > 50 and infeasible > 50


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        Arc(0, 1, 0, 1, -1)


@pytest.mark.parametrize("arcs, required, message", [
    ((Arc(0, 2, 0, 1, 0),), 0, "arc endpoints out of range"),
    ((Arc(0, 1, 0, 1, 0),), -1, "required flow must be nonnegative"),
], ids=["endpoints", "required-flow"])
def test_network_input_checks(arcs, required, message):
    with pytest.raises(ValueError, match=message):
        FlowNetwork(2, arcs, 0, 1, required)
