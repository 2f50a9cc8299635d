import random
from fractions import Fraction

import pytest

from rasesim.routing import NoPathError, Path, UnknownNodeError, shortest_path
from rasesim.topology import HostSpec, LinkSpec, NetworkSpec, build_network

from helpers import spec_of
from oracles import brute_force_shortest_path, random_connected_graph


def line_net(delays=(1.0, 1.0)):
    return build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("C", 1, 64)],
        [("A", "B", 100, delays[0]), ("B", "C", 100, delays[1])],
    ))


def test_src_equals_dst_is_empty_path():
    path = shortest_path(line_net(), "A", "A", 1.0)
    assert path == Path(("A",), (), 0.0)


def test_line_path_forced_by_structure():
    path = shortest_path(line_net(), "A", "C", 1.0)
    assert path.nodes == ("A", "B", "C")
    assert path.links == ("A--B", "B--C")
    assert path.total_propagation_ms == 2.0


def test_bandwidth_filter_takes_detour():
    net = build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("C", 1, 64)],
        [("A", "B", 100, 1.0), ("A", "C", 100, 1.0), ("C", "B", 100, 1.0)],
    ))
    net.allocate_bandwidth("A--B", 95)  # 5 Mbps residual on the direct link
    path = shortest_path(net, "A", "B", 10.0)
    assert path.nodes == ("A", "C", "B")
    assert all(net.residual_bandwidth[link] >= 10 for link in path.links)


def test_unknown_node():
    with pytest.raises(UnknownNodeError):
        shortest_path(line_net(), "A", "nope", 1.0)


def test_no_path_when_every_route_filtered():
    net = line_net()
    with pytest.raises(NoPathError):
        shortest_path(net, "A", "C", 1000.0)


def test_tie_broken_by_fewer_hops():
    # A-B (2ms direct) vs A-X-B (1ms + 1ms): equal delay, direct has fewer hops
    net = build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("X", 1, 64)],
        [("A", "B", 100, 2.0), ("A", "X", 100, 1.0), ("X", "B", 100, 1.0)],
    ))
    assert shortest_path(net, "A", "B", 1.0).nodes == ("A", "B")


def test_tie_broken_lexicographically():
    # two 2-hop zero-delay routes A-M-B and A-N-B: lexicographically smaller wins
    net = build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("M", 1, 64), ("N", 1, 64)],
        [("A", "N", 100, 0.0), ("N", "B", 100, 0.0), ("A", "M", 100, 0.0), ("M", "B", 100, 0.0)],
    ))
    assert shortest_path(net, "A", "B", 1.0).nodes == ("A", "M", "B")


def test_deterministic_across_calls():
    net = line_net((0.0, 0.0))
    first = shortest_path(net, "A", "C", 1.0)
    second = shortest_path(net, "A", "C", 1.0)
    assert first == second


def _graph_to_network(nodes, edges) -> NetworkSpec:
    hosts = tuple(HostSpec(n, 1, 64.0) for n in nodes)
    links = tuple(LinkSpec(a, b, bw, d) for a, b, d, bw in edges)
    return NetworkSpec(hosts, (), links, nodes[0], nodes[0])


def test_matches_brute_force_on_100_random_graphs():
    """Exact node-sequence and cost agreement with exhaustive enumeration."""
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        nodes, edges = random_connected_graph(rng)
        net = build_network(_graph_to_network(nodes, edges))
        src, dst = rng.sample(nodes, 2)
        min_bw = rng.choice((0.0, 5.0, 10.0, 50.0))
        expected = brute_force_shortest_path(nodes, edges, src, dst, min_bw)
        if expected is None:
            with pytest.raises(NoPathError):
                shortest_path(net, src, dst, min_bw)
        else:
            path = shortest_path(net, src, dst, min_bw)
            assert path.nodes == expected[0]
            assert path.total_propagation_ms == expected[1]
        checked += 1


def test_returned_path_never_uses_filtered_links():
    rng = random.Random(99)
    for _ in range(30):
        nodes, edges = random_connected_graph(rng, max_nodes=8)
        net = build_network(_graph_to_network(nodes, edges))
        src, dst = rng.sample(nodes, 2)
        try:
            path = shortest_path(net, src, dst, 10.0)
        except NoPathError:
            continue
        assert all(net.residual_bandwidth[link] >= 10.0 for link in path.links)
        assert len(path.links) == len(path.nodes) - 1
        assert len(set(path.nodes)) == len(path.nodes)


def test_path_shape_validated():
    with pytest.raises(ValueError):
        Path(("A", "B"), (), 0.0)


def test_link_a_hair_below_the_floor_is_invisible():
    """A residual of 10 - 2^-80 Mbps is 10.0 as a float but still below a 10 Mbps floor."""
    net = build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("C", 1, 64)],
        [("A", "B", 10, 1.0), ("A", "C", 10, 1.0), ("C", "B", 10, 1.0)],
    ))
    net.allocate_bandwidth("A--B", Fraction(1, 2**80))
    assert float(net.residual_bandwidth["A--B"]) == 10.0
    assert shortest_path(net, "A", "B", 10.0).nodes == ("A", "C", "B")
    net.allocate_bandwidth("A--C", Fraction(1, 2**80))
    with pytest.raises(NoPathError):
        shortest_path(net, "A", "B", 10.0)
    assert shortest_path(net, "A", "B", 9.0).nodes == ("A", "B")


@pytest.mark.parametrize("floor,shown", [
    (11.0, "11"),
    (float("inf"), "inf"),
    (11, "11"),
    (Fraction(11), "11"),
    (Fraction(21, 2), "10.5"),
    (10**400, "inf"),
    (Fraction(10**400, 3), "inf"),
    (float("nan"), "nan"),
], ids=["float", "inf", "int", "fraction", "fraction-10.5", "int-1e400", "fraction-1e400", "nan"])
def test_every_quantity_floor_without_a_path_is_no_path(floor, shown):
    """No qualifying link ends in NoPathError for an int, float or Fraction floor, however large, or NaN."""
    net = build_network(spec_of([("A", 1, 64), ("B", 1, 64)], [("A", "B", 10, 1.0)]))
    with pytest.raises(NoPathError) as caught:
        shortest_path(net, "A", "B", floor)
    assert str(caught.value) == f"no route from 'A' to 'B' with >= {shown} Mbps residual"
