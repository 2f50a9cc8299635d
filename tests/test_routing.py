import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from rasesim import routing, solver
from rasesim.catalog import default_catalog, default_sfcr_templates, generate_sfcrs
from rasesim.routing import NoPathError, Path, UnknownNodeError, _tree, _tree_path, shortest_path
from rasesim.solver import solve_simple_dijkstra
from rasesim.topology import HostSpec, LinkSpec, NetworkSpec, build_network, link_id

from helpers import dual_homed_ladder_spec, ladder_spec, spec_of
from oracles import brute_force_shortest_path, random_connected_graph, simple_paths


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


def test_tie_broken_from_the_destination_back():
    # two 3-hop zero-delay routes S-A-Y-D and S-B-X-D: D's parent is the smaller of X and Y
    net = build_network(spec_of(
        [("S", 1, 64), ("A", 1, 64), ("B", 1, 64), ("X", 1, 64), ("Y", 1, 64), ("D", 1, 64)],
        [("S", "A", 100, 0.0), ("A", "Y", 100, 0.0), ("Y", "D", 100, 0.0),
         ("S", "B", 100, 0.0), ("B", "X", 100, 0.0), ("X", "D", 100, 0.0)],
    ))
    assert shortest_path(net, "S", "D", 1.0).nodes == ("S", "B", "X", "D")


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


def test_every_pair_of_tied_random_graphs_matches_brute_force():
    """Delays from {0.0, 0.1, 0.2} tie (delay, hops) often, so the node-sequence rule decides many pairs.

    Some pairs' minimum read from the source differs from the one read from
    the destination back, so the test tells the two rules apart.
    """
    rng = random.Random(8668)
    split = 0
    for _ in range(30):
        nodes, edges = random_connected_graph(rng, max_nodes=8)
        edges = [(a, b, rng.choice((0.0, 0.1, 0.2)), bandwidth) for a, b, _, bandwidth in edges]
        net = build_network(_graph_to_network(nodes, edges))
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                for floor in (0.0, 10.0):
                    expected = brute_force_shortest_path(nodes, edges, src, dst, floor)
                    forward = min(simple_paths(nodes, edges, src, dst, floor),
                                  key=lambda path: (path[1], len(path[0]), path[0]), default=None)
                    split += forward != expected
                    if expected is None:
                        with pytest.raises(NoPathError):
                            shortest_path(net, src, dst, floor)
                    else:
                        path = shortest_path(net, src, dst, floor)
                        assert (path.nodes, path.total_propagation_ms.hex()) == (expected[0], expected[1].hex())
    assert split


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


def _check_against_brute_force(net, nodes, edges, rng):
    """Random (src, dst, floor) queries on net and on a copy sharing its route memo, against enumeration."""
    clone = net.copy()
    residual = net.residual_bandwidth
    current = [(a, b, delay, residual[link_id(a, b)]) for a, b, delay, _ in edges]
    for _ in range(4):
        src, dst = rng.sample(nodes, 2)
        floor = rng.choice((0.0, 1.0, 5.0, 7.5, 10.0, 50.0, 100.0))
        expected = brute_force_shortest_path(nodes, current, src, dst, floor)
        # either may fill the memo first, so each order is exercised
        for network in rng.sample((net, clone), 2):
            if expected is None:
                with pytest.raises(NoPathError):
                    shortest_path(network, src, dst, floor)
            else:
                path = shortest_path(network, src, dst, floor)
                assert (path.nodes, path.total_propagation_ms) == expected


def _charge(net, link, rng):
    """Charge link a random amount up to its residual; the amount, or None for a link with nothing left."""
    left = net.residual_bandwidth[link]
    if not left:
        return None
    amount = min(left, rng.choice((1, 2.5, 5, 7.5, 50)))
    net.allocate_bandwidth(link, amount)
    return amount


def test_memoised_paths_match_brute_force_under_charges_and_rollbacks():
    """The route memo is never invalidated, yet every answer stays exact as residuals fall and rise."""
    rng = random.Random(5150)
    for _ in range(30):
        nodes, edges = random_connected_graph(rng, max_nodes=8)
        net = build_network(_graph_to_network(nodes, edges))
        links = [link_id(a, b) for a, b, _, _ in edges]
        held: list[tuple[str, object]] = []
        _check_against_brute_force(net, nodes, edges, rng)
        for _ in range(12):
            roll = rng.random()
            if held and roll < 0.3:
                link, amount = held.pop(rng.randrange(len(held)))
                net.release_bandwidth(link, amount)
            elif roll < 0.5:
                # a chain charged along a routed path, then rolled back in reverse
                src, dst = rng.sample(nodes, 2)
                undo = []
                for link in shortest_path(net, src, dst, 0.0).links:
                    amount = _charge(net, link, rng)
                    if amount is not None:
                        undo.append((link, amount))
                _check_against_brute_force(net, nodes, edges, rng)
                for link, amount in reversed(undo):
                    net.release_bandwidth(link, amount)
            else:
                link = rng.choice(links)
                amount = _charge(net, link, rng)
                if amount is not None:
                    held.append((link, amount))
            _check_against_brute_force(net, nodes, edges, rng)


@pytest.mark.parametrize("floor,shown", [(float("nan"), "nan"), (float("inf"), "inf"), (100.5, "100.5"), (10**400, "inf")],
                         ids=["nan", "inf", "above-capacity", "int-1e400"])
def test_warm_memo_still_refuses_a_floor_no_link_clears(floor, shown):
    net = line_net()
    warm = shortest_path(net, "A", "C", 0.0)
    assert shortest_path(net.copy(), "A", "C", 100) is warm
    with pytest.raises(NoPathError) as caught:
        shortest_path(net, "A", "C", floor)
    assert str(caught.value) == f"no route from 'A' to 'C' with >= {shown} Mbps residual"


def _race_copies(spec, rng):
    """Threads on copies of one cold network fill and read what it shares at once, against a lone one.

    Each thread must answer as the lone network does; returns (lone, shared) to compare what they filled.
    """
    nodes = [host.id for host in spec.hosts] + list(spec.switches)
    charges = [(l.link_id, l.bandwidth_mbps / 2) for l in rng.sample(spec.links, len(spec.links) // 2)]
    queries = [(*rng.sample(nodes, 2), rng.choice((0.0, 5.0, 10.0, 50.0))) for _ in range(300)]

    def charged():
        net = build_network(spec)
        for link, amount in charges:
            net.allocate_bandwidth(link, amount)
        return net

    def answers(net, start=None):
        if start is not None:
            start.wait(timeout=60)  # every thread then misses on the same cold source at once
        found = []
        for src, dst, floor in queries:
            try:
                found.append(shortest_path(net, src, dst, floor).nodes)
            except NoPathError:
                found.append(None)
        return found

    alone = charged()
    expected = answers(alone)
    shared = charged()
    start = threading.Barrier(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(answers, shared.copy(), start) for _ in range(4)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
    return alone, shared


def test_copies_racing_on_one_memo_answer_as_a_fresh_network():
    """Threads on copies of one network fill and read its route memo at once; each answers as alone."""
    rng = random.Random(77)
    alone, shared = _race_copies(_graph_to_network(*random_connected_graph(rng)), rng)
    assert not shared._is_tree
    # whichever racer published a source's tree, it is the complete tree a lone network builds
    assert shared._trees == alone._trees


def test_copies_racing_on_a_cold_tree_answer_as_a_fresh_network():
    """As above on a tree-shaped spec, where the racers share one tree rooted at the first node.

    The 221-node ladder makes the tree's build long enough for a thread switch inside it.
    """
    spec = ladder_spec(200)
    alone, shared = _race_copies(spec, random.Random(78))
    assert shared._is_tree and list(shared._trees) == ["h000"]
    # whichever racer published the tree, it is the complete tree a lone network builds
    assert shared._trees == alone._trees and len(alone._trees["h000"][0]) == 221


def _count_trees(monkeypatch):
    """Replace the tree builder with one that records (root, floor) per build; the list of builds."""
    runs = []
    build = routing._tree

    def counted(net, root, floor):
        runs.append((root, floor))
        return build(net, root, floor)

    monkeypatch.setattr(routing, "_tree", counted)
    return runs


@pytest.mark.parametrize("delays", [(0.1,), (0.1, 0.2), (0.0, 0.1, 0.3)], ids=["one", "two", "three"])
def test_every_node_of_a_tree_is_the_targeted_search_and_brute_force(delays):
    """A tree walked from its root to any node gives exactly the enumerated minimum, delay bit for bit.

    Delays from a tiny set tie (delay, hops) often, so the node-sequence
    tie-break decides; 0.1 + 0.2 != 0.3 makes the order of the float sum show.
    """
    rng = random.Random(1729)
    for _ in range(25):
        nodes, edges = random_connected_graph(rng, max_nodes=7)
        edges = [(a, b, rng.choice(delays), bandwidth) for a, b, _, bandwidth in edges]
        net = build_network(_graph_to_network(nodes, edges))
        for src in nodes:
            tree = _tree(net, src, 0)
            assert {column.typecode for column in tree} == {"i"}
            for node in nodes:
                path = _tree_path(net, tree, src, node)
                expected_nodes, expected_delay = brute_force_shortest_path(nodes, edges, src, node, 0.0)
                assert path.nodes == expected_nodes
                assert path.links == tuple(link_id(a, b) for a, b in zip(path.nodes, path.nodes[1:]))
                assert path.total_propagation_ms.hex() == expected_delay.hex()


def _diamond():
    """A-B-D at 1 ms a hop, A-C-D at 2 ms a hop: the floor-0 route from A to D is A-B-D."""
    return build_network(spec_of(
        [("A", 1, 64), ("B", 1, 64), ("C", 1, 64), ("D", 1, 64)],
        [("A", "B", 100, 1.0), ("B", "D", 100, 1.0), ("A", "C", 100, 2.0), ("C", "D", 100, 2.0)],
    ))


@pytest.mark.parametrize("cut", [("A--B", "A--C"), ("B--D", "C--D")], ids=["at-src", "at-dst"])
def test_a_floor_no_link_at_an_end_clears_is_refused_without_a_search(monkeypatch, cut):
    net = _diamond()
    assert shortest_path(net, "A", "D", 0.0).nodes == ("A", "B", "D")  # the tree is built before counting
    for link in cut:
        net.allocate_bandwidth(link, 95)
    runs = _count_trees(monkeypatch)
    with pytest.raises(NoPathError) as caught:
        shortest_path(net, "A", "D", 10.0)
    assert str(caught.value) == "no route from 'A' to 'D' with >= 10 Mbps residual"
    assert runs == []


@pytest.mark.parametrize("cut,expected", [(("B--D",), ("A", "C", "D")), (("B--D", "A--C"), None)],
                         ids=["detour", "no-path"])
def test_a_floor_both_ends_clear_still_searches_the_middle(monkeypatch, cut, expected):
    net = _diamond()
    shortest_path(net, "A", "D", 0.0)
    for link in cut:
        net.allocate_bandwidth(link, 95)
    residual = net.residual_bandwidth
    edges = [(a, b, delay, residual[link_id(a, b)])
             for a, b, delay in (("A", "B", 1.0), ("B", "D", 1.0), ("A", "C", 2.0), ("C", "D", 2.0))]
    oracle = brute_force_shortest_path(["A", "B", "C", "D"], edges, "A", "D", 10.0)
    runs = _count_trees(monkeypatch)
    if expected is None:
        assert oracle is None
        with pytest.raises(NoPathError):
            shortest_path(net, "A", "D", 10.0)
    else:
        path = shortest_path(net, "A", "D", 10.0)
        assert (path.nodes, path.total_propagation_ms) == oracle == (expected, 4.0)
    assert runs == [("A", net.bandwidth.to_units(10))]


def test_one_tree_per_source_is_shared_by_every_copy(monkeypatch):
    """Copies made before the first query share the tree that any of them builds.

    The ladder is dual-homed, so it is no tree and its routes come from per-source trees.
    """
    net = build_network(dual_homed_ladder_spec(30))
    first, second = net.copy(), net.copy()
    runs = _count_trees(monkeypatch)
    paths = [shortest_path(first, "h000", "h011", 1.0), shortest_path(net, "h000", "h025", 1.0),
             shortest_path(second, "h000", "core", 1.0)]
    assert runs == [("h000", 0)]
    assert [p.nodes for p in paths] == [("h000", "agg0", "core", "agg1", "h011"),
                                         ("h000", "agg0", "core", "agg2", "h025"), ("h000", "agg0", "core")]


class _Unkept(dict):
    """A tree cache that keeps nothing, so every route miss builds its source's tree afresh."""

    def __setitem__(self, root, tree):
        pass


def test_ladder_greedy_solve_from_trees_matches_one_search_per_pair(monkeypatch):
    """200 hosts, 400 requests: the greedy scheme is outcome for outcome the one from a fresh tree per pair.

    The ladder repeats its access delays every seven hosts, and its second
    core switch gives every route between aggregation switches an
    equal-delay twin, so the tie-break decides many of them.
    """
    spec, catalog = dual_homed_ladder_spec(200), default_catalog()
    sfcrs = generate_sfcrs(default_sfcr_templates(), 100)
    from_trees = solve_simple_dijkstra(build_network(spec), sfcrs, catalog)
    net = build_network(spec)
    net._trees = _Unkept()
    runs = _count_trees(monkeypatch)
    per_pair = solve_simple_dijkstra(net, sfcrs, catalog)
    assert len(runs) == len(net._routes) and all(floor == 0 for _, floor in runs) and not net._trees
    for tree_outcome, pair_outcome in zip(from_trees.outcomes, per_pair.outcomes, strict=True):
        assert tree_outcome == pair_outcome


def test_floored_misses_on_a_mesh_solve_as_the_brute_force_oracle_routes(monkeypatch):
    """dual_homed_ladder_spec(20) with its core links cut to 60 Mbps: 40 requests wear them down mid-solve.

    Eight memoised paths then fall short of a floor. Four build their
    source's floored tree, which reaches the destination; the other four
    have no link at the source that clears the floor, so nothing is built.
    The scheme is outcome for outcome the one from routing every segment
    with the brute-force oracle over the current residuals, and only the
    floor-0 trees are kept.
    """
    spec = dual_homed_ladder_spec(20)
    spec = dataclasses.replace(spec, links=tuple(
        dataclasses.replace(link, bandwidth_mbps=60) if {link.endpoint_a, link.endpoint_b} & {"core", "core2"} else link
        for link in spec.links))
    nodes = [host.id for host in spec.hosts] + list(spec.switches)
    sfcrs, catalog = generate_sfcrs(default_sfcr_templates(), 10), default_catalog()

    def oracle(net, src, dst, floor):
        residual = net.residual_bandwidth
        edges = [(l.endpoint_a, l.endpoint_b, l.propagation_delay_ms, residual[l.link_id]) for l in spec.links]
        found = brute_force_shortest_path(nodes, edges, src, dst, floor)
        if found is None:
            raise NoPathError(f"no route from {src!r} to {dst!r}")
        return Path(found[0], tuple(link_id(a, b) for a, b in zip(found[0], found[0][1:])), found[1])

    floored = []  # per memoised path that fell short: whether a path was found

    def routed(net, src, dst, floor):
        try:
            path = shortest_path(net, src, dst, floor)
        except NoPathError:
            floored.append(False)
            raise
        if src != dst and path is not net._routes[src, dst]:
            floored.append(True)
        return path

    net = build_network(spec)
    runs = _count_trees(monkeypatch)
    monkeypatch.setattr(solver, "shortest_path", routed)
    scheme = solve_simple_dijkstra(net, sfcrs, catalog)
    monkeypatch.setattr(solver, "shortest_path", oracle)
    expected = solve_simple_dijkstra(build_network(spec), sfcrs, catalog)
    assert scheme.outcomes == expected.outcomes
    assert sorted(floored) == [False] * 4 + [True] * 4
    assert len([floor for _, floor in runs if floor]) == 4
    assert all(net._trees[root] == _tree(build_network(spec), root, 0) for root in net._trees)
    assert len(net._trees) == len([floor for _, floor in runs if not floor])


def test_greedy_solve_on_a_tree_shaped_ladder_runs_one_settle(monkeypatch):
    """On ladder_spec(200), a tree, every route is the unique path: one settle, building one tree at the first node."""
    net = build_network(ladder_spec(200))
    runs = _count_trees(monkeypatch)
    scheme = solve_simple_dijkstra(net, generate_sfcrs(default_sfcr_templates(), 100), default_catalog())
    assert scheme.accepted() and net._routes
    assert runs == [("h000", 0)] and list(net._trees) == ["h000"]


def _random_tree(rng, max_nodes=8):
    """A random tree-shaped network: the spanning edges of a random connected graph, delays from {0, 0.1, 0.2, 0.3}.

    0.1 + 0.2 != 0.3, so the order of the float sum shows in the bits.
    """
    nodes, edges = random_connected_graph(rng, max_nodes=max_nodes)
    edges = [(a, b, rng.choice((0.0, 0.1, 0.2, 0.3)), bandwidth) for a, b, _, bandwidth in edges[:len(nodes) - 1]]
    return nodes, edges


def test_a_tree_rooted_at_any_node_walks_every_pair_as_the_search_does():
    """On a tree, the walk from any root gives the unique path, delay bit for bit, so the first node serves as the root.

    Every tree stores 4-byte ints only, the 12 bytes per (root, node) pair that the README states.
    """
    rng = random.Random(2718)
    for _ in range(40):
        nodes, edges = _random_tree(rng)
        net = build_network(_graph_to_network(nodes, edges))
        assert net._is_tree
        expected = {(src, dst): brute_force_shortest_path(nodes, edges, src, dst, 0.0) for src in nodes for dst in nodes}
        for root in nodes:
            tree = _tree(net, root, 0)
            assert {column.typecode for column in tree} == {"i"}
            for (src, dst), (expected_nodes, expected_delay) in expected.items():
                walked = _tree_path(net, tree, src, dst)
                assert walked.nodes == expected_nodes
                assert walked.links == tuple(link_id(a, b) for a, b in zip(walked.nodes, walked.nodes[1:]))
                assert walked.total_propagation_ms.hex() == expected_delay.hex()


def test_unique_paths_on_trees_equal_the_search_bit_for_bit(monkeypatch):
    """Every ordered pair's unique path is the enumerated one, delay bit for bit; above it, the memoised path or no path."""
    rng = random.Random(31337)
    runs = _count_trees(monkeypatch)
    for _ in range(40):
        nodes, edges = _random_tree(rng)
        expected = {(src, dst): brute_force_shortest_path(nodes, edges, src, dst, 0.0) for src in nodes for dst in nodes}
        net = build_network(_graph_to_network(nodes, edges))
        assert net._is_tree
        runs.clear()  # the previous network's build
        for (src, dst), (expected_nodes, expected_delay) in expected.items():
            path = shortest_path(net, src, dst, 0)
            assert path.nodes == expected_nodes
            assert path.links == tuple(link_id(a, b) for a, b in zip(path.nodes, path.nodes[1:]))
            assert path.total_propagation_ms.hex() == expected_delay.hex()
        links = [link_id(a, b) for a, b, _, _ in edges]
        for link in rng.sample(links, len(links) // 2):
            _charge(net, link, rng)
        residual = net.residual_bandwidth
        current = [(a, b, delay, residual[link_id(a, b)]) for a, b, delay, _ in edges]
        for src, dst in expected:
            if src == dst:
                continue
            floor = rng.choice((1.0, 5.0, 7.5, 10.0, 50.0))
            memoised = shortest_path(net, src, dst, 0)
            if brute_force_shortest_path(nodes, current, src, dst, floor) is None:
                with pytest.raises(NoPathError) as caught:
                    shortest_path(net, src, dst, floor)
                assert str(caught.value) == f"no route from {src!r} to {dst!r} with >= {floor:g} Mbps residual"
            else:
                assert shortest_path(net, src, dst, floor) is memoised
        assert runs == [(net._node_ids[0], 0)] and list(net._trees) == [net._node_ids[0]]
