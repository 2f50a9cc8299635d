"""Bandwidth-filtered shortest paths over the substrate.

Edge cost is propagation delay; ties break on hop count, then on the
lexicographic node-id sequence, so identical inputs always give identical
paths. Links whose residual bandwidth is below the requested floor are
invisible to the search.

Each network memoises, per (source, destination) pair, the best path when
every link is visible. The search returns the exact minimum of (delay summed
in path order, hops, node sequence) over the simple paths in the visible
link set. Any floor leaves visible a subset of all links, and if the
all-links minimum lies inside that subset it is also the subset's minimum.
So the memoised path is the answer whenever all of its links clear the
floor, only a shortfall on one of them runs the floored search, and no
charge, release, rollback or copy ever invalidates an entry.

A tree-shaped network (a connected spec with one link fewer than it has
nodes) has exactly one simple path per pair, so that path is the minimum
whatever the tie-break, and a floor it fails leaves no path at all. There
a memo miss walks both ends up one rooted parent map, built by one
breadth-first search at the first miss, to their lowest common ancestor,
and sums the delay from 0.0 in path order; a floored miss is a NoPathError
without a search.

On any other network a memo miss is answered from the source's
shortest-path tree: one floor-0 search from the source, run until every
node is settled, once per source per network. The search reads the
destination only when it pops it, so each node settles with the very key a
search for it would return, and its settled path extends its parent's by
one link. The tree keeps, per node index, the parent index, the link index
and the settle-time delay, and a path is walked back from them.

Copies share the parent map and the trees as they share the memo; each is
published only once complete, so two threads of a library caller racing on
a cold network or source only build the same one twice. The package itself
starts no threads.

A floored search first checks both ends: if no link at the source, or none
at the destination, clears the floor, there is no path and nothing is
searched.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Iterator

from .errors import RaseSimError
from .topology import Quantity, SubstrateNetwork, show


class RoutingError(RaseSimError):
    stage = "route"


class NoPathError(RoutingError):
    """No route satisfies the bandwidth floor."""


class UnknownNodeError(RoutingError):
    """Source or destination is not a declared node."""


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]
    links: tuple[str, ...]
    total_propagation_ms: float

    def __post_init__(self):
        if len(self.links) != len(self.nodes) - 1:
            raise ValueError("a path over n nodes must have n-1 links")


def shortest_path(net: SubstrateNetwork, src: str, dst: str, min_bandwidth_mbps: Quantity) -> Path:
    """Minimum-delay simple path using only links with enough residual bandwidth.

    The pair's memoised all-links path when its links clear the floor, else
    a search over the links that do, or on a tree no path. A miss fills the
    memo from the rooted parent map on a tree, else from src's tree.
    """
    if not net.has_node(src):
        raise UnknownNodeError(f"unknown node {src!r}")
    if not net.has_node(dst):
        raise UnknownNodeError(f"unknown node {dst!r}")
    if src == dst:
        return Path((src,), (), 0.0)

    # an int compares exactly with inf and NaN, so a non-finite (float) floor stays as given
    floor = (min_bandwidth_mbps if isinstance(min_bandwidth_mbps, float) and not math.isfinite(min_bandwidth_mbps)
             else net.bandwidth.units_at_least(min_bandwidth_mbps))
    residual = net.bandwidth.units
    best = net._routes.get((src, dst))
    if best is None:
        best = net._routes[src, dst] = (_unique_path if net._is_tree else _tree_path)(net, src, dst)
    for link in best.links:
        if not residual[link] >= floor:  # the search's test, so a NaN floor fails here too
            break
    else:
        return best
    path = None if net._is_tree else _search(net, src, dst, floor)
    if path is None:
        raise NoPathError(f"no route from {src!r} to {dst!r} with >= {show(min_bandwidth_mbps)} Mbps residual")
    return path


def _unique_path(net: SubstrateNetwork, src: str, dst: str) -> Path:
    """The one simple path from src to dst on a tree: both ends walked up the rooted map to where they meet."""
    rooted = net._rooted.get("map")
    if rooted is None:
        rooted = net._rooted["map"] = _root(net)  # published complete
    parents, links, depths = rooted
    index, node_ids, link_ids, delay_ms = net._node_index, net._node_ids, net._link_ids, net._delay_ms
    up, down = index[src], index[dst]
    rising, falling = [up], [down]  # src to the meeting node; dst up to just below it
    while depths[up] > depths[down]:
        up = parents[up]
        rising.append(up)
    while depths[down] > depths[up]:
        down = parents[down]
        falling.append(down)
    while up != down:
        up, down = parents[up], parents[down]
        rising.append(up)
        falling.append(down)
    falling.pop()  # the meeting node, already last in rising
    falling.reverse()
    route = [link_ids[links[node]] for node in rising[:-1]] + [link_ids[links[node]] for node in falling]
    delay = 0.0
    for link in route:  # the left fold in path order that _settle does
        delay += delay_ms[link]
    return Path(tuple(node_ids[node] for node in rising + falling), tuple(route), delay)


def _root(net: SubstrateNetwork) -> tuple[array, array, array]:
    """Per node index, the parent index, the index of the link to the parent and the depth, rooted at the first node."""
    index, link_index, size = net._node_index, net._link_index, len(net._node_ids)
    parents, links, depths = array("i", [-1]) * size, array("i", [-1]) * size, array("i", [0]) * size
    root = net._node_ids[0]
    queue, reached = [root], {root}
    for node in queue:  # grows as it is read: a breadth-first search
        here = index[node]
        for neighbor, link in net._adjacency[node]:
            if neighbor not in reached:
                reached.add(neighbor)
                queue.append(neighbor)
                there = index[neighbor]
                parents[there], links[there], depths[there] = here, link_index[link], depths[here] + 1
    return parents, links, depths


def _tree_path(net: SubstrateNetwork, src: str, dst: str) -> Path:
    """The floor-0 path from src to dst, walked back through src's tree, built at its first miss."""
    index, node_ids = net._node_index, net._node_ids
    tree = net._trees.get(src)
    if tree is None:
        link_index, size = net._link_index, len(node_ids)
        parents, links, delays = array("i", [-1]) * size, array("i", [-1]) * size, array("d", [0.0]) * size
        # residuals are never negative, so floor 0 shows every link, and the spec is connected
        for delay, _hops, nodes, route in _settle(net, src, 0):
            if route:
                node = index[nodes[-1]]
                parents[node], links[node], delays[node] = index[nodes[-2]], link_index[route[-1]], delay
        tree = net._trees[src] = (parents, links, delays)  # published complete
    parents, links, delays = tree
    link_ids, root = net._link_ids, index[src]
    node = target = index[dst]
    nodes, route = [dst], []
    while node != root:
        route.append(link_ids[links[node]])
        node = parents[node]
        nodes.append(node_ids[node])
    return Path(tuple(reversed(nodes)), tuple(reversed(route)), delays[target])


def _search(net: SubstrateNetwork, src: str, dst: str, floor: int | float) -> Path | None:
    """The best path over the links whose residual units are >= floor; None if dst is out of reach.

    For src != dst, a path leaves src by one of its links and enters dst by
    one of its links, so a floor that none at either end clears is refused
    without a search.
    """
    residual = net.bandwidth.units
    for end in (src, dst):
        if not any(residual[link] >= floor for _, link in net.neighbors(end)):  # NaN clears none
            return None
    for delay, _hops, nodes, links in _settle(net, src, floor):
        if nodes[-1] == dst:
            return Path(nodes, links, delay)
    return None


def _settle(net: SubstrateNetwork, src: str,
            floor: int | float) -> Iterator[tuple[float, int, tuple[str, ...], tuple[str, ...]]]:
    """Dijkstra over the links whose residual units are >= floor, yielding each reachable node's key.

    A key is (total delay, hop count, node sequence, link sequence); its
    first three make the documented tie-breaking exact under tuple
    comparison. Keys only grow along a walk, so the first time a node is
    settled its key is optimal. Nodes are yielded in settle order, src
    first.
    """
    # the maps behind net.neighbors and net.link_delay_ms, read without a call per edge
    residual, adjacency, delay_ms = net.bandwidth.units, net._adjacency, net._delay_ms
    heap: list[tuple[float, int, tuple[str, ...], tuple[str, ...]]] = [(0.0, 0, (src,), ())]
    settled: set[str] = set()
    while heap:
        entry = heapq.heappop(heap)
        delay, hops, nodes, links = entry
        node = nodes[-1]
        if node in settled:
            continue
        settled.add(node)
        yield entry
        for neighbor, link in adjacency[node]:
            if neighbor in settled:
                continue
            if not residual[link] >= floor:  # NaN fails every comparison, so a NaN floor passes no link
                continue
            heapq.heappush(heap, (delay + delay_ms[link], hops + 1, nodes + (neighbor,), links + (link,)))
