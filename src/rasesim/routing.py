"""Bandwidth-filtered shortest paths over the substrate.

Edge cost is propagation delay; ties break on hop count, then on the node-id
sequence compared from the destination back (each node's parent is the
smallest id among its optimal predecessors), so identical inputs always give
identical paths. Links below the requested bandwidth floor are invisible.

Each network memoises, per (source, destination) pair, the best path when
every link is visible. The search returns the exact minimum of (delay summed
in path order, hops, node sequence from the destination back) over the
simple paths in the visible link set. Any floor leaves visible a subset of
all links, and if the all-links minimum lies inside that subset it is also
the subset's minimum. So the memoised path is the answer whenever all of
its links clear the floor, only a shortfall on one of them runs the floored
search, and no charge, release, rollback or copy ever invalidates an entry.

Every memo miss is answered from one rooted tree: per node index, the
parent index, the index of the link to the parent and the depth (hops). It
is built once per root per network, at the first miss that needs it, by one
floor-0 search from the root run until every node is settled. The search
reads the destination only when it pops it, so each node settles with the
parent a search for it would choose. The path climbs both ends to where
they meet and sums the delay from 0.0 in path order, as the search does.

A tree-shaped network (a connected spec with one link fewer than it has
nodes) has exactly one simple path per pair, so that path is the minimum
whatever the tie-break, and a floor it fails leaves no path at all. There
every pair is walked in one tree rooted at the first node, and a floored
miss is a NoPathError without a search. On any other network the root is
the source.

Copies share the trees as they share the memo; each tree is published only
once complete, so two threads of a library caller racing on a cold root only
build the same one twice. The package itself starts no threads.

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
    memo from the tree rooted at the first node on a tree-shaped network,
    else from src's shortest-path tree.
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
        best = net._routes[src, dst] = _tree_path(net, net._node_ids[0] if net._is_tree else src, src, dst)
    for link in best.links:
        if not residual[link] >= floor:  # the search's test, so a NaN floor fails here too
            break
    else:
        return best
    path = None if net._is_tree else _search(net, src, dst, floor)
    if path is None:
        raise NoPathError(f"no route from {src!r} to {dst!r} with >= {show(min_bandwidth_mbps)} Mbps residual")
    return path


def _tree_path(net: SubstrateNetwork, root: str, src: str, dst: str) -> Path:
    """The path from src to dst in root's tree, built at its first miss: both ends climbed to where they meet."""
    tree = net._trees.get(root)
    if tree is None:
        tree = net._trees[root] = _tree(net, root)  # published complete
    parents, links, depths = tree
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


def _tree(net: SubstrateNetwork, root: str) -> tuple[array, array, array]:
    """Per node index, the parent index, the index of the link to the parent and the depth, rooted at root.

    root's floor-0 shortest-path tree, with the hop count as depth; on a
    tree-shaped network it is the network itself, hung from root.
    """
    index, link_index, size = net._node_index, net._link_index, len(net._node_ids)
    parents, links, depths = array("i", [-1]) * size, array("i", [-1]) * size, array("i", [0]) * size
    # residuals are never negative, so floor 0 shows every link, and the spec is connected
    settled = _settle(net, root, 0)
    next(settled)  # root itself, with no parent
    for _delay, hops, node, parent, link in settled:
        here = index[node]
        parents[here], links[here], depths[here] = index[parent], link_index[link], hops
    return parents, links, depths


def _search(net: SubstrateNetwork, src: str, dst: str, floor: int | float) -> Path | None:
    """The best path over the links whose residual units are >= floor; None if dst is out of reach.

    For src != dst, a path leaves src by one of its links and enters dst by
    one of its links, so a floor that none at either end clears is refused
    without a search. Else the path is read back from dst, once it settles,
    through each settled node's parent and link.
    """
    residual = net.bandwidth.units
    for end in (src, dst):
        if not any(residual[link] >= floor for _, link in net.neighbors(end)):  # NaN clears none
            return None
    via: dict[str, tuple[str | None, str | None]] = {}  # each settled node's parent and link to it
    for delay, _hops, node, parent, link in _settle(net, src, floor):
        via[node] = parent, link
        if node == dst:
            nodes, links = [dst], []
            while parent is not None:
                nodes.append(parent)
                links.append(link)
                parent, link = via[parent]
            return Path(tuple(reversed(nodes)), tuple(reversed(links)), delay)
    return None


def _settle(net: SubstrateNetwork, src: str,
            floor: int | float) -> Iterator[tuple[float, int, str, str | None, str | None]]:
    """Dijkstra over the links whose residual units are >= floor, yielding each reachable node's entry.

    An entry is (total delay, hop count, node, parent, link from the
    parent), src's being (0.0, 0, src, None, None); none holds a path.
    (delay, hops) only grows along a walk, so the first entry popped for a
    node has the least, and each optimal predecessor was settled, and pushed
    its entry, before that pop. Tuple order then picks the smallest parent
    id: the node sequence compared from the destination back. Nodes are
    yielded in settle order, src first.
    """
    # the maps behind net.neighbors and net.link_delay_ms, read without a call per edge
    residual, adjacency, delay_ms = net.bandwidth.units, net._adjacency, net._delay_ms
    heap: list[tuple[float, int, str, str | None, str | None]] = [(0.0, 0, src, None, None)]
    settled: set[str] = set()
    while heap:
        entry = heapq.heappop(heap)
        delay, hops, node, _parent, _link = entry
        if node in settled:
            continue
        settled.add(node)
        yield entry
        for neighbor, link in adjacency[node]:
            if neighbor in settled:
                continue
            if not residual[link] >= floor:  # NaN fails every comparison, so a NaN floor passes no link
                continue
            heapq.heappush(heap, (delay + delay_ms[link], hops + 1, neighbor, node, link))
