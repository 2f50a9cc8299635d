"""Bandwidth-filtered shortest paths over the substrate.

Edge cost is propagation delay; ties break on hop count, then on the node-id
sequence compared from the destination back (each node's parent is the
smallest id among its optimal predecessors), so identical inputs always give
identical paths. Links below the requested bandwidth floor are invisible.

One search builds every route: `_tree`, a parent-pointer Dijkstra from a
root over the links that clear a floor, run until every reachable node is
settled, which keeps per node index the parent index, the index of the link
to the parent and the depth (hops). One walker reads every path from such a
tree: `_tree_path` climbs both ends to where they meet and sums the delay
from 0.0 in path order, so a path walked from its source's tree reports the
very delay its destination settled with.

Each network memoises, per (source, destination) pair, the best path when
every link is visible, walked from a floor-0 tree. Any floor leaves visible
a subset of all links, and if the all-links minimum lies inside that subset
it is also the subset's minimum. So the memoised path is the answer whenever
all of its links clear the floor, and no charge, release, rollback or copy
ever invalidates an entry. On a shortfall the source's tree at that floor is
built, walked if it reached the destination and then dropped, unless no
link at the source, or none at the destination, clears the floor: then
there is no path and nothing is built.

The floor-0 trees are kept by root, each built once per network at the
first miss that needs it. A tree-shaped network (a connected spec with one
link fewer than it has nodes) has exactly one simple path per pair, so the
tree rooted at the first node serves every pair, and a floor that path fails
leaves no path at all, with nothing built. On any other network the root
is the source. Copies share the trees as they share the memo; each tree is
published only once complete, so two threads of a library caller racing on
a cold root only build the same one twice. The package itself starts no
threads.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

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
    the path in src's tree over the links that do, or on a tree no path. A
    miss fills the memo from the floor-0 tree rooted at the first node on a
    tree-shaped network, else at src.
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
        root = net._node_ids[0] if net._is_tree else src
        tree = net._trees.get(root)
        if tree is None:
            tree = net._trees[root] = _tree(net, root, 0)  # published complete
        best = net._routes[src, dst] = _tree_path(net, tree, src, dst)
    for link in best.links:
        if not residual[link] >= floor:  # the tree's test, so a NaN floor fails here too
            break
    else:
        return best
    # a path leaves src by one of its links and enters dst by one, so if none at either end clears the floor
    # (NaN clears none), nothing is built
    if not net._is_tree and all(any(residual[link] >= floor for _, link in net.neighbors(end)) for end in (src, dst)):
        tree = _tree(net, src, floor)
        if tree[0][net._node_index[dst]] >= 0:  # dst was reached
            return _tree_path(net, tree, src, dst)
    raise NoPathError(f"no route from {src!r} to {dst!r} with >= {show(min_bandwidth_mbps)} Mbps residual")


def _tree_path(net: SubstrateNetwork, tree: tuple[array, array, array], src: str, dst: str) -> Path:
    """The path from src to dst in tree, both reached: both ends climbed to where they meet."""
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
    for link in route:  # the left fold in path order that the heap keys take
        delay += delay_ms[link]
    return Path(tuple(node_ids[node] for node in rising + falling), tuple(route), delay)


def _tree(net: SubstrateNetwork, root: str, floor: int | float) -> tuple[array, array, array]:
    """Per node index, the parent index, the index of the link to the parent and the depth (hops), rooted at root.

    Dijkstra over the links whose residual units are >= floor. A heap entry
    is (total delay, hop count, node, parent, link from the parent), root's
    being (0.0, 0, root, None, None). (delay, hops) only grows along a walk,
    so the first entry popped for a node has the least, and each optimal
    predecessor was settled, and pushed its entry, before that pop. Tuple
    order then picks the smallest parent id: the node sequence compared from
    the destination back. A node out of reach, like root, keeps parent -1.
    """
    # the maps behind net.neighbors and net.link_delay_ms, read without a call per edge
    residual, adjacency, delay_ms = net.bandwidth.units, net._adjacency, net._delay_ms
    index, link_index, size = net._node_index, net._link_index, len(net._node_ids)
    parents, links, depths = array("i", [-1]) * size, array("i", [-1]) * size, array("i", [0]) * size
    heap: list[tuple[float, int, str, str | None, str | None]] = [(0.0, 0, root, None, None)]
    settled: set[str] = set()
    while heap:
        delay, hops, node, parent, via = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if parent is not None:
            here = index[node]
            parents[here], links[here], depths[here] = index[parent], link_index[via], hops
        for neighbor, link in adjacency[node]:
            # NaN fails every comparison, so a NaN floor passes no link
            if neighbor not in settled and residual[link] >= floor:
                heapq.heappush(heap, (delay + delay_ms[link], hops + 1, neighbor, node, link))
    return parents, links, depths
