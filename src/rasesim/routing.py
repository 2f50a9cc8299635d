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
"""

from __future__ import annotations

import heapq
import math
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
    a search over the links that do.
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
        # residuals are never negative, so floor 0 shows every link, and the spec is connected
        best = net._routes[src, dst] = _search(net, src, dst, 0)
    for link in best.links:
        if not residual[link] >= floor:  # the search's test, so a NaN floor fails here too
            break
    else:
        return best
    path = _search(net, src, dst, floor)
    if path is None:
        raise NoPathError(f"no route from {src!r} to {dst!r} with >= {show(min_bandwidth_mbps)} Mbps residual")
    return path


def _search(net: SubstrateNetwork, src: str, dst: str, floor: int | float) -> Path | None:
    """Dijkstra over the links whose residual units are >= floor; None if dst is out of reach.

    The composite key (total delay, hop count, node sequence) makes the
    documented tie-breaking exact under tuple comparison. Keys only grow
    along a walk, so the first time a node is settled its key is optimal.
    """
    residual = net.bandwidth.units
    heap: list[tuple[float, int, tuple[str, ...], tuple[str, ...]]] = [(0.0, 0, (src,), ())]
    settled: set[str] = set()
    while heap:
        delay, hops, nodes, links = heapq.heappop(heap)
        node = nodes[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return Path(nodes, links, delay)
        for neighbor, link in net.neighbors(node):
            if neighbor in settled:
                continue
            if not residual[link] >= floor:  # NaN fails every comparison, so a NaN floor passes no link
                continue
            heapq.heappush(
                heap,
                (delay + net.link_delay_ms(link), hops + 1, nodes + (neighbor,), links + (link,)),
            )
    return None
