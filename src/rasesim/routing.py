"""Bandwidth-filtered shortest paths over the substrate.

Edge cost is propagation delay; ties break on hop count, then on the
lexicographic node-id sequence, so identical inputs always give identical
paths. Links whose residual bandwidth is below the requested floor are
invisible to the search.
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

    Dijkstra with the composite key (total delay, hop count, node sequence);
    tuple comparison makes the documented tie-breaking exact. Keys only grow
    along a walk, so the first time a node is settled its key is optimal.
    """
    if not net.has_node(src):
        raise UnknownNodeError(f"unknown node {src!r}")
    if not net.has_node(dst):
        raise UnknownNodeError(f"unknown node {dst!r}")
    if src == dst:
        return Path((src,), (), 0.0)

    # an int compares exactly with inf and is never below NaN, so a non-finite (float) floor stays as given
    floor = (min_bandwidth_mbps if isinstance(min_bandwidth_mbps, float) and not math.isfinite(min_bandwidth_mbps)
             else net.bandwidth.units_at_least(min_bandwidth_mbps))
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
            if residual[link] < floor:
                continue
            heapq.heappush(
                heap,
                (delay + net.link_delay_ms(link), hops + 1, nodes + (neighbor,), links + (link,)),
            )
    raise NoPathError(f"no route from {src!r} to {dst!r} with >= {show(min_bandwidth_mbps)} Mbps residual")
