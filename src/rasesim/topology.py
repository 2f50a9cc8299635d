"""Substrate network model: hosts, switches, links, and residual capacities.

Each resource kind (CPU, memory, bandwidth) keeps its residuals and
capacities as integers in units of 1/scale, where scale is the least common
multiple of the denominators of every quantity seen so far (see Resource).
Checks and updates are then integer < and -=, so every release of a
previously allocated amount, and every rollback of a rejected chain,
restores the network bit-identically. Floats in, exact arithmetic inside;
the public residual and capacity maps show the values as Fractions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

from .errors import RaseSimError

Quantity = Union[int, float, Fraction]


class TopologyError(RaseSimError):
    """Base class for substrate network errors."""

    stage = "network"


class DuplicateIdError(TopologyError):
    """Two nodes or links share an identifier."""


class DanglingEndpointError(TopologyError):
    """A link references a node that was never declared."""


class DisconnectedError(TopologyError):
    """The link graph does not connect all declared nodes."""


class NonPositiveCapacityError(TopologyError):
    """A capacity (CPU, memory, bandwidth) or delay is out of range."""


class UnknownHostError(TopologyError):
    """Operation addressed a host id that does not exist."""


class UnknownLinkError(TopologyError):
    """Operation addressed a link id that does not exist."""


class InsufficientCpuError(TopologyError):
    """Host lacks the residual CPU for the requested allocation."""


class InsufficientMemoryError(TopologyError):
    """Host lacks the residual memory for the requested allocation."""


class InsufficientBandwidthError(TopologyError):
    """Link lacks the residual bandwidth for the requested allocation."""


class OverReleaseError(TopologyError):
    """Release would push a residual above its capacity."""


def link_id(endpoint_a: str, endpoint_b: str) -> str:
    """Canonical id of the undirected link between two nodes."""
    a, b = sorted((endpoint_a, endpoint_b))
    return f"{a}--{b}"


@dataclass(frozen=True)
class HostSpec:
    id: str
    cpus: int
    memory_mb: float


@dataclass(frozen=True)
class LinkSpec:
    endpoint_a: str
    endpoint_b: str
    bandwidth_mbps: float
    propagation_delay_ms: float

    @property
    def link_id(self) -> str:
        return link_id(self.endpoint_a, self.endpoint_b)


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative substrate description, checked on construction: an invalid one raises a TopologyError."""

    hosts: tuple[HostSpec, ...]
    switches: tuple[str, ...] = field(metadata={"json_default": ()})
    links: tuple[LinkSpec, ...]
    ingress_node: str
    egress_host: str

    def __post_init__(self):
        seen: set[str] = set()
        for node_id in [h.id for h in self.hosts] + list(self.switches):
            if node_id in seen:
                raise DuplicateIdError(f"duplicate node id {node_id!r}")
            seen.add(node_id)
        # each range check is written so that NaN, which fails every comparison, fails it too
        for host in self.hosts:
            if not 0 < host.cpus < math.inf:
                raise NonPositiveCapacityError(f"host {host.id!r}: cpus must be positive and finite")
            if not 0 < host.memory_mb < math.inf:
                raise NonPositiveCapacityError(f"host {host.id!r}: memory_mb must be positive and finite")
        link_ids: set[str] = set()
        for link in self.links:
            for endpoint in (link.endpoint_a, link.endpoint_b):
                if endpoint not in seen:
                    raise DanglingEndpointError(f"link endpoint {endpoint!r} is not a declared node")
            if link.endpoint_a == link.endpoint_b:
                raise DanglingEndpointError(f"link {link.link_id!r} joins node {link.endpoint_a!r} to itself")
            if not 0 < link.bandwidth_mbps < math.inf:
                raise NonPositiveCapacityError(f"link {link.link_id!r}: bandwidth_mbps must be positive and finite")
            if not 0 <= link.propagation_delay_ms < math.inf:
                raise NonPositiveCapacityError(f"link {link.link_id!r}: propagation_delay_ms must be finite, >= 0")
            if link.link_id in link_ids:
                raise DuplicateIdError(f"duplicate link {link.link_id!r}")
            link_ids.add(link.link_id)
        host_ids = {h.id for h in self.hosts}
        if self.ingress_node not in seen:
            raise DanglingEndpointError(f"ingress_node {self.ingress_node!r} is not a declared node")
        if self.egress_host not in host_ids:
            raise DanglingEndpointError(f"egress_host {self.egress_host!r} is not a declared host")
        self._check_connected(seen)

    def _check_connected(self, nodes: set[str]) -> None:
        if not nodes:
            raise DisconnectedError("network declares no nodes")
        adjacency: dict[str, list[str]] = {n: [] for n in nodes}
        for link in self.links:
            adjacency[link.endpoint_a].append(link.endpoint_b)
            adjacency[link.endpoint_b].append(link.endpoint_a)
        start = next(iter(sorted(nodes)))
        reached = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    queue.append(neighbor)
        unreached = sorted(nodes - reached)
        if unreached:
            raise DisconnectedError(f"node {unreached[0]!r} is unreachable from {start!r}")


class Resource:
    """One resource kind's residuals and capacities, as integers in units of 1/scale.

    Config numbers are floats, hence dyadic, so for config input scale is a
    power of two. Copies share the capacity map and never write into it.
    """

    def __init__(self, capacities: dict[str, Quantity]):
        ratios = {key: quantity.as_integer_ratio() for key, quantity in capacities.items()}
        self.scale = math.lcm(*(d for _, d in ratios.values()))
        self.capacity = {key: n * (self.scale // d) for key, (n, d) in ratios.items()}
        self.units = dict(self.capacity)

    def copy(self) -> "Resource":
        clone = object.__new__(Resource)
        clone.units, clone.capacity, clone.scale = dict(self.units), self.capacity, self.scale
        return clone

    def to_units(self, quantity: Quantity) -> int:
        """quantity as a whole number of units, so convert before reading a residual to compare.

        A new denominator first grows scale to the least common multiple. The
        residuals are rescaled in place, as callers hold the units map; the
        capacity map is replaced, as copies share it.
        """
        numerator, denominator = quantity.as_integer_ratio()
        if self.scale % denominator:
            factor = denominator // math.gcd(self.scale, denominator)
            self.scale *= factor
            units = self.units
            for key in units:
                units[key] *= factor
            self.capacity = {key: value * factor for key, value in self.capacity.items()}
        return numerator * (self.scale // denominator)

    def units_at_least(self, quantity: Quantity) -> int:
        """The fewest whole units that hold quantity; scale is left as it is."""
        numerator, denominator = quantity.as_integer_ratio()
        return -(-numerator * self.scale // denominator)

    def exact(self, units: dict[str, int]) -> dict[str, Fraction]:
        return {key: Fraction(value, self.scale) for key, value in units.items()}

    def show(self, units: int) -> str:
        return show(Fraction(units, self.scale))


def show(quantity: Quantity) -> str:
    """quantity in a message: %g of the nearest float, inf past the float range."""
    try:
        return f"{float(quantity):g}"
    except OverflowError:
        return "inf"


class SubstrateNetwork:
    """Residual-capacity view over a NetworkSpec.

    Single-writer: mutate a given instance from one thread only. copy()
    yields an independent network (shared immutable spec, private residuals)
    that a library caller may use in parallel with the original; the package
    itself starts no threads. Copies also share what
    routing.shortest_path fills: the route memo, one all-links path per
    (source, destination) pair, and what it is answered from over the node
    and link indexes made here. On a tree-shaped spec (one link fewer than
    nodes) that is one parent map rooted at the first node; on any other,
    one floor-0 shortest-path tree per source. All are pure functions of
    the spec and their containers exist from __init__, so copies made at
    any time share them. The parent map and each tree are published only
    once complete, so two threads racing on a cold network or source only
    build the same one twice, as two racing on a memo entry only compute
    the same path twice.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.cpu = Resource({h.id: h.cpus for h in spec.hosts})
        self.memory = Resource({h.id: h.memory_mb for h in spec.hosts})
        links = [(l.link_id, l) for l in spec.links]
        self.bandwidth = Resource({key: l.bandwidth_mbps for key, l in links})
        self._bandwidth_mbps = {key: float(l.bandwidth_mbps) for key, l in links}
        self._delay_ms = {key: l.propagation_delay_ms for key, l in links}
        adjacency: dict[str, list[tuple[str, str]]] = {n: [] for n in self.node_ids()}
        for key, link in links:
            adjacency[link.endpoint_a].append((link.endpoint_b, key))
            adjacency[link.endpoint_b].append((link.endpoint_a, key))
        # sorted neighbor order keeps traversals deterministic
        self._adjacency = {n: tuple(sorted(nbrs)) for n, nbrs in adjacency.items()}
        self._routes: dict[tuple[str, str], object] = {}  # routing.Path by (src, dst), filled by shortest_path
        # node order is dict insertion order (hosts, then switches), never hash order
        self._node_ids = tuple(self._adjacency)
        self._node_index = {node: i for i, node in enumerate(self._node_ids)}
        self._link_ids = tuple(key for key, _ in links)
        self._link_index = {key: i for i, key in enumerate(self._link_ids)}
        self._trees: dict[str, tuple] = {}  # (parents, links, delays) arrays by source, filled by shortest_path
        # the spec is connected, so it is a tree exactly when it has one link fewer than nodes
        self._is_tree = len(self._link_ids) == len(self._node_ids) - 1
        self._rooted: dict[str, tuple] = {}  # "map": (parents, links, depths) arrays on a tree, filled by shortest_path

    def copy(self) -> "SubstrateNetwork":
        clone = object.__new__(SubstrateNetwork)
        # only the residuals are private; the spec, link maps, adjacency, indexes, route memo, parent map and trees
        # are shared
        clone.__dict__.update(self.__dict__)
        clone.cpu, clone.memory, clone.bandwidth = self.cpu.copy(), self.memory.copy(), self.bandwidth.copy()
        return clone

    # the exact view, built as Fractions on each read
    residual_cpu = property(lambda self: self.cpu.exact(self.cpu.units))
    residual_memory = property(lambda self: self.memory.exact(self.memory.units))
    residual_bandwidth = property(lambda self: self.bandwidth.exact(self.bandwidth.units))
    cpu_capacity = property(lambda self: self.cpu.exact(self.cpu.capacity))
    memory_capacity = property(lambda self: self.memory.exact(self.memory.capacity))
    bandwidth_capacity = property(lambda self: self.bandwidth.exact(self.bandwidth.capacity))

    def host_ids(self) -> list[str]:
        return [h.id for h in self.spec.hosts]

    def node_ids(self) -> list[str]:
        return [h.id for h in self.spec.hosts] + list(self.spec.switches)

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def neighbors(self, node: str) -> Iterable[tuple[str, str]]:
        """(neighbor id, link id) pairs in sorted neighbor order."""
        return self._adjacency[node]

    def link_delay_ms(self, link: str) -> float:
        return self._delay_ms[link]

    def link_bandwidth_mbps(self, link: str) -> float:
        return self._bandwidth_mbps[link]

    # -- allocation / release ------------------------------------------------

    def allocate_cpu(self, host: str, demand: Quantity) -> None:
        self._allocate(self.cpu, host, demand, InsufficientCpuError, UnknownHostError, "CPU")

    def release_cpu(self, host: str, amount: Quantity) -> None:
        self._release(self.cpu, host, amount, UnknownHostError, "CPU")

    def allocate_memory(self, host: str, demand: Quantity) -> None:
        self._allocate(self.memory, host, demand, InsufficientMemoryError, UnknownHostError, "memory")

    def release_memory(self, host: str, amount: Quantity) -> None:
        self._release(self.memory, host, amount, UnknownHostError, "memory")

    def allocate_bandwidth(self, link: str, demand: Quantity) -> None:
        self._allocate(self.bandwidth, link, demand, InsufficientBandwidthError, UnknownLinkError, "bandwidth")

    def release_bandwidth(self, link: str, amount: Quantity) -> None:
        self._release(self.bandwidth, link, amount, UnknownLinkError, "bandwidth")

    @staticmethod
    def _allocate(resource: Resource, key, demand, insufficient_error, unknown_error, what):
        residuals = resource.units
        if key not in residuals:
            raise unknown_error(f"unknown {what} target {key!r}")
        amount = resource.to_units(demand)
        if amount <= 0:
            raise ValueError(f"{what} demand must be positive, got {demand}")
        if residuals[key] < amount:
            raise insufficient_error(
                f"{key!r}: requested {resource.show(amount)} {what}, residual {resource.show(residuals[key])}"
            )
        residuals[key] -= amount

    @staticmethod
    def _release(resource: Resource, key, amount, unknown_error, what):
        residuals = resource.units
        if key not in residuals:
            raise unknown_error(f"unknown {what} target {key!r}")
        quantity = resource.to_units(amount)
        if quantity <= 0:
            raise ValueError(f"{what} release must be positive, got {amount}")
        if residuals[key] + quantity > resource.capacity[key]:
            raise OverReleaseError(
                f"{key!r}: releasing {resource.show(quantity)} {what} would exceed capacity "
                f"{resource.show(resource.capacity[key])}"
            )
        residuals[key] += quantity

    def residual_snapshot(self) -> tuple[dict, dict, dict]:
        """Copies of all three residual maps, for exact state comparisons."""
        return self.residual_cpu, self.residual_memory, self.residual_bandwidth


def build_network(spec: NetworkSpec) -> SubstrateNetwork:
    """A network with full residuals; the spec checked itself when it was built."""
    return SubstrateNetwork(spec)
