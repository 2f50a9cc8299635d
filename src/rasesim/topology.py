"""Substrate network model: hosts, switches, links, and residual capacities.

Residuals are kept as exact rationals (fractions.Fraction) so that every
release of a previously allocated amount, and every rollback of a rejected
chain, restores the network bit-identically. Floats in, exact arithmetic
inside.

Next to each exact residual the network keeps its float shadow, equal to
float(residual). Capacity checks in routing and placement compare shadows
and fall back to the exact values only when two shadows are equal (see
exact_less), so they give the exact answer at float speed.
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


def exact_less(a: float, b: float, a_exact: Quantity, b_exact: Quantity) -> bool:
    """Whether a_exact < b_exact, where a == float(a_exact) and b == float(b_exact).

    CPython's int/int true division is correctly rounded, so float(Fraction)
    is the correctly rounded value of the fraction. Correct rounding is
    monotone: a_exact <= b_exact implies a <= b. So a < b implies
    a_exact < b_exact, and a > b implies a_exact > b_exact. Only when the
    two floats are equal can the exact values still differ either way, and
    only then are they compared exactly.
    """
    if a != b:
        return a < b
    return a_exact < b_exact


def shadow(value: Quantity) -> float:
    """float(value), correctly rounded; infinity where value exceeds the float range.

    Rounding past the largest float to infinity is still monotone, so the
    result is a valid shadow for exact_less.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    """Declarative substrate description; validated by build_network."""

    hosts: tuple[HostSpec, ...]
    switches: tuple[str, ...] = field(metadata={"json_default": ()})
    links: tuple[LinkSpec, ...]
    ingress_node: str
    egress_host: str

    def validate(self) -> None:
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


class SubstrateNetwork:
    """Residual-capacity view over a validated NetworkSpec.

    Single-writer: mutate a given instance from one thread only. copy()
    yields an independent network (shared immutable spec, private residuals)
    that is safe to use in parallel with the original.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.cpu_capacity = {h.id: Fraction(h.cpus) for h in spec.hosts}
        self.memory_capacity = {h.id: Fraction(h.memory_mb) for h in spec.hosts}
        links = [(l.link_id, l) for l in spec.links]
        self.bandwidth_capacity = {key: Fraction(l.bandwidth_mbps) for key, l in links}
        self.residual_cpu = dict(self.cpu_capacity)
        self.residual_memory = dict(self.memory_capacity)
        self.residual_bandwidth = dict(self.bandwidth_capacity)
        # float(Fraction(x)) == float(x), so the spec's own numbers are the initial shadows
        self.shadow_cpu = {h.id: float(h.cpus) for h in spec.hosts}
        self.shadow_memory = {h.id: float(h.memory_mb) for h in spec.hosts}
        self.shadow_bandwidth = {key: float(l.bandwidth_mbps) for key, l in links}
        self._bandwidth_mbps = dict(self.shadow_bandwidth)
        self._delay_ms = {key: l.propagation_delay_ms for key, l in links}
        adjacency: dict[str, list[tuple[str, str]]] = {n: [] for n in self.node_ids()}
        for key, link in links:
            adjacency[link.endpoint_a].append((link.endpoint_b, key))
            adjacency[link.endpoint_b].append((link.endpoint_a, key))
        # sorted neighbor order keeps traversals deterministic
        self._adjacency = {n: tuple(sorted(nbrs)) for n, nbrs in adjacency.items()}

    def copy(self) -> "SubstrateNetwork":
        clone = object.__new__(SubstrateNetwork)
        clone.spec = self.spec
        clone.cpu_capacity = self.cpu_capacity
        clone.memory_capacity = self.memory_capacity
        clone.bandwidth_capacity = self.bandwidth_capacity
        clone.residual_cpu = dict(self.residual_cpu)
        clone.residual_memory = dict(self.residual_memory)
        clone.residual_bandwidth = dict(self.residual_bandwidth)
        clone.shadow_cpu = dict(self.shadow_cpu)
        clone.shadow_memory = dict(self.shadow_memory)
        clone.shadow_bandwidth = dict(self.shadow_bandwidth)
        clone._bandwidth_mbps = self._bandwidth_mbps
        clone._delay_ms = self._delay_ms
        clone._adjacency = self._adjacency
        return clone

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
        self._allocate(self.residual_cpu, self.shadow_cpu, host, demand,
                       InsufficientCpuError, UnknownHostError, "CPU")

    def release_cpu(self, host: str, amount: Quantity) -> None:
        self._release(self.residual_cpu, self.shadow_cpu, self.cpu_capacity, host, amount,
                      UnknownHostError, "CPU")

    def allocate_memory(self, host: str, demand: Quantity) -> None:
        self._allocate(self.residual_memory, self.shadow_memory, host, demand,
                       InsufficientMemoryError, UnknownHostError, "memory")

    def release_memory(self, host: str, amount: Quantity) -> None:
        self._release(self.residual_memory, self.shadow_memory, self.memory_capacity, host, amount,
                      UnknownHostError, "memory")

    def allocate_bandwidth(self, link: str, demand: Quantity) -> None:
        self._allocate(self.residual_bandwidth, self.shadow_bandwidth, link, demand,
                       InsufficientBandwidthError, UnknownLinkError, "bandwidth")

    def release_bandwidth(self, link: str, amount: Quantity) -> None:
        self._release(self.residual_bandwidth, self.shadow_bandwidth, self.bandwidth_capacity, link, amount,
                      UnknownLinkError, "bandwidth")

    @staticmethod
    def _allocate(residuals, shadows, key, demand, insufficient_error, unknown_error, what):
        if key not in residuals:
            raise unknown_error(f"unknown {what} target {key!r}")
        amount = demand if type(demand) is Fraction else Fraction(demand)
        if amount <= 0:
            raise ValueError(f"{what} demand must be positive, got {demand}")
        if residuals[key] < amount:
            raise insufficient_error(
                f"{key!r}: requested {shadow(amount):g} {what}, residual {shadow(residuals[key]):g}"
            )
        residuals[key] -= amount
        shadows[key] = float(residuals[key])

    @staticmethod
    def _release(residuals, shadows, capacities, key, amount, unknown_error, what):
        if key not in residuals:
            raise unknown_error(f"unknown {what} target {key!r}")
        quantity = amount if type(amount) is Fraction else Fraction(amount)
        if quantity <= 0:
            raise ValueError(f"{what} release must be positive, got {amount}")
        if residuals[key] + quantity > capacities[key]:
            raise OverReleaseError(
                f"{key!r}: releasing {shadow(quantity):g} {what} would exceed capacity "
                f"{shadow(capacities[key]):g}"
            )
        residuals[key] += quantity
        shadows[key] = float(residuals[key])

    def residual_snapshot(self) -> tuple[dict, dict, dict]:
        """Copies of all three residual maps, for exact state comparisons."""
        return dict(self.residual_cpu), dict(self.residual_memory), dict(self.residual_bandwidth)


def build_network(spec: NetworkSpec) -> SubstrateNetwork:
    """Validate a NetworkSpec and return a network with full residuals."""
    spec.validate()
    return SubstrateNetwork(spec)
