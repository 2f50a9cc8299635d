"""Shared builders for test networks, catalogs, and requests."""

from __future__ import annotations

import dataclasses
import math
import random

from rasesim.catalog import Catalog, SFCRequest, TrafficPattern, TrafficSegment, VNFDescriptor
from rasesim.topology import HostSpec, LinkSpec, NetworkSpec


def spec_of(hosts, links, switches=(), ingress=None, egress=None) -> NetworkSpec:
    """hosts: [(id, cpus, memory_mb)]; links: [(a, b, bandwidth, delay)]."""
    host_specs = tuple(HostSpec(i, c, m) for i, c, m in hosts)
    link_specs = tuple(LinkSpec(a, b, bw, d) for a, b, bw, d in links)
    return NetworkSpec(
        hosts=host_specs,
        switches=tuple(switches),
        links=link_specs,
        ingress_node=ingress if ingress is not None else hosts[0][0],
        egress_host=egress if egress is not None else hosts[-1][0],
    )


def constant_pattern(rps: float, duration_s: float = 10.0) -> TrafficPattern:
    return TrafficPattern((TrafficSegment(0.0, duration_s, rps),))


def sfcr(sfcr_id: str, chain, rps: float = 10.0, bandwidth: float = 1.0,
         size_bits: float = 8000.0, duration_s: float = 10.0) -> SFCRequest:
    return SFCRequest(sfcr_id, tuple(chain), bandwidth, size_bits, constant_pattern(rps, duration_s))


def small_catalog() -> Catalog:
    return Catalog((
        VNFDescriptor("alpha", 0.05, 2.0, 64.0),
        VNFDescriptor("beta", 0.1, 4.0, 128.0),
        VNFDescriptor("gamma", 0.02, 1.0, 32.0),
    ))


def star_net(host_count=3, cpus=4, memory=1024.0, bandwidth=1000.0, delay=0.5):
    """Hosts h1..hN on one switch; ingress at the switch, egress at the last host."""
    hosts = [(f"h{i}", cpus, memory) for i in range(1, host_count + 1)]
    links = [("sw", h, bandwidth, delay) for h, _, _ in hosts]
    return spec_of(hosts, links, switches=("sw",), ingress="sw", egress=hosts[-1][0])


def ladder_spec(hosts: int, cpus: int = 4, memory: float = 8192.0) -> NetworkSpec:
    """Two-tier ladder: core switch, one aggregation switch per ten hosts, access delays 0.1 + 0.01 * (i mod 7) ms."""
    host_ids = [f"h{i:03d}" for i in range(hosts)]
    aggs = [f"agg{a}" for a in range(math.ceil(hosts / 10))]
    links = [("core", agg, 100000, 0.5) for agg in aggs]
    links += [(f"agg{i // 10}", host, 10000, round(0.1 + 0.01 * (i % 7), 2)) for i, host in enumerate(host_ids)]
    return spec_of([(h, cpus, memory) for h in host_ids], links, switches=["core", *aggs], ingress="core")


def dual_homed_ladder_spec(hosts: int, cpus: int = 4, memory: float = 8192.0) -> NetworkSpec:
    """ladder_spec with a second core switch, core2, linked like core to every aggregation switch: not a tree.

    Every route between aggregation switches has an equal-delay twin through
    core2, which the node-sequence tie-break turns down.
    """
    spec = ladder_spec(hosts, cpus, memory)
    aggs = [switch for switch in spec.switches if switch != "core"]
    return dataclasses.replace(spec, switches=(*spec.switches, "core2"),
                               links=(*spec.links, *(LinkSpec("core2", agg, 100000, 0.5) for agg in aggs)))


def random_scenario(rng: random.Random):
    """Random (spec, catalog, sfcrs) triple for capacity property suites."""
    host_count = rng.randint(2, 6)
    hosts = [(f"h{i}", rng.randint(1, 4), float(rng.choice((256, 512, 1024)))) for i in range(1, host_count + 1)]
    switch_count = rng.randint(1, 3)
    switches = [f"s{i}" for i in range(1, switch_count + 1)]
    nodes = [h[0] for h in hosts] + switches
    links = []
    seen = set()
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        a, b = shuffled[rng.randrange(i)], shuffled[i]
        seen.add(frozenset((a, b)))
        links.append((a, b, float(rng.choice((5, 20, 100))), rng.choice((0.0, 0.25, 1.0))))
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        links.append((a, b, float(rng.choice((5, 20, 100))), rng.choice((0.0, 0.25, 1.0))))
    spec = spec_of(hosts, links, switches=switches,
                   ingress=rng.choice(nodes), egress=rng.choice(hosts)[0])

    vnf_count = rng.randint(2, 5)
    vnfs = tuple(
        VNFDescriptor(f"v{i}", rng.choice((0.0, 0.01, 0.05, 0.1)), rng.choice((1.0, 3.0, 8.0)),
                      rng.choice((0.0, 32.0, 128.0)), rng.choice((0.5, 1.0, 2.0)))
        for i in range(1, vnf_count + 1)
    )
    catalog = Catalog(vnfs)
    names = catalog.names()
    sfcrs = [
        sfcr(f"r{i}", [rng.choice(names) for _ in range(rng.randint(1, 3))],
             rps=rng.choice((1.0, 5.0, 20.0, 60.0)), bandwidth=rng.choice((0.5, 2.0, 10.0)))
        for i in range(1, rng.randint(2, 5))
    ]
    return spec, catalog, sfcrs
