"""Independent reference implementations used to pin expected values.

Nothing here may call into the code paths it checks: the path oracle
enumerates simple paths exhaustively, the packing oracle does plain
sorted-list arithmetic on CPU numbers alone, the binomial bounds come
from the exact CDF, and the engine oracle recomputes every term on every
tick. The GA fitness oracle is the plain composition of the public
decode_chromosome, simulate and mean_latency, which the evaluator's decode
memo and frame-free pass replace. The charge oracle books a scheme's
demands through the public allocate_* methods, which the embedding loop's
integer charges replace.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from rasesim.engine import simulate
from rasesim.solver import Fitness, SfcPlacement, acceptance_ratio, decode_chromosome, vnf_cpu_demand
from rasesim.telemetry import TelemetryFrame, mean_latency
from rasesim.topology import SubstrateNetwork


def simple_paths(nodes, edges, src, dst, min_bandwidth):
    """Every simple path from src to dst, as (node tuple, delay), over the edges with enough bandwidth.

    edges: list of (a, b, delay, residual_bandwidth). Delay is accumulated
    in path order so float sums match an algorithm that walks the same
    sequence.
    """
    adjacency = {n: [] for n in nodes}
    for a, b, delay, bandwidth in edges:
        if bandwidth < min_bandwidth:
            continue
        adjacency[a].append((b, delay))
        adjacency[b].append((a, delay))

    def visit(node, visited, sequence, delay):
        if node == dst:
            yield sequence, delay
            return
        for neighbor, edge_delay in adjacency[node]:
            if neighbor not in visited:
                yield from visit(neighbor, visited | {neighbor}, sequence + (neighbor,), delay + edge_delay)

    return visit(src, {src}, (src,), 0.0)


def brute_force_shortest_path(nodes, edges, src, dst, min_bandwidth):
    """Best simple path by exhaustive enumeration.

    edges: list of (a, b, delay, residual_bandwidth). Returns (node tuple,
    delay) under the order (delay, hops, node sequence read from dst back
    to src), or None if no feasible path exists.
    """
    return min(simple_paths(nodes, edges, src, dst, min_bandwidth),
               key=lambda path: (path[1], len(path[0]), path[0][::-1]), default=None)


def cpu_packing_outcomes(host_cpus, demands_per_sfcr):
    """Accept/reject flags from CPU arithmetic alone.

    host_cpus: {host id: capacity}; demands_per_sfcr: per SFCR, the ordered
    per-VNF CPU demands (Fractions). Each demand goes to the host with the
    most residual CPU (ties to lowest id); an SFCR that cannot place some
    demand is rolled back and rejected. Memory, bandwidth and routing are
    deliberately ignored, so agreement with the real solver also certifies
    that CPU was the only binding constraint.
    """
    residual = {host: Fraction(capacity) for host, capacity in host_cpus.items()}
    flags = []
    for demands in demands_per_sfcr:
        taken = []
        ok = True
        for demand in demands:
            candidates = [h for h in residual if residual[h] >= demand]
            if not candidates:
                ok = False
                break
            best = max(sorted(candidates), key=lambda h: residual[h])
            if demand > 0:
                residual[best] -= demand
                taken.append((best, demand))
        if not ok:
            for host, demand in taken:
                residual[host] += demand
        flags.append(ok)
    return flags


def binomial_central_interval(n: int, p: float, mass: float = 0.99) -> tuple[int, int]:
    """Smallest-quantile [lo, hi] covering the central `mass` of Binomial(n, p)."""
    tail = (1.0 - mass) / 2.0
    cdf = 0.0
    lo = hi = None
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if lo is None and cdf >= tail:
            lo = k
        if hi is None and cdf >= 1.0 - tail:
            hi = k
            break
    return lo, n if hi is None else hi


def random_connected_graph(rng: random.Random, max_nodes: int = 12):
    """Random connected graph for path-oracle comparisons.

    Returns (node ids, edges) with edges (a, b, delay, bandwidth). Delays
    come from a small exactly-representable set including zero, so distinct
    routes frequently tie and exercise the hop/lexicographic tie-breakers.
    """
    count = rng.randint(3, max_nodes)
    nodes = [f"n{i:02d}" for i in range(count)]
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    delays = (0.0, 0.25, 0.5, 1.0, 2.0)
    bandwidths = (5.0, 10.0, 100.0)
    edges = []
    seen = set()
    for i in range(1, count):
        a, b = shuffled[rng.randrange(i)], shuffled[i]
        seen.add(frozenset((a, b)))
        edges.append((a, b, rng.choice(delays), rng.choice(bandwidths)))
    extras = rng.randint(0, count * 2)
    for _ in range(extras):
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        edges.append((a, b, rng.choice(delays), rng.choice(bandwidths)))
    return nodes, edges


def left_sum(values):
    """Left to right with one rounding per addition, as sum() adds floats before Python 3.12."""
    total = 0
    for value in values:
        total += value
    return total


def per_tick_simulate(net, scheme, sfcrs, catalog, cfg, seed):
    """The engine's frames with every term recomputed on every tick, in simulate's float order.

    Each chain's round-trip link term and forward payloads come from its own
    walk; per tick come the rates, the utilizations, the idle-spike draws
    (hosts in declaration order), the link use and one latency per accepted
    chain, jittered with one gauss draw each. The scheme is taken as valid.
    """
    rng = random.Random(seed)
    chains = []  # (sfcr, link term, [(host, VNF)], [(link, forward bits)])
    for outcome, request in zip(scheme.outcomes, sfcrs):
        if not isinstance(outcome, SfcPlacement):
            continue
        positions = [(host, catalog.get(name)) for host, name in zip(outcome.hosts, request.chain)]
        traversals = []
        forward = 0.0
        bits = float(request.request_size_bits)
        for index, segment in enumerate(outcome.segments):
            for link in segment.links:
                traversals.append((link, bits))
                forward += net.link_delay_ms(link) + bits / (net.link_bandwidth_mbps(link) * 1000.0)
            if index < len(positions):
                bits *= positions[index][1].bandwidth_scale
        chains.append((request, 2.0 * forward, positions, traversals))

    host_ids = net.host_ids()
    cpus = {h.id: float(h.cpus) for h in net.spec.hosts}
    low, high = cfg.idle_spike_range
    frames = []
    for tick in range(cfg.ticks):
        t = tick * cfg.sample_interval_s
        rates = [request.offered_load.rate_at(t) for request, _, _, _ in chains]
        true_cpu = {}
        for host in host_ids:
            raw = left_sum(rate * vnf.cpu_per_request
                           for rate, (_, _, positions, _) in zip(rates, chains)
                           for where, vnf in positions if where == host) / cpus[host]
            true_cpu[host] = min(cfg.utilization_cap, raw)
        observed_cpu = dict(true_cpu)
        for host in host_ids:
            if true_cpu[host] == 0.0 and rng.random() < cfg.idle_spike_prob:
                observed_cpu[host] = rng.uniform(low, high)
        link_bw = {
            link.link_id: 2.0 * left_sum(rate * bits
                                         for rate, (_, _, _, traversals) in zip(rates, chains)
                                         for where, bits in traversals if where == link.link_id) / 1e6
            for link in net.spec.links
        }
        latencies = {}
        for request, link_term, positions, _ in chains:
            total = link_term
            for host, vnf in positions:
                total += vnf.base_service_time_ms / (1.0 - true_cpu[host])
            if cfg.jitter_sigma > 0:
                noise = rng.gauss(0.0, cfg.jitter_sigma)
                total *= 1.0 + max(-3.0 * cfg.jitter_sigma, min(3.0 * cfg.jitter_sigma, noise))
            latencies[request.sfcr_id] = total
        frames.append(TelemetryFrame(t, observed_cpu, link_bw, latencies))
    return frames


def reference_ga_evaluator(base_net, sfcrs, catalog, engine_cfg):
    """A GA fitness from a full engine run per evaluation.

    Every call decodes the chromosome on a fresh copy of base_net, simulates
    the scheme's frames with the evaluation's seed and takes their mean
    latency; nothing is kept between calls.
    """

    def evaluate(chromosome, eval_seed):
        work = base_net.copy()
        scheme = decode_chromosome(work, sfcrs, catalog, chromosome)
        ratio = acceptance_ratio(scheme.accept_flags())
        accepted_ids = [p.sfcr_id for p in scheme.accepted()]
        if not accepted_ids:
            return Fitness(ratio, None)
        frames = simulate(work, scheme, sfcrs, catalog, engine_cfg, eval_seed)
        return Fitness(ratio, mean_latency(frames, accepted_ids))

    return evaluate


def charge_through_public_api(net: SubstrateNetwork, sfcrs, catalog, scheme) -> SubstrateNetwork:
    """net, charged with every accepted placement's demands by allocate_cpu, allocate_memory and
    allocate_bandwidth, one call per nonzero amount."""
    for outcome, request in zip(scheme.outcomes, sfcrs, strict=True):
        if not isinstance(outcome, SfcPlacement):
            continue
        for position, (host, name) in enumerate(zip(outcome.hosts, request.chain, strict=True)):
            cpu, memory = vnf_cpu_demand(catalog, request, position), Fraction(catalog.get(name).memory_mb)
            if cpu:
                net.allocate_cpu(host, cpu)
            if memory:
                net.allocate_memory(host, memory)
        for segment in outcome.segments:
            for link in segment.links:
                net.allocate_bandwidth(link, request.bandwidth_mbps)
    return net
