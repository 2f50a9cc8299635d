"""Analytical traffic engine.

Replaces real HTTP load generation with a fluid-flow model: per-host CPU
utilization follows offered request rates, and each chain's round-trip
latency is link propagation plus transmission, plus per-VNF service time
inflated by the processor-sharing factor 1/(1-rho) on its host. Requests
traverse ingress -> VNFs -> egress and the response retraces the same links
in reverse; VNFs process the forward direction only.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from .catalog import Catalog, SFCRequest, TrafficPattern, VNFDescriptor
from .errors import RaseSimError
from .seeding import plain_sum
from .solver import EmbeddingScheme, InconsistentSchemeError, SfcPlacement, verify_scheme
from .telemetry import FrameMap, NoSamplesError, TelemetryFrame, finite_mean
from .topology import NetworkSpec, SubstrateNetwork

__all__ = [
    "EngineError",
    "NotAcceptedError",
    "InconsistentSchemeError",
    "EngineConfig",
    "MAX_FRAMES",
    "mean_chain_latency",
    "sfc_latency",
    "simulate",
]


class EngineError(RaseSimError):
    stage = "engine"


class NotAcceptedError(EngineError):
    """Latency requested for an SFC that was not embedded."""


# a frame per tick is kept in memory and in the report, so the tick count is bounded
MAX_FRAMES = 100_000


@dataclass(frozen=True)
class EngineConfig:
    duration_s: float = 60.0
    sample_interval_s: float = 1.0
    utilization_cap: float = 0.99
    jitter_sigma: float = 0.05
    idle_spike_prob: float = 0.01
    idle_spike_range: tuple[float, float] = (0.05, 0.15)

    def __post_init__(self):
        # stored as floats, so an int or Fraction from a library caller makes the float frames the writers take
        for name in ("duration_s", "sample_interval_s", "utilization_cap", "jitter_sigma", "idle_spike_prob"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "idle_spike_range", tuple(float(bound) for bound in self.idle_spike_range))
        # every check is a range written so that NaN, which fails every comparison, fails it too
        if not 0 < self.sample_interval_s <= self.duration_s < math.inf:
            raise ValueError("need 0 < sample_interval_s <= duration_s, both finite")
        frames = self.duration_s / self.sample_interval_s  # infinity where the quotient overflows
        if frames + 1e-9 >= MAX_FRAMES + 1:  # self.ticks > MAX_FRAMES, without int(infinity)
            raise ValueError(f"duration_s / sample_interval_s gives {frames:.0f} frames; "
                             f"at most {MAX_FRAMES} are allowed")
        if not 0 < self.utilization_cap < 1:
            raise ValueError("utilization_cap must be in (0, 1)")
        _check_jitter_sigma(self.jitter_sigma)
        if not 0 <= self.idle_spike_prob <= 1:
            raise ValueError("idle_spike_prob must be in [0, 1]")
        low, high = self.idle_spike_range
        if not 0 <= low <= high <= 1:
            raise ValueError("idle_spike_range must satisfy 0 <= low <= high <= 1")

    @property
    def ticks(self) -> int:
        """Number of sampling ticks, one telemetry frame each."""
        return int(self.duration_s / self.sample_interval_s + 1e-9)


def _check_jitter_sigma(sigma: float) -> None:
    # the jitter multiplier is truncated at 1 - 3 sigma, which must stay positive
    if not 0 <= sigma < 1 / 3:
        raise ValueError("jitter_sigma must be in [0, 1/3)")


# an accepted chain as the tick loop reads it: (offered load, round-trip link ms, [(host, VNF)])
Chain = tuple[TrafficPattern, float, Sequence[tuple[str, VNFDescriptor]]]


def _walk(placement: SfcPlacement, sfcr: SFCRequest, net: SubstrateNetwork, catalog: Catalog):
    """An embedded chain's fixed terms: (round-trip link ms, [(host, VNF)], [(link, forward bits)])."""
    positions = [(host, catalog.get(name)) for host, name in zip(placement.hosts, sfcr.chain, strict=True)]
    traversals: list[tuple[str, float]] = []
    forward = 0.0
    bits = float(sfcr.request_size_bits)
    for index, segment in enumerate(placement.segments):
        for link in segment.links:
            traversals.append((link, bits))
            # transmission at the link's full rate: bits / (Mbps * 1000) = ms
            forward += net.link_delay_ms(link) + bits / (net.link_bandwidth_mbps(link) * 1000.0)
        if index < len(positions):  # a VNF's bandwidth_scale applies to every segment after it
            bits *= positions[index][1].bandwidth_scale
    return 2.0 * forward, positions, traversals


def _latency(link_term: float, positions, utilization: Mapping[str, float]) -> float:
    """Deterministic round-trip ms: the link term plus each VNF's service time at its host's load."""
    total = link_term
    for host, vnf in positions:
        rho = utilization[host]
        if rho >= 1.0:
            raise ValueError(f"utilization {rho} on host {host!r} must be capped below 1")
        total += vnf.base_service_time_ms / (1.0 - rho)
    return total


_TWO_PI = 2.0 * math.pi


def _standard_normals(rng: random.Random):
    """rng.gauss(0.0, 1.0)'s values in the same order, without a call per value.

    Each pair is the Box-Muller transform of two rng.random() draws, exactly
    as Random.gauss computes it; the second value waits for the next request,
    as gauss_next does, so other draws from rng in between change nothing.
    rng must hold no pending gauss value, as a freshly seeded Random does not.
    """
    draw = rng.random
    while True:
        x2pi = draw() * _TWO_PI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - draw()))
        yield math.cos(x2pi) * g2rad
        yield math.sin(x2pi) * g2rad


def _jittered(totals: Sequence[float], normals, sigma: float) -> list[float]:
    """Each total times 1 + sigma * z for the next standard normal z, the noise truncated at three sigmas.

    normals is read only as far as totals go, one value per total.
    """
    bound = 3.0 * sigma
    return [total * (1.0 + (bound if (noise := z * sigma) > bound else -bound if noise < -bound else noise))
            for total, z in zip(totals, normals)]


def sfc_latency(placement, sfcr: SFCRequest, net: SubstrateNetwork, catalog: Catalog,
                utilization: Mapping[str, float], jitter_sigma: float = 0.0,
                rng: random.Random | None = None) -> float:
    """Round-trip latency in ms for one embedded chain at given host loads.

    The response retraces the forward links in reverse, so link terms count
    twice; VNF service terms count once. Jitter, when enabled, multiplies the
    total by 1 + N(0, sigma) truncated at three sigmas, with one rng.gauss
    draw. A ValueError for a jitter_sigma outside [0, 1/3), where the
    multiplier could reach zero, and for one above 0 without an rng.
    """
    _check_jitter_sigma(jitter_sigma)
    if jitter_sigma > 0 and rng is None:
        raise ValueError("jitter_sigma above 0 needs an rng to draw from")
    if not isinstance(placement, SfcPlacement):
        raise NotAcceptedError(f"SFC {getattr(placement, 'sfcr_id', placement)!r} was not accepted")
    link_term, positions, _ = _walk(placement, sfcr, net, catalog)
    total = _latency(link_term, positions, utilization)
    if jitter_sigma > 0:
        total = _jittered((total,), (rng.gauss(0.0, 1.0),), jitter_sigma)[0]
    return total


def simulate(net: SubstrateNetwork, scheme: EmbeddingScheme, sfcrs: Sequence[SFCRequest],
             catalog: Catalog, cfg: EngineConfig, seed: int = 0) -> list[TelemetryFrame]:
    """Run the fluid model and emit one telemetry frame per sampling tick.

    The scheme is verified against the spec, each accepted chain is walked
    once, and the tick loop (_ticks, which the GA's frame-free fitness runs
    too) supplies every tick's utilizations, idle-spike draws and latencies.
    Per-link bandwidth use, counting both directions, is recomputed only when
    the offered rates change. Every map of a frame is a read-only FrameMap,
    stored by column: the maps of each kind share the run's one key tuple and
    index (accepted ids in submission order, hosts and links in spec order)
    and hold only their own array('d') of values. The frames of one traffic
    epoch share their maps: every frame holds the epoch's link_bw_mbps map,
    and every tick without an idle spike holds the epoch's host_cpu map, so
    the report writers encode such a map once; a spiked tick gets a copy of
    the epoch's array with its spiked hosts' values set. Each frame holds
    its own sfc_latency_ms. An EngineError names the first link whose use is
    beyond the float range. Deterministic given seed.
    """
    # verify_scheme also guarantees that the outcomes line up with sfcrs
    verify_scheme(net.spec, sfcrs, catalog, scheme)
    link_ids = [l.link_id for l in net.spec.links]
    # accepted chains in submission order; link entries: (chain index, forward payload bits per request)
    chains: list[Chain] = []
    sfcr_ids = []
    link_traversals: dict[str, list[tuple[int, float]]] = {l: [] for l in link_ids}
    for outcome, sfcr in zip(scheme.outcomes, sfcrs):
        if isinstance(outcome, SfcPlacement):
            link_term, positions, traversals = _walk(outcome, sfcr, net, catalog)
            for link, bits in traversals:
                link_traversals[link].append((len(chains), bits))
            chains.append((sfcr.offered_load, link_term, positions))
            sfcr_ids.append(sfcr.sfcr_id)

    # (key tuple, key -> position) of each kind's maps; verify_scheme refused a repeated id
    latency_keys, host_keys, link_keys = [(keys := tuple(ids), {key: at for at, key in enumerate(keys)})
                                          for ids in (sfcr_ids, [h.id for h in net.spec.hosts], link_ids)]
    frames: list[TelemetryFrame] = []
    epoch = None
    for t, rates, true_cpu, spikes, latencies in _ticks(net.spec, chains, cfg, seed):
        if rates is not epoch:
            epoch = rates
            link_bw = FrameMap(*link_keys, array("d", (
                2.0 * plain_sum(rates[index] * bits for index, bits in link_traversals[link]) / 1e6
                for link in link_ids)))
            for link, use in link_bw.items():
                if not math.isfinite(use):
                    raise EngineError(f"the use of link {link!r} at {t} s is beyond the float range: {use} Mbps")
            calm = FrameMap(*host_keys, array("d", true_cpu.values()))  # true_cpu holds the hosts in spec order
        host_cpu = calm
        if spikes:  # observation noise only; latency uses true_cpu
            values = calm.values()[:]  # a copy of the epoch's array
            for host, value in spikes:
                values[host_keys[1][host]] = value
            host_cpu = FrameMap(*host_keys, values)
        frames.append(TelemetryFrame(t, host_cpu, link_bw, FrameMap(*latency_keys, array("d", latencies))))
    return frames


def mean_chain_latency(spec: NetworkSpec, chains: Sequence[Chain], cfg: EngineConfig, seed: int) -> float:
    """The mean over every (tick, chain) latency of simulate's tick loop, without building frames.

    chains are the accepted chains of a verified scheme, in submission order,
    as (offered load, round-trip link ms, [(host, VNF)]). The random draws
    are simulate's under the same seed, so the result equals mean_latency
    over simulate's frames bit for bit when the accepted ids are distinct,
    and raises the same LatencyOverflowError where that mean is beyond the
    float range. The samples stream into one math.fsum; no list of them is
    built.
    """
    if not chains:
        raise NoSamplesError("no accepted chains to take a mean latency over")
    samples = chain.from_iterable(latencies for _, _, _, _, latencies in _ticks(spec, chains, cfg, seed))
    return finite_mean(samples, len(chains) * cfg.ticks)


def _ticks(spec: NetworkSpec, chains: Sequence[Chain], cfg: EngineConfig, seed: int):
    """The tick loop: per tick (t, rates, true utilizations, idle spikes, latencies).

    True host utilizations and each chain's latency before jitter depend on
    the offered rates alone, so they are computed once per traffic epoch (a
    run of ticks whose rates are all equal), and the rates are looked up only
    when a tick passes a segment edge; the rates list and the utilization
    dict (hosts in declaration order, whose values simulate copies into the
    epoch's host map) are the same objects for every tick of an epoch. The
    random draws stay per tick, in fixed order: idle-spike noise for hosts
    at exactly zero load (hosts in declaration order) as [(host, observed
    utilization)], then one jitter draw per chain. The jitter draws are rng.gauss's values, taken from one
    _standard_normals stream, so the second value of a pair carries over
    spike draws and ticks as it would in gauss.
    """
    rng = random.Random(seed)
    normals = _standard_normals(rng)
    host_ids = [h.id for h in spec.hosts]
    cpus = {h.id: float(h.cpus) for h in spec.hosts}
    # per host: (chain index, cpu_per_request) of every VNF placed on it
    host_loads: dict[str, list[tuple[int, float]]] = {h: [] for h in host_ids}
    for index, (_, _, positions) in enumerate(chains):
        for host, vnf in positions:
            host_loads[host].append((index, vnf.cpu_per_request))
    patterns = [pattern for pattern, _, _ in chains]
    sigma = cfg.jitter_sigma
    spike_prob = cfg.idle_spike_prob
    low, high = cfg.idle_spike_range
    # every rate is constant between two consecutive edges of the union of all segments
    edges = sorted({edge for pattern in patterns for seg in pattern.segments for edge in (seg.start_s, seg.end_s)})
    span = rates = None
    for tick in range(cfg.ticks):
        t = float(tick * cfg.sample_interval_s)  # a float for an int interval too: the writers take floats
        if (edge := bisect_right(edges, t)) != span:
            span = edge
            tick_rates = [pattern.rate_at(t) for pattern in patterns]
        if tick_rates != rates:
            # a new traffic epoch: every term below is a pure function of the rates
            rates = tick_rates
            true_cpu: dict[str, float] = {}
            for host in host_ids:
                raw = plain_sum(rates[index] * cost for index, cost in host_loads[host]) / cpus[host]
                true_cpu[host] = min(cfg.utilization_cap, raw)
            idle_hosts = [host for host in host_ids if true_cpu[host] == 0.0]
            totals = [_latency(link_term, positions, true_cpu) for _, link_term, positions in chains]
        spikes = [(host, rng.uniform(low, high)) for host in idle_hosts if rng.random() < spike_prob]
        latencies = _jittered(totals, normals, sigma) if sigma > 0 else totals
        yield t, rates, true_cpu, spikes, latencies
