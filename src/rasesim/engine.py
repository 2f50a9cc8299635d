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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .catalog import Catalog, SFCRequest
from .errors import RaseSimError
from .solver import EmbeddingScheme, InconsistentSchemeError, SfcPlacement, verify_scheme
from .telemetry import TelemetryFrame
from .topology import SubstrateNetwork

__all__ = [
    "EngineError",
    "NotAcceptedError",
    "InconsistentSchemeError",
    "EngineConfig",
    "MAX_FRAMES",
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
    # a run derives the seed from its config's, so it is neither read, written nor digested
    seed: int = field(default=0, compare=False)

    def __post_init__(self):
        # every check is a range written so that NaN, which fails every comparison, fails it too
        if not 0 < self.sample_interval_s <= self.duration_s < math.inf:
            raise ValueError("need 0 < sample_interval_s <= duration_s, both finite")
        frames = self.duration_s / self.sample_interval_s  # infinity where the quotient overflows
        if frames + 1e-9 >= MAX_FRAMES + 1:  # self.ticks > MAX_FRAMES, without int(infinity)
            raise ValueError(f"duration_s / sample_interval_s gives {frames:.0f} frames; "
                             f"at most {MAX_FRAMES} are allowed")
        if not 0 < self.utilization_cap < 1:
            raise ValueError("utilization_cap must be in (0, 1)")
        # the jitter multiplier is truncated at 1 - 3 sigma, which must stay positive
        if not 0 <= self.jitter_sigma < 1 / 3:
            raise ValueError("jitter_sigma must be in [0, 1/3)")
        if not 0 <= self.idle_spike_prob <= 1:
            raise ValueError("idle_spike_prob must be in [0, 1]")
        low, high = self.idle_spike_range
        if not 0 <= low <= high <= 1:
            raise ValueError("idle_spike_range must satisfy 0 <= low <= high <= 1")

    @property
    def ticks(self) -> int:
        """Number of sampling ticks, one telemetry frame each."""
        return int(self.duration_s / self.sample_interval_s + 1e-9)


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


def _jittered(total: float, jitter_sigma: float, rng: random.Random) -> float:
    """total times 1 + N(0, sigma), the noise truncated at three sigmas; one gauss draw."""
    noise = rng.gauss(0.0, jitter_sigma)
    noise = max(-3.0 * jitter_sigma, min(3.0 * jitter_sigma, noise))
    return total * (1.0 + noise)


def sfc_latency(placement, sfcr: SFCRequest, net: SubstrateNetwork, catalog: Catalog,
                utilization: Mapping[str, float], jitter_sigma: float = 0.0,
                rng: random.Random | None = None) -> float:
    """Round-trip latency in ms for one embedded chain at given host loads.

    The response retraces the forward links in reverse, so link terms count
    twice; VNF service terms count once. Jitter, when enabled, multiplies the
    total by 1 + N(0, sigma) truncated at three sigmas.
    """
    if not isinstance(placement, SfcPlacement):
        raise NotAcceptedError(f"SFC {getattr(placement, 'sfcr_id', placement)!r} was not accepted")
    link_term, positions, _ = _walk(placement, sfcr, net, catalog)
    total = _latency(link_term, positions, utilization)
    if jitter_sigma > 0 and rng is not None:
        total = _jittered(total, jitter_sigma, rng)
    return total


def simulate(net: SubstrateNetwork, scheme: EmbeddingScheme, sfcrs: Sequence[SFCRequest],
             catalog: Catalog, cfg: EngineConfig) -> list[TelemetryFrame]:
    """Run the fluid model and emit one telemetry frame per sampling tick.

    True host utilizations, per-link bandwidth use counting both directions
    and each chain's latency before jitter depend on the offered rates alone,
    so they are computed once per traffic epoch (a run of ticks whose rates
    are all equal). The random draws stay per tick, in fixed order: idle-spike
    noise for hosts at exactly zero load (hosts in declaration order), then
    one jitter draw per accepted SFC in submission order. Every frame has its
    own dicts. Deterministic given cfg.seed.
    """
    # verify_scheme also guarantees that the outcomes line up with sfcrs
    verify_scheme(net.spec, sfcrs, catalog, scheme)
    rng = random.Random(cfg.seed)

    host_ids = net.host_ids()
    link_ids = [l.link_id for l in net.spec.links]
    # accepted chains in submission order: (sfcr, link term, positions); host and link
    # entries: (chain index, cpu_per_request or forward payload bits per request)
    chains = []
    host_loads: dict[str, list[tuple[int, float]]] = {h: [] for h in host_ids}
    link_traversals: dict[str, list[tuple[int, float]]] = {l: [] for l in link_ids}
    for outcome, sfcr in zip(scheme.outcomes, sfcrs):
        if isinstance(outcome, SfcPlacement):
            link_term, positions, traversals = _walk(outcome, sfcr, net, catalog)
            for host, vnf in positions:
                host_loads[host].append((len(chains), vnf.cpu_per_request))
            for link, bits in traversals:
                link_traversals[link].append((len(chains), bits))
            chains.append((sfcr, link_term, positions))

    cpus = {h.id: float(h.cpus) for h in net.spec.hosts}
    sfcr_ids = [sfcr.sfcr_id for sfcr, _, _ in chains]
    patterns = [sfcr.offered_load for sfcr, _, _ in chains]
    sigma = cfg.jitter_sigma
    low, high = cfg.idle_spike_range
    frames: list[TelemetryFrame] = []
    rates = None
    for tick in range(cfg.ticks):
        t = tick * cfg.sample_interval_s
        tick_rates = [pattern.rate_at(t) for pattern in patterns]
        if tick_rates != rates:
            # a new traffic epoch: every term below is a pure function of the rates
            rates = tick_rates
            true_cpu: dict[str, float] = {}
            for host in host_ids:
                raw = sum(rates[index] * cost for index, cost in host_loads[host]) / cpus[host]
                true_cpu[host] = min(cfg.utilization_cap, raw)
            idle_hosts = [host for host in host_ids if true_cpu[host] == 0.0]
            link_bw = {
                link: 2.0 * sum(rates[index] * bits for index, bits in link_traversals[link]) / 1e6
                for link in link_ids
            }
            totals = [_latency(link_term, positions, true_cpu) for _, link_term, positions in chains]
        # spikes are observation noise only; latency uses true_cpu
        observed_cpu = dict(true_cpu)
        for host in idle_hosts:
            if rng.random() < cfg.idle_spike_prob:
                observed_cpu[host] = rng.uniform(low, high)
        if sigma > 0:
            latencies = {sfcr_id: _jittered(total, sigma, rng) for sfcr_id, total in zip(sfcr_ids, totals)}
        else:
            latencies = dict(zip(sfcr_ids, totals))
        frames.append(TelemetryFrame(t, observed_cpu, dict(link_bw), latencies))
    return frames
