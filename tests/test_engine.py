import copy
import gc
import math
import pickle
import random
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from rasesim.catalog import Catalog, TrafficPattern, TrafficSegment, VNFDescriptor
from rasesim.engine import (
    MAX_FRAMES,
    EngineConfig,
    InconsistentSchemeError,
    NotAcceptedError,
    _standard_normals,
    sfc_latency,
    simulate,
)
from rasesim.routing import Path
from rasesim.solver import EmbeddingScheme, SfcPlacement, SfcRejection, solve_simple_dijkstra
from rasesim.telemetry import FrameMap
from rasesim.topology import build_network

from helpers import ladder_spec, random_scenario, sfcr, small_catalog, spec_of, star_net
from oracles import per_tick_simulate


def quiet_engine(**overrides) -> EngineConfig:
    settings = dict(duration_s=10.0, sample_interval_s=1.0, jitter_sigma=0.0, idle_spike_prob=0.0)
    settings.update(overrides)
    return EngineConfig(**settings)


# -- engine config --------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"sample_interval_s": 0.0},
        {"sample_interval_s": 20.0, "duration_s": 10.0},
        {"utilization_cap": 1.0},
        {"utilization_cap": 0.0},
        {"jitter_sigma": -0.1},
        {"idle_spike_prob": 1.5},
        {"idle_spike_range": (0.2, 0.1)},
        {"idle_spike_range": (-0.1, 0.1)},
        {"jitter_sigma": 1 / 3},  # truncation at 1 - 3 sigma would allow a zero or negative latency
        {"jitter_sigma": 0.6},
        # NaN fails every range comparison, so each float field is checked for finiteness
        {"duration_s": float("nan")},
        {"duration_s": float("inf")},
        {"sample_interval_s": float("nan")},
        {"utilization_cap": float("nan")},
        {"jitter_sigma": float("nan")},
        {"idle_spike_prob": float("nan")},
        {"idle_spike_range": (float("nan"), 0.1)},
        {"idle_spike_range": (0.05, float("inf"))},
        {"sample_interval_s": 1e-7},  # 6e8 frames at the default 60 s
        {"duration_s": MAX_FRAMES + 1.0},
        {"sample_interval_s": 5e-324},  # duration_s / sample_interval_s overflows to infinity
    ],
)
def test_engine_config_validation(overrides):
    with pytest.raises(ValueError):
        quiet_engine(**overrides)


def test_engine_config_tick_ceiling_is_inclusive():
    assert quiet_engine(duration_s=float(MAX_FRAMES)).ticks == MAX_FRAMES


# -- host utilization ------------------------------------------------------------


def _host_cpu(catalog, vnf: str, rps: float, cpus: int, cap: float = 0.99) -> float:
    """Utilization of the only host in the first frame, idle spikes off."""
    net = build_network(star_net(host_count=1, cpus=cpus))
    requests = [sfcr("r1", [vnf], rps=rps)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    assert scheme.accept_flags() == [True]
    return simulate(net, scheme, requests, catalog, quiet_engine(utilization_cap=cap))[0].host_cpu["h1"]


def test_utilization_direct_arithmetic():
    assert _host_cpu(small_catalog(), "alpha", rps=10.0, cpus=2) == 0.25  # 10 rps * 0.05 CPU-s / 2 CPUs


def test_utilization_exact_fit_reads_the_cap():
    # 4 rps * 0.25 CPU-s fills one CPU exactly (both are binary fractions): raw rho = 1
    catalog = Catalog((VNFDescriptor("quarter", 0.25, 1.0, 64.0),))
    assert _host_cpu(catalog, "quarter", rps=4.0, cpus=1) == 0.99
    assert _host_cpu(catalog, "quarter", rps=4.0, cpus=1, cap=0.9) == 0.9


def test_utilization_idle_host_is_zero():
    spec = star_net(host_count=2, cpus=2)
    net = build_network(spec)
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha"], rps=10.0)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    busy = scheme.accepted()[0].hosts[0]
    idle = next(h for h in net.host_ids() if h != busy)
    for frame in simulate(net, scheme, requests, catalog, quiet_engine()):
        assert frame.host_cpu[idle] == 0.0
        assert frame.host_cpu[busy] == 0.25


# -- latency model ----------------------------------------------------------------


@pytest.fixture
def embedded():
    """One two-VNF chain on a known two-host topology."""
    spec = spec_of(
        [("h1", 4, 1024), ("h2", 4, 1024)],
        [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.25)],
        switches=("sw",), ingress="sw", egress="h2",
    )
    net = build_network(spec)
    catalog = small_catalog()
    request = sfcr("r1", ["alpha", "beta"], rps=10.0, bandwidth=1.0, size_bits=8000.0)
    scheme = solve_simple_dijkstra(net, [request], catalog)
    assert scheme.accept_flags() == [True]
    return net, catalog, request, scheme


def test_latency_zero_load_matches_hand_sum(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    # independent sum: links (both directions) + base service times once
    transmission = 8000.0 / (100.0 * 1000.0)  # ms per link at 100 Mbps
    per_link = {"h1--sw": 0.5 + transmission, "h2--sw": 0.25 + transmission}
    forward = sum(per_link[link] for seg in placement.segments for link in seg.links)
    expected = 2.0 * forward + 2.0 + 4.0  # alpha 2ms, beta 4ms at rho = 0
    got = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0})
    assert got == pytest.approx(expected, rel=1e-12)


def test_latency_half_load_doubles_service_term(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    zero = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0})
    half = sfc_latency(placement, request, net, catalog,
                       {h: 0.5 for h in placement.hosts})
    base_sum = 2.0 + 4.0
    assert half - zero == pytest.approx(base_sum, rel=1e-9)  # 1/(1-0.5) doubles each base


def test_latency_monotone_in_utilization(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    values = [
        sfc_latency(placement, request, net, catalog, {h: rho for h in ("h1", "h2")})
        for rho in [i / 20 for i in range(10)]
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_latency_saturated_term_equals_cap_formula(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    cap = 0.99
    at_cap = sfc_latency(placement, request, net, catalog, {h: cap for h in ("h1", "h2")})
    at_zero = sfc_latency(placement, request, net, catalog, {h: 0.0 for h in ("h1", "h2")})
    assert at_cap - at_zero == pytest.approx((2.0 + 4.0) * (1 / (1 - cap) - 1), rel=1e-9)


def test_latency_requires_capped_utilization(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    with pytest.raises(ValueError):
        sfc_latency(placement, request, net, catalog, {"h1": 1.0, "h2": 0.0})


def test_latency_rejects_unaccepted(embedded):
    net, catalog, request, _ = embedded
    with pytest.raises(NotAcceptedError):
        sfc_latency(SfcRejection("r1", "NoFeasibleHost(position=0)"), request, net, catalog, {})


def test_jitter_multiplier_is_truncated(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    clean = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0})
    sigma = 0.05
    for seed in range(40):
        noisy = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0},
                            jitter_sigma=sigma, rng=random.Random(seed))
        assert clean * (1 - 3 * sigma) <= noisy <= clean * (1 + 3 * sigma)


def test_jittered_latency_takes_one_gauss_draw(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    clean = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0})
    for seed in range(20):
        rng, reference = random.Random(seed), random.Random(seed)
        noisy = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0}, jitter_sigma=0.1, rng=rng)
        noise = reference.gauss(0.0, 0.1)
        assert noisy == clean * (1.0 + max(-3.0 * 0.1, min(3.0 * 0.1, noise)))
        assert rng.getstate() == reference.getstate()  # the second value of the pair stays with the caller's rng


# sigma 0.6 used to give latencies below zero; NaN and a missing rng used to skip the jitter silently
@pytest.mark.parametrize("sigma", [-0.1, 1 / 3, 0.6, float("nan"), float("inf")])
def test_latency_rejects_a_jitter_sigma_outside_its_range(embedded, sigma):
    net, catalog, request, scheme = embedded
    with pytest.raises(ValueError, match="jitter_sigma must be in"):
        sfc_latency(scheme.accepted()[0], request, net, catalog, {"h1": 0.0, "h2": 0.0},
                    jitter_sigma=sigma, rng=random.Random(1))


def test_latency_with_jitter_needs_an_rng(embedded):
    net, catalog, request, scheme = embedded
    placement = scheme.accepted()[0]
    with pytest.raises(ValueError, match="rng"):
        sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0}, jitter_sigma=0.05)
    clean = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0})
    assert sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0}, jitter_sigma=0.0) == clean


def test_standard_normals_are_gauss_draw_for_draw():
    """The tick loop's jitter stream: Random.gauss(0.0, 1.0)'s values with other draws in between."""
    for seed in range(300):
        stream, reference = random.Random(seed), random.Random(seed)
        normals = _standard_normals(stream)
        between = random.Random(-1 - seed)
        for position in range(1, 41):
            z = next(normals)
            assert z == reference.gauss(0.0, 1.0) and math.isfinite(z), (seed, position)
            # after an odd count the pair's second value is pending; spikes draw while it waits
            for _ in range(between.choice((1, 2, 3)) if position % 2 else between.choice((0, 0, 1))):
                if between.random() < 0.5:
                    assert stream.random() == reference.random()
                else:
                    assert stream.uniform(0.05, 0.15) == reference.uniform(0.05, 0.15)
            assert stream.getstate()[1] == reference.getstate()[1], (seed, position)


# -- simulate ---------------------------------------------------------------------


@pytest.fixture
def sim_setup():
    spec = star_net(host_count=3, cpus=4)
    net = build_network(spec)
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha", "gamma"], rps=5.0, duration_s=60.0),
                sfcr("r2", ["beta"], rps=2.0, duration_s=60.0)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    return net, catalog, requests, scheme


def test_simulate_frame_count(sim_setup):
    net, catalog, requests, scheme = sim_setup
    frames = simulate(net, scheme, requests, catalog, quiet_engine(duration_s=60.0))
    assert len(frames) == 60
    timestamps = [f.timestamp_s for f in frames]
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == 60


def test_simulate_same_seed_bit_identical(sim_setup):
    net, catalog, requests, scheme = sim_setup
    cfg = EngineConfig(duration_s=30.0, sample_interval_s=1.0, jitter_sigma=0.05,
                       idle_spike_prob=0.05)
    first = simulate(net, scheme, requests, catalog, cfg, 99)
    second = simulate(net, scheme, requests, catalog, cfg, 99)
    assert first == second


def test_simulate_different_seeds_differ(sim_setup):
    net, catalog, requests, scheme = sim_setup
    base = dict(duration_s=30.0, sample_interval_s=1.0, jitter_sigma=0.05, idle_spike_prob=0.05)
    first = simulate(net, scheme, requests, catalog, EngineConfig(**base), 1)
    second = simulate(net, scheme, requests, catalog, EngineConfig(**base), 2)
    assert first != second


def test_simulate_noise_free_output_is_pure(sim_setup):
    net, catalog, requests, scheme = sim_setup
    runs = [simulate(net, scheme, requests, catalog, quiet_engine(), s) for s in (1, 2)]
    assert runs[0] == runs[1]  # all noise off: output independent of the seed


def test_simulate_latency_sample_per_accepted_sfc(sim_setup):
    net, catalog, requests, scheme = sim_setup
    frames = simulate(net, scheme, requests, catalog, quiet_engine())
    for frame in frames:
        assert set(frame.sfc_latency_ms) == {"r1", "r2"}
        assert set(frame.host_cpu) == {"h1", "h2", "h3"}


def test_simulate_rejects_inconsistent_scheme(sim_setup):
    net, catalog, requests, scheme = sim_setup
    with pytest.raises(InconsistentSchemeError):
        simulate(net, EmbeddingScheme(scheme.outcomes[:1]), requests, catalog, quiet_engine())


def test_simulate_shared_host_couples_latencies():
    """Raising one chain's rate lifts the latency of the chain sharing its host."""
    spec = star_net(host_count=1, cpus=4)
    catalog = small_catalog()
    low = [sfcr("a", ["alpha"], rps=10.0), sfcr("b", ["gamma"], rps=1.0)]
    high = [sfcr("a", ["alpha"], rps=30.0), sfcr("b", ["gamma"], rps=1.0)]
    results = []
    for requests in (low, high):
        net = build_network(spec)
        scheme = solve_simple_dijkstra(net, requests, catalog)
        frames = simulate(net, scheme, requests, catalog, quiet_engine())
        results.append(frames[0].sfc_latency_ms["b"])
    assert results[1] > results[0]


def test_simulate_bandwidth_use_respects_reservations(sim_setup):
    """With demand >= 2 * peak * size, per-link use never exceeds reservations."""
    spec = star_net(host_count=3, cpus=4)
    catalog = small_catalog()
    # peak 10 rps * 8000 bits = 0.08 Mbps one way; 1.0 Mbps demand covers both
    requests = [sfcr(f"r{i}", ["alpha"], rps=10.0, bandwidth=1.0) for i in range(4)]
    net = build_network(spec)
    scheme = solve_simple_dijkstra(net, requests, catalog)
    reserved = {link: float(net.bandwidth_capacity[link] - net.residual_bandwidth[link])
                for link in net.residual_bandwidth}
    frames = simulate(net, scheme, requests, catalog, quiet_engine())
    for frame in frames:
        for link, used in frame.link_bw_mbps.items():
            assert used <= reserved[link] + 1e-12


def test_simulate_link_use_matches_hand_arithmetic():
    """One chain, known route: per-link Mbps is rate * bits * 2 directions."""
    spec = star_net(host_count=2, cpus=4)
    net = build_network(spec)
    catalog = small_catalog()
    request = sfcr("r1", ["alpha"], rps=10.0, size_bits=8000.0)
    scheme = solve_simple_dijkstra(net, [request], catalog)
    placement = scheme.accepted()[0]
    assert placement.hosts == ("h1",)
    frames = simulate(net, scheme, [request], catalog, quiet_engine())
    # sw->h1 (in), h1->sw->h2 (out): h1--sw carries 2 forward traversals, h2--sw one
    expected_h1 = 2 * (10.0 * 8000.0 / 1e6) * 2
    expected_h2 = 1 * (10.0 * 8000.0 / 1e6) * 2
    assert frames[0].link_bw_mbps["h1--sw"] == pytest.approx(expected_h1, rel=1e-12)
    assert frames[0].link_bw_mbps["h2--sw"] == pytest.approx(expected_h2, rel=1e-12)


def test_payload_compounds_through_bandwidth_scales():
    """Each segment carries the payload scaled by every VNF before it: 8000, 4000, 12000 bits."""
    spec = spec_of(
        [("h1", 2, 1024), ("h2", 4, 1024), ("eg", 1, 1024)],
        [("in", "s1", 100, 0.5), ("s1", "h1", 200, 0.25), ("h1", "s2", 50, 1.0),
         ("s2", "h2", 400, 0.125), ("h2", "s3", 25, 2.0), ("s3", "eg", 800, 0.75)],
        switches=("in", "s1", "s2", "s3"), ingress="in", egress="eg",
    )
    net = build_network(spec)
    catalog = Catalog((VNFDescriptor("halve", 0.05, 2.0, 64.0, 0.5),
                       VNFDescriptor("triple", 0.1, 4.0, 64.0, 3.0)))
    request = sfcr("r1", ["halve", "triple"], rps=10.0, size_bits=8000.0)
    placement = SfcPlacement("r1", ("h1", "h2"), (
        Path(("in", "s1", "h1"), ("in--s1", "h1--s1"), 0.75),
        Path(("h1", "s2", "h2"), ("h1--s2", "h2--s2"), 1.125),
        Path(("h2", "s3", "eg"), ("h2--s3", "eg--s3"), 2.75),
    ))
    # (link, delay ms, Mbps, forward payload bits)
    hops = [("in--s1", 0.5, 100, 8000.0), ("h1--s1", 0.25, 200, 8000.0),
            ("h1--s2", 1.0, 50, 4000.0), ("h2--s2", 0.125, 400, 4000.0),
            ("h2--s3", 2.0, 25, 12000.0), ("eg--s3", 0.75, 800, 12000.0)]
    links = 2.0 * sum(delay + bits / (mbps * 1000.0) for _, delay, mbps, bits in hops)

    zero_load = sfc_latency(placement, request, net, catalog, {"h1": 0.0, "h2": 0.0, "eg": 0.0})
    assert zero_load == pytest.approx(links + 2.0 + 4.0, rel=1e-12)

    frame = simulate(net, EmbeddingScheme((placement,)), [request], catalog, quiet_engine())[0]
    # rho: 10 rps * 0.05 CPU-s / 2 CPUs on h1, 10 rps * 0.1 CPU-s / 4 CPUs on h2
    assert frame.host_cpu == {"h1": 0.25, "h2": 0.25, "eg": 0.0}
    assert frame.sfc_latency_ms["r1"] == pytest.approx(links + 2.0 / 0.75 + 4.0 / 0.75, rel=1e-12)
    assert frame.link_bw_mbps == pytest.approx(
        {link: 2.0 * 10.0 * bits / 1e6 for link, _, _, bits in hops}, rel=1e-12)


def test_simulate_idle_spikes_land_in_range():
    spec = star_net(host_count=2, cpus=2)
    net = build_network(spec)
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha"], rps=5.0, duration_s=1000.0)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    busy_host = scheme.accepted()[0].hosts[0]
    idle_host = next(h for h in net.host_ids() if h != busy_host)
    cfg = EngineConfig(duration_s=1000.0, sample_interval_s=1.0, jitter_sigma=0.0,
                       idle_spike_prob=0.01, idle_spike_range=(0.05, 0.15))
    frames = simulate(net, scheme, requests, catalog, cfg, 31)
    spikes = [f.host_cpu[idle_host] for f in frames if f.host_cpu[idle_host] > 0.0]
    assert spikes, "an idle host should spike occasionally"
    assert all(0.05 <= s <= 0.15 for s in spikes)
    assert all(f.host_cpu[busy_host] > 0 for f in frames)


# -- per-epoch engine against the per-tick reference -------------------------------


def _random_traffic(rng: random.Random, cfg: EngineConfig) -> TrafficPattern:
    """Contiguous segments whose bounds fall on ticks, between ticks or past the run, some at rate 0."""
    ticks = [tick * cfg.sample_interval_s for tick in range(cfg.ticks + 2)]
    bounds = {rng.choice(ticks) + rng.choice((0.0, 0.0, 0.5 * cfg.sample_interval_s))
              for _ in range(rng.randint(2, 6))}
    bounds = sorted(bounds)
    if len(bounds) < 2:
        bounds.append(bounds[0] + cfg.sample_interval_s)
    return TrafficPattern(tuple(TrafficSegment(start, end, rng.choice((0.0, 0.0, 1.0, 5.0, 20.0, 60.0)))
                                for start, end in zip(bounds, bounds[1:])))


def test_simulate_equals_the_per_tick_reference():
    """Caching per traffic epoch changes no frame and no random draw."""
    covered = {"spikes": 0, "jitter": 0, "three epochs": 0, "carried half-pair": 0}
    for seed in range(60):
        rng = random.Random(seed)
        spec, catalog, requests = random_scenario(rng)
        cfg = EngineConfig(duration_s=rng.choice((5.0, 10.0)), sample_interval_s=rng.choice((0.1, 0.5, 1.0)),
                           jitter_sigma=rng.choice((0.0, 0.05, 0.3)), idle_spike_prob=rng.choice((0.0, 0.3, 1.0)))
        requests = [replace(r, offered_load=_random_traffic(rng, cfg)) for r in requests]
        net = build_network(spec)
        scheme = solve_simple_dijkstra(net, requests, catalog)
        frames = simulate(net, scheme, requests, catalog, cfg, seed)
        assert frames == per_tick_simulate(net, scheme, requests, catalog, cfg, seed), seed

        calm = simulate(net, scheme, requests, catalog, replace(cfg, idle_spike_prob=0.0), seed)
        spiked = any(f.host_cpu != c.host_cpu for f, c in zip(frames, calm))
        covered["spikes"] += spiked
        covered["jitter"] += cfg.jitter_sigma > 0 and bool(scheme.accepted())
        # an odd count of chains leaves a pair's second value pending across the next tick's spike draws
        covered["carried half-pair"] += cfg.jitter_sigma > 0 and len(scheme.accepted()) % 2 == 1 and spiked
        covered["three epochs"] += len({tuple(f.link_bw_mbps.values()) for f in frames}) >= 3
    assert min(covered.values()) >= 5, covered


def _two_epoch_setup():
    net = build_network(star_net(host_count=3, cpus=2))
    catalog = small_catalog()
    # r1's traffic ends at 10 s, so ticks 0-9 and 10-19 are two traffic epochs; h3 idles throughout
    requests = [sfcr("r1", ["alpha"], rps=5.0, duration_s=10.0), sfcr("r2", ["beta"], rps=2.0, duration_s=20.0)]
    return net, catalog, requests, solve_simple_dijkstra(net, requests, catalog)


def test_calm_frames_of_one_traffic_epoch_share_their_maps():
    """What makes a run small and its report cheap to write: an epoch's calm frames hold one host and one link map."""
    net, catalog, requests, scheme = _two_epoch_setup()
    frames = simulate(net, scheme, requests, catalog, quiet_engine(duration_s=20.0, jitter_sigma=0.05))
    for epoch in (frames[:10], frames[10:]):
        assert all(f.host_cpu is epoch[0].host_cpu and f.link_bw_mbps is epoch[0].link_bw_mbps for f in epoch)
    # a new epoch gets new map objects
    assert frames[10].host_cpu is not frames[9].host_cpu and frames[10].link_bw_mbps is not frames[9].link_bw_mbps
    assert frames[10].host_cpu != frames[9].host_cpu and frames[10].link_bw_mbps != frames[9].link_bw_mbps
    # the frames alive together, so distinct ids are distinct latency maps, though they share one id tuple
    assert len({id(f.sfc_latency_ms) for f in frames}) == len(frames)


def test_the_frames_of_one_run_share_one_id_tuple_and_each_hold_an_array_of_latencies():
    """Column-store latencies: one tuple of the accepted ids and one index per run, one array('d') per frame."""
    net, catalog, requests, scheme = _two_epoch_setup()
    frames = simulate(net, scheme, requests, catalog, quiet_engine(duration_s=20.0, jitter_sigma=0.05))
    first = frames[0].sfc_latency_ms
    assert first._ids == ("r1", "r2") and all(a is r.sfcr_id for a, r in zip(first, requests))
    for frame in frames:
        latency = frame.sfc_latency_ms
        assert latency._ids is first._ids and latency._index is first._index
        values = latency.values()
        assert type(values) is array and values.typecode == "d" and len(values) == len(latency) == 2
        # a read-only Mapping equal to the dict the frame used to hold, either way round
        as_dict = dict(zip(latency._ids, values))
        assert latency == as_dict and as_dict == latency and dict(latency) == as_dict
        assert [*latency.items()] == [*as_dict.items()] and [*latency.keys()] == ["r1", "r2"]
        assert latency.get("r2") == latency["r2"] == values[1] and "r1" in latency
    assert len({id(f.sfc_latency_ms.values()) for f in frames}) == len(frames)


def test_a_frame_s_latency_map_refuses_every_change():
    net, catalog, requests, scheme = _two_epoch_setup()
    frame = simulate(net, scheme, requests, catalog, quiet_engine())[0]
    latency = frame.sfc_latency_ms
    before = dict(latency)
    with pytest.raises(TypeError):
        latency["r1"] = 1.0
    with pytest.raises(TypeError):
        latency["added"] = 1.0
    with pytest.raises(TypeError):
        del latency["r1"]
    with pytest.raises(AttributeError):
        latency.values_of_another_run = ()  # __slots__: no attribute can be added
    assert dict(latency) == before
    assert "absent" not in latency and latency.get("absent") is None and latency.get("absent", 0.5) == 0.5
    with pytest.raises(KeyError):
        latency["absent"]
    # an unhashable key is a TypeError, as a dict's is
    for look_up in (latency.__getitem__, latency.get, latency.__contains__):
        with pytest.raises(TypeError):
            look_up([])
    # the frame is read-only and slotted: it refuses new attributes, as its FrameMaps do. A frozen slotted
    # dataclass's __setattr__ raises TypeError, not FrozenInstanceError, for a name that is not a field on
    # Python 3.10-3.13, and that stays: __slots__ declared by hand on a frozen dataclass would raise
    # FrozenInstanceError here, but makes pickle and copy.deepcopy of a frame raise it too (see
    # test_a_simulated_frame_round_trips_through_pickle_and_deepcopy)
    with pytest.raises((AttributeError, TypeError)):
        frame.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(frame, "extra", 1)


def _spiking_frames():
    """_two_epoch_setup's run with an idle host that spikes on about half the ticks."""
    net, catalog, requests, scheme = _two_epoch_setup()
    cfg = EngineConfig(duration_s=20.0, sample_interval_s=1.0, jitter_sigma=0.05, idle_spike_prob=0.5)
    return net, simulate(net, scheme, requests, catalog, cfg, 3)


def test_every_map_of_a_run_is_a_frame_map_sharing_its_kind_s_one_key_tuple():
    """Hosts and links are stored by column too: one key tuple and index per kind and run, in spec order."""
    net, frames = _spiking_frames()
    assert 2 < len({id(f.host_cpu) for f in frames}) < len(frames), "spiked ticks among calm ones"
    kinds = {"host_cpu": tuple(h.id for h in net.spec.hosts),
             "link_bw_mbps": tuple(l.link_id for l in net.spec.links), "sfc_latency_ms": ("r1", "r2")}
    for kind, keys in kinds.items():
        maps = [getattr(frame, kind) for frame in frames]
        first = maps[0]
        assert first._ids == keys and first._index == {key: index for index, key in enumerate(keys)}, kind
        for mapping in maps:
            assert type(mapping) is FrameMap and mapping._ids is first._ids and mapping._index is first._index
            assert type(mapping.values()) is array and mapping.values().typecode == "d"
            assert dict(zip(keys, mapping.values())) == mapping
    for mapping in (frames[0].host_cpu, frames[0].link_bw_mbps):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = 1.0
        with pytest.raises(TypeError):
            mapping["added"] = 1.0
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):
            mapping.extra = ()


def test_a_simulated_frame_round_trips_through_pickle_and_deepcopy():
    """Why TelemetryFrame's slots come from dataclass(slots=True), not a hand-written __slots__.

    Declared by hand on a frozen dataclass, __slots__ would make a new
    attribute a FrozenInstanceError, but unpickling and deepcopy set the
    slots through the frozen __setattr__ and raise it too (Python 3.10-3.13).
    """
    _, frames = _spiking_frames()
    for copied in (pickle.loads(pickle.dumps(frames)), copy.deepcopy(frames)):
        assert copied == frames
        for back, frame in zip(copied, frames):
            for kind in ("host_cpu", "link_bw_mbps", "sfc_latency_ms"):
                mapping = getattr(back, kind)
                assert type(mapping) is FrameMap and [*mapping.items()] == [*getattr(frame, kind).items()], kind
        # one pickle or deepcopy of the frames keeps the maps they share shared
        for back, last, frame, before in zip(copied[1:], copied, frames[1:], frames):
            assert (back.host_cpu is last.host_cpu) == (frame.host_cpu is before.host_cpu)
            assert (back.link_bw_mbps is last.link_bw_mbps) == (frame.link_bw_mbps is before.link_bw_mbps)


def test_the_frames_hold_at_most_20_bytes_per_latency_sample():
    """48 chains over 600 ticks: the frames cost about 16 bytes a sample, where a dict of floats per frame cost 62.

    The bytes are those that dropping the frames frees under tracemalloc, the
    frame objects and the spiked ticks' host_cpu copies included.
    """
    net = build_network(ladder_spec(50))
    catalog = small_catalog()
    chains = (["alpha"], ["alpha", "beta"], ["gamma", "alpha", "beta"])
    requests = [sfcr(f"r{i:02d}", chains[i % 3], rps=2.0 + i % 5, duration_s=600.0) for i in range(48)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    assert all(scheme.accept_flags())
    cfg = EngineConfig(duration_s=600.0, sample_interval_s=1.0)
    tracemalloc.start()
    try:
        frames = simulate(net, scheme, requests, catalog, cfg, 1)
        samples = sum(map(len, (f.sfc_latency_ms for f in frames)))
        held = tracemalloc.get_traced_memory()[0]
        del frames
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert samples == 600 * 48
    assert held <= 20 * samples, held / samples


def test_a_spiked_tick_gets_its_own_host_cpu():
    """A spiked tick's host_cpu is a copy with its spikes; the epoch's map keeps its values for the next calm tick."""
    net, catalog, requests, scheme = _two_epoch_setup()
    cfg = EngineConfig(duration_s=20.0, sample_interval_s=1.0, jitter_sigma=0.05, idle_spike_prob=0.5)
    frames = simulate(net, scheme, requests, catalog, cfg, 3)
    calm = simulate(net, scheme, requests, catalog, replace(cfg, idle_spike_prob=0.0), 3)
    shared_maps, spiked_maps, back_after_spike = [], [], 0
    for ticks in (range(10), range(10, 20)):
        true_cpu = calm[ticks[0]].host_cpu
        shared = None
        for tick in ticks:
            host_cpu = frames[tick].host_cpu
            spikes = {h: v for h, v in host_cpu.items() if v != true_cpu[h]}
            if not spikes:
                if shared is None:
                    shared = host_cpu
                assert host_cpu is shared, tick
                back_after_spike += tick > ticks[0] and frames[tick - 1].host_cpu is not shared
                continue
            assert host_cpu == {**true_cpu, **spikes} and all(true_cpu[h] == 0.0 for h in spikes), tick
            assert all(cfg.idle_spike_range[0] <= v <= cfg.idle_spike_range[1] for v in spikes.values()), tick
            spiked_maps.append(host_cpu)
        assert shared == true_cpu  # the epoch's map keeps its values through the spiked ticks
        shared_maps.append(shared)
    assert back_after_spike > 0 and spiked_maps
    assert len({id(m) for m in shared_maps + spiked_maps}) == len(shared_maps) + len(spiked_maps)
