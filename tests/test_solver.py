import heapq
import random
import re
import types
from collections import Counter
from fractions import Fraction

import pytest

from rasesim import solver
from rasesim.catalog import Catalog, VNFDescriptor, generate_sfcrs
from rasesim.engine import EngineConfig, simulate
from rasesim.solver import (
    EmbeddingScheme,
    EmptyInputError,
    Fitness,
    GeneCountMismatchError,
    InconsistentSchemeError,
    InvalidParamsError,
    SfcPlacement,
    SfcRejection,
    _demand_table,
    _unit_table,
    acceptance_ratio,
    compare_fitness,
    crossover,
    decode_chromosome,
    mutate,
    solve_simple_dijkstra,
    tournament_select,
    verify_scheme,
    vnf_cpu_demand,
)
from rasesim.routing import Path
from rasesim.topology import build_network

from helpers import random_scenario, sfcr, small_catalog, spec_of, star_net
from oracles import charge_through_public_api, cpu_packing_outcomes


def test_acceptance_ratio_values():
    assert acceptance_ratio([True] * 24 + [False] * 8) == 0.75
    assert acceptance_ratio([True] * 4) == 1.0
    assert acceptance_ratio([False, False]) == 0.0
    with pytest.raises(EmptyInputError):
        acceptance_ratio([])


def test_fitness_prefers_full_acceptance_despite_latency():
    assert compare_fitness(Fitness(1.0, 381.38), Fitness(0.75, 100.0)) == 1


def test_fitness_second_key_and_equality():
    assert compare_fitness(Fitness(1.0, 50.0), Fitness(1.0, 60.0)) == 1
    assert compare_fitness(Fitness(0.5, 10.0), Fitness(0.5, 10.0)) == 0
    assert compare_fitness(Fitness(0.0, None), Fitness(0.25, 9999.0)) == -1
    assert compare_fitness(Fitness(0.0, None), Fitness(0.0, None)) == 0


def test_greedy_accepts_single_sfcr_with_ample_capacity():
    net = build_network(star_net(host_count=3))
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["alpha", "beta"])], small_catalog())
    assert scheme.acceptance_ratio() == 1.0
    placement = scheme.accepted()[0]
    assert len(placement.hosts) == 2
    assert len(placement.segments) == 3  # ingress->v1, v1->v2, v2->egress


def test_greedy_rejection_restores_residuals_bit_identically():
    net = build_network(star_net(host_count=2, cpus=1))
    before = net.residual_snapshot()
    # alpha at 100 rps needs 5 CPUs; no host has that
    scheme = solve_simple_dijkstra(net, [sfcr("big", ["alpha"], rps=100.0)], small_catalog())
    assert scheme.accept_flags() == [False]
    assert scheme.rejected()[0].reason == "NoFeasibleHost(position=0)"
    assert net.residual_snapshot() == before


def test_demand_table_rows_are_the_exact_demands():
    catalog = small_catalog()
    templates = [sfcr("web", ["alpha", "gamma"], rps=30.0, bandwidth=2.5), sfcr("cache", ["beta"], rps=7.0)]
    requests = generate_sfcrs(templates, 3) + [sfcr("faster", ["alpha", "gamma"], rps=31.0, bandwidth=2.5)]
    table = _demand_table(requests, catalog)
    assert len(table) == len(requests)
    for request, (bandwidth, positions) in zip(requests, table):
        assert type(bandwidth) is Fraction and bandwidth == Fraction(request.bandwidth_mbps)
        assert len(positions) == len(request.chain)
        for position, (cpu, memory) in enumerate(positions):
            assert type(cpu) is Fraction and cpu == vnf_cpu_demand(catalog, request, position)
            assert type(memory) is Fraction and memory == Fraction(catalog.get(request.chain[position]).memory_mb)
    # the copies of one template share one row; a request with another peak rate has its own
    assert table[0] is table[1] is table[2]
    assert table[3] is table[4] is table[5] and table[3] is not table[0]
    assert table[6] is not table[0] and table[6] != table[0]


def _partial_charge_spec():
    """Two 2-CPU hosts, and a 1-CPU egress host h3 behind a 5 Mbps link."""
    return spec_of([("h1", 2, 1024), ("h2", 2, 1024), ("h3", 1, 1024)],
                   [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.5), ("sw", "h3", 5, 0.5)],
                   switches=("sw",), ingress="sw", egress="h3")


@pytest.mark.parametrize("embed", [
    lambda net, request: solve_simple_dijkstra(net, [request], small_catalog()),
    lambda net, request: decode_chromosome(net, [request], small_catalog(), ("h1", "h2", "h1")[:len(request.chain)]),
], ids=["greedy", "decode"])
@pytest.mark.parametrize("request_, reason", [
    # alpha at 30 rps needs 1.5 CPUs: h1 and h2 take one each, and the third fits nowhere
    (sfcr("r1", ["alpha", "alpha", "alpha"], rps=30.0), "NoFeasibleHost(position=2)"),
    # both VNFs and two segments are charged before the 10 Mbps chain meets the 5 Mbps egress link
    (sfcr("r1", ["alpha", "alpha"], rps=30.0, bandwidth=10.0), "NoPath(segment=2)"),
], ids=["host", "route"])
def test_rejection_after_partial_charges_restores_every_residual(embed, request_, reason):
    """Each reason implies that earlier positions, or segments, were charged before the failure."""
    net = build_network(_partial_charge_spec())
    before = net.residual_snapshot()
    assert embed(net, request_).outcomes == (SfcRejection("r1", reason),)
    assert net.residual_snapshot() == before


def test_greedy_places_on_max_residual_host_with_lowest_id_ties():
    net = build_network(star_net(host_count=3, cpus=4))
    net.allocate_cpu("h1", 1)  # h2 and h3 tie at 4 CPUs; h2 wins by id
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["alpha"], rps=10.0)], small_catalog())
    assert scheme.accepted()[0].hosts == ("h2",)


def test_greedy_spreads_load_by_residual():
    net = build_network(star_net(host_count=2, cpus=4))
    # two single-VNF chains at 20 rps: 1 CPU each; second must go to the other host
    scheme = solve_simple_dijkstra(
        net, [sfcr("r1", ["alpha"], rps=20.0), sfcr("r2", ["alpha"], rps=20.0)], small_catalog()
    )
    hosts = [p.hosts[0] for p in scheme.accepted()]
    assert sorted(hosts) == ["h1", "h2"]


def test_greedy_memory_constraint_excludes_host():
    spec = spec_of([("h1", 8, 100), ("h2", 2, 2048)],
                   [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.5)],
                   switches=("sw",), ingress="sw", egress="h2")
    net = build_network(spec)
    # beta's 128 MB footprint cannot fit h1 despite its larger CPU residual
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["beta"], rps=1.0)], small_catalog())
    assert scheme.accepted()[0].hosts == ("h2",)


def test_greedy_tops_that_lack_memory_are_set_aside_and_win_a_later_position():
    """h1 and h2 hold the most CPU but only 64 MB: set aside for beta's 128 MB, back for the next position."""
    spec = spec_of([("h1", 8, 64), ("h2", 8, 64), ("h3", 4, 1024), ("h4", 4, 1024)],
                   [("sw", h, 100, 0.5) for h in ("h1", "h2", "h3", "h4")],
                   switches=("sw",), ingress="sw", egress="h4")
    requests = [sfcr("r1", ["beta", "gamma"]), sfcr("r2", ["beta", "alpha"]), sfcr("r3", ["alpha"])]
    scheme = solve_simple_dijkstra(build_network(spec), requests, small_catalog())
    # r1: beta 1 CPU to h3 (tie with h4), gamma to h1 (tie with h2), leaving h1 32 MB; r2: beta to h4, alpha
    # to h2 (8 > 7.8 CPU), leaving it no memory; r3: h2 and h1 set aside again, h3 and h4 tie at 3 CPUs
    assert [p.hosts for p in scheme.accepted()] == [("h3", "h1"), ("h4", "h2"), ("h3",)]


def test_greedy_host_rolled_back_wins_the_next_request():
    """r1's alpha takes 2.5 CPU from h1, its beta fits nowhere; once rolled back, h1 again has the most CPU."""
    spec = spec_of([("h1", 4, 1024), ("h2", 2, 1024)], [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.5)],
                   switches=("sw",), ingress="sw", egress="h2")
    net = build_network(spec)
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["alpha", "beta"], rps=50.0), sfcr("r2", ["alpha"], rps=20.0)],
                                   small_catalog())
    assert scheme.outcomes[0] == SfcRejection("r1", "NoFeasibleHost(position=1)")
    assert scheme.accepted()[0].hosts == ("h1",)


def test_greedy_after_a_non_dyadic_charge_equals_the_decode_of_its_placements():
    """A third of a CPU charged on h2 makes the CPU scale a multiple of 3; the heap's order still holds exactly."""
    spec = star_net(host_count=3, cpus=2)
    requests = [sfcr(f"r{i}", ["alpha"]) for i in range(14)]  # a hair above 0.5 CPU each, as 0.05 is
    greedy_net, decode_net = build_network(spec), build_network(spec)
    for net in (greedy_net, decode_net):
        net.allocate_cpu("h2", Fraction(1, 3))
    greedy = solve_simple_dijkstra(greedy_net, requests, small_catalog())
    assert greedy_net.cpu.scale % 3 == 0
    # h2's 5/3 CPU is below h1's and h3's 2 until each has taken one request, then above their 1.5, and so
    # on down; after nine, no host has another 0.5 left
    assert [p.hosts[0] for p in greedy.accepted()] == ["h1", "h3", "h2"] * 3
    chromosome = tuple(o.hosts[0] if isinstance(o, SfcPlacement) else "sw" for o in greedy.outcomes)
    decoded = decode_chromosome(decode_net, requests, small_catalog(), chromosome)
    assert decoded.accept_flags() == greedy.accept_flags()
    assert decoded.accepted() == greedy.accepted()
    assert decode_net.residual_snapshot() == greedy_net.residual_snapshot()


def test_greedy_routing_failure_rolls_back_everything():
    # bandwidth floor of 10 can never be met towards the egress
    spec = spec_of([("h1", 8, 1024), ("h2", 8, 1024)],
                   [("sw", "h1", 100, 0.5), ("sw", "h2", 5, 0.5)],
                   switches=("sw",), ingress="sw", egress="h2")
    net = build_network(spec)
    before = net.residual_snapshot()
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["alpha"], rps=1.0, bandwidth=10.0)], small_catalog())
    rejection = scheme.rejected()[0]
    assert rejection.reason == "NoPath(segment=1)"
    assert net.residual_snapshot() == before


@pytest.mark.parametrize("host_count", [8, 16, 32])
def test_greedy_heap_pushes_equal_its_cpu_charges_and_rollbacks(host_count, monkeypatch):
    """A counted contract: where memory never binds, the greedy heap gets one entry per CPU charge and rollback.

    One-CPU hosts run out of CPU (NoFeasibleHost(position=k) charged
    positions 0..k-1) and a thin egress link runs out of bandwidth after
    every position was charged (NoPath); a VNF of no CPU is never charged.
    """
    counts = Counter()

    def counted(name):
        return lambda *args: counts.update([name]) or getattr(heapq, name)(*args)

    monkeypatch.setattr(solver, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=counted("heappush"), heappop=counted("heappop")))
    rng = random.Random(host_count)
    catalog = Catalog((VNFDescriptor("light", 0.01, 1.0, 1.0), VNFDescriptor("heavy", 0.05, 1.0, 1.0),
                       VNFDescriptor("free", 0.0, 1.0, 1.0)))
    hosts = [(f"h{i:02d}", 1, 1e9) for i in range(host_count)]
    links = [("sw", host, float(host_count) if host == hosts[-1][0] else 1e6, 0.5) for host, _, _ in hosts]
    net = build_network(spec_of(hosts, links, switches=("sw",), ingress="sw"))
    requests = [sfcr(f"r{i}", rng.choices(catalog.names(), k=rng.randint(1, 3)), rps=rng.choice((5.0, 10.0, 20.0)),
                     bandwidth=rng.choice((0.5, 1.0))) for i in range(3 * host_count)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    charges = rollbacks = 0
    for outcome, request in zip(scheme.outcomes, requests):
        placed = re.fullmatch(r"NoFeasibleHost\(position=(\d+)\)", getattr(outcome, "reason", ""))
        charged = sum(vnf_cpu_demand(catalog, request, k) > 0
                      for k in range(int(placed[1]) if placed else len(request.chain)))
        charges += charged
        rollbacks += charged if isinstance(outcome, SfcRejection) else 0
    reasons = {outcome.reason for outcome in scheme.rejected()}
    assert scheme.accepted() and any(reason.startswith("NoPath") for reason in reasons)
    assert any(reason.startswith("NoFeasibleHost") and reason != "NoFeasibleHost(position=0)" for reason in reasons)
    assert counts["heappush"] == charges + rollbacks
    assert counts["heappop"] <= host_count + counts["heappush"]


def test_greedy_charges_exactly_the_accepted_demands():
    """Rollback exactness: residuals recompute from accepted placements alone."""
    rng = random.Random(1311)
    for _ in range(100):
        spec, catalog, sfcrs = random_scenario(rng)
        net = build_network(spec)
        scheme = solve_simple_dijkstra(net, sfcrs, catalog)
        by_id = {s.sfcr_id: s for s in sfcrs}
        expected_cpu = {h.id: Fraction(h.cpus) for h in spec.hosts}
        for placement in scheme.accepted():
            request = by_id[placement.sfcr_id]
            for position, host in enumerate(placement.hosts):
                expected_cpu[host] -= vnf_cpu_demand(catalog, request, position)
        assert net.residual_cpu == expected_cpu


def test_integer_charges_equal_the_public_api_on_random_scenarios():
    """The embedding loop charges whole units itself; booking its accepted placements through
    allocate_cpu, allocate_memory and allocate_bandwidth on a fresh network leaves the same residuals."""
    rng = random.Random(4099)
    accepted = rejected = 0
    for _ in range(100):
        spec, catalog, sfcrs = random_scenario(rng)
        greedy_net, decode_net = build_network(spec), build_network(spec)
        greedy = solve_simple_dijkstra(greedy_net, sfcrs, catalog)
        chromosome = tuple(rng.choice(spec.hosts).id for request in sfcrs for _ in request.chain)
        decoded = decode_chromosome(decode_net, sfcrs, catalog, chromosome)
        for net, scheme in ((greedy_net, greedy), (decode_net, decoded)):
            expected = charge_through_public_api(build_network(spec), sfcrs, catalog, scheme)
            assert net.residual_snapshot() == expected.residual_snapshot()
            accepted += len(scheme.accepted())
            rejected += len(scheme.rejected())
    assert accepted > 0 and rejected > 0  # rollbacks must be among the charges compared


def test_rows_converted_at_other_scales_are_converted_afresh():
    """Rows converted before the network's CPU scale grew by 3, and rows converted on a network with
    other capacities, still charge exactly what the public API charges."""
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha", "beta"], rps=7.0), sfcr("r2", ["gamma"], rps=3.0, bandwidth=0.1)]
    chromosome = ("h1", "h2", "h1")
    spec = star_net(host_count=2)
    other = star_net(host_count=2, cpus=3, memory=1000.25, bandwidth=999.125)

    grown, expected = build_network(spec), build_network(spec)
    table = _unit_table(grown, _demand_table(requests, catalog))
    for net in (grown, expected):
        net.allocate_cpu("h1", Fraction(1, 3))
    assert grown.cpu.scale == 3 * table.scales[0]
    foreign = _unit_table(build_network(other), _demand_table(requests, catalog))
    assert foreign.scales != _unit_table(build_network(spec), foreign.exact).scales
    for net, demands, start in ((grown, table, expected), (build_network(spec), foreign, build_network(spec))):
        scheme = decode_chromosome(net, requests, catalog, chromosome, demands=demands)
        assert scheme.accept_flags() == [True, True]
        charged = charge_through_public_api(start, requests, catalog, scheme)
        assert net.residual_snapshot() == charged.residual_snapshot()


def test_greedy_agrees_with_cpu_packing_oracle_when_cpu_is_binding():
    """With ample memory and bandwidth, pure CPU arithmetic predicts outcomes."""
    catalog = small_catalog()
    net = build_network(star_net(host_count=3, cpus=2, memory=10_000, bandwidth=10_000))
    sfcrs = [sfcr(f"r{i}", ["alpha", "beta"], rps=8.0) for i in range(10)]
    scheme = solve_simple_dijkstra(net, sfcrs, catalog)
    demands = [
        [vnf_cpu_demand(catalog, s, p) for p in range(len(s.chain))]
        for s in sfcrs
    ]
    expected = cpu_packing_outcomes({"h1": 2, "h2": 2, "h3": 2}, demands)
    assert scheme.accept_flags() == expected
    assert 0 < sum(expected) < len(expected)  # the case must actually mix outcomes


def test_verify_scheme_passes_greedy_output_and_catches_tampering():
    net = build_network(star_net(host_count=3))
    catalog = small_catalog()
    sfcrs = [sfcr("r1", ["alpha", "gamma"]), sfcr("r2", ["beta"])]
    scheme = solve_simple_dijkstra(net, sfcrs, catalog)
    verify_scheme(net.spec, sfcrs, catalog, scheme)

    good = scheme.accepted()[0]
    tampered = EmbeddingScheme(tuple(
        SfcPlacement(o.sfcr_id, ("h1",) * len(o.hosts), o.segments) if isinstance(o, SfcPlacement) and o is good
        else o
        for o in scheme.outcomes
    ))
    with pytest.raises(InconsistentSchemeError):
        verify_scheme(net.spec, sfcrs, catalog, tampered)


def test_verify_scheme_rejects_overloaded_host():
    from rasesim.routing import shortest_path

    net = build_network(star_net(host_count=1, cpus=1))
    requests = [sfcr("r1", ["alpha"], rps=100.0)]  # 5 CPUs on a 1-CPU host
    # honest segments, impossible placement
    segments = (shortest_path(net, "sw", "h1", 1.0), shortest_path(net, "h1", "h1", 1.0))
    fake = EmbeddingScheme((SfcPlacement("r1", ("h1",), segments),))
    with pytest.raises(InconsistentSchemeError, match="CPU"):
        verify_scheme(net.spec, requests, small_catalog(), fake)


@pytest.mark.parametrize("vnfs,requests,message", [
    # Fraction(0.1) * Fraction(10.0) CPU is 1 + 2**-54, which rounds to 1.0
    ([(0.1, 0.0)], [(["v0"], 10.0, 1.0)], "host 'h1': CPU over capacity"),
    ([(0.25, 0.0)], [(["v0"], 4.0, 1.0)], None),
    # 0.1 + 0.9 MB and Mbps exceed 1 by about 2.8e-17, and round to 1.0
    ([(0.0, 0.1), (0.0, 0.9)], [(["v0", "v1"], 1.0, 1.0)], "host 'h1': memory over capacity"),
    ([(0.0, 0.5), (0.0, 0.5)], [(["v0", "v1"], 1.0, 1.0)], None),
    ([(0.0, 0.0)], [(["v0"], 1.0, 0.1), (["v0"], 1.0, 0.9)], "link 'h1--sw': bandwidth over capacity"),
    ([(0.0, 0.0)], [(["v0"], 1.0, 0.5), (["v0"], 1.0, 0.5)], None),
], ids=["cpu-over", "cpu-full", "memory-over", "memory-full", "bandwidth-over", "bandwidth-full"])
def test_verify_scheme_is_exact_below_float_resolution(vnfs, requests, message):
    """Every VNF on the one host h1 (1 CPU, 1 MB) behind a 1 Mbps link: an excess that the float
    sum rounds away is still refused, and an exactly full host or link passes."""
    net = build_network(star_net(host_count=1, cpus=1, memory=1.0, bandwidth=1.0))
    catalog = Catalog(tuple(VNFDescriptor(f"v{i}", cpu, 1.0, memory) for i, (cpu, memory) in enumerate(vnfs)))
    sfcrs = [sfcr(f"r{i}", chain, rps=rps, bandwidth=bandwidth) for i, (chain, rps, bandwidth) in enumerate(requests)]
    segments = (Path(("sw", "h1"), ("h1--sw",), 0.5),) + (Path(("h1",), (), 0.0),) * len(requests[0][0])
    scheme = EmbeddingScheme(tuple(SfcPlacement(s.sfcr_id, ("h1",) * len(s.chain), segments) for s in sfcrs))
    if message is None:
        verify_scheme(net.spec, sfcrs, catalog, scheme)
    else:
        with pytest.raises(InconsistentSchemeError, match=message):
            verify_scheme(net.spec, sfcrs, catalog, scheme)


def test_decode_respects_genes_and_continues_after_rejection():
    net = build_network(star_net(host_count=3, cpus=1))
    catalog = small_catalog()
    requests = [sfcr("r1", ["beta"], rps=5.0), sfcr("r2", ["beta"], rps=5.0), sfcr("r3", ["gamma"], rps=5.0)]
    # beta at 5 rps = 0.5 CPU; both r1 and r2 forced onto h1 (1 CPU): second fails
    scheme = decode_chromosome(net, requests, catalog, ("h1", "h1", "h2"))
    assert scheme.accept_flags() == [True, False, True]
    assert scheme.rejected()[0].reason == "NoFeasibleHost(position=0)"
    assert scheme.accepted()[0].hosts == ("h1",)
    assert scheme.accepted()[1].hosts == ("h2",)


def test_decode_gene_count_mismatch():
    net = build_network(star_net())
    with pytest.raises(GeneCountMismatchError):
        decode_chromosome(net, [sfcr("r1", ["alpha", "beta"])], small_catalog(), ("h1",))


@pytest.mark.parametrize("gene", ["sw", "nope"], ids=["switch", "no-node"])
@pytest.mark.parametrize("position", [0, 1])
def test_decode_gene_that_names_no_host_rejects_only_its_request(gene, position):
    """A switch or an unknown id never fits: NoFeasibleHost, rolled back, and later SFCRs still embed."""
    catalog = small_catalog()
    bad, good = sfcr("bad", ["alpha", "beta"]), sfcr("good", ["gamma"])
    genes = ["h1", "h2"]
    genes[position] = gene
    net = build_network(star_net(host_count=3))
    scheme = decode_chromosome(net, [bad, good], catalog, (*genes, "h3"))
    alone = build_network(star_net(host_count=3))
    expected = decode_chromosome(alone, [good], catalog, ("h3",))
    assert scheme.outcomes == (SfcRejection("bad", f"NoFeasibleHost(position={position})"), *expected.outcomes)
    assert expected.accept_flags() == [True]
    assert net.residual_snapshot() == alone.residual_snapshot()


def test_decoding_the_greedy_placements_reproduces_the_greedy_scheme():
    """The two solvers share one embedding loop: greedy's own hosts as genes give back its scheme.

    Each rejected request gets a switch as every gene, so it is rejected
    again (with NoFeasibleHost rather than greedy's reason) and charges nothing.
    """
    rng = random.Random(20131)
    accepted = rejected = 0
    for _ in range(300):
        spec, catalog, sfcrs = random_scenario(rng)
        greedy_net, decode_net = build_network(spec), build_network(spec)
        greedy = solve_simple_dijkstra(greedy_net, sfcrs, catalog)
        chromosome = tuple(gene for outcome, request in zip(greedy.outcomes, sfcrs)
                           for gene in (outcome.hosts if isinstance(outcome, SfcPlacement)
                                        else (spec.switches[0],) * len(request.chain)))
        decoded = decode_chromosome(decode_net, sfcrs, catalog, chromosome)
        assert decoded.accept_flags() == greedy.accept_flags()
        assert decoded.accepted() == greedy.accepted()
        assert decode_net.residual_snapshot() == greedy_net.residual_snapshot()
        accepted += len(greedy.accepted())
        rejected += len(greedy.rejected())
    assert accepted > 0 and rejected > 0  # the scenarios must exercise both outcomes


def test_decoded_schemes_never_violate_capacities():
    """Random chromosomes on random scenarios always verify cleanly."""
    rng = random.Random(90125)
    for _ in range(200):
        spec, catalog, sfcrs = random_scenario(rng)
        net = build_network(spec)
        hosts = net.host_ids()
        gene_count = sum(len(s.chain) for s in sfcrs)
        chromosome = tuple(rng.choice(hosts) for _ in range(gene_count))
        scheme = decode_chromosome(net, sfcrs, catalog, chromosome)
        verify_scheme(spec, sfcrs, catalog, scheme)
        for key, value in net.residual_cpu.items():
            assert 0 <= value <= net.cpu_capacity[key]
        for key, value in net.residual_bandwidth.items():
            assert 0 <= value <= net.bandwidth_capacity[key]


def test_crossover_identical_parents_is_identity():
    rng = random.Random(1)
    chromosome = ("h1", "h2", "h3")
    assert crossover(chromosome, chromosome, 1.0, rng) == (chromosome, chromosome)


def test_crossover_zero_rate_clones_parents():
    rng = random.Random(2)
    a, b = ("h1", "h1"), ("h2", "h2")
    assert crossover(a, b, 0.0, rng) == (a, b)


def test_crossover_preserves_gene_multiset_per_position():
    rng = random.Random(3)
    a, b = ("h1", "h1", "h1"), ("h2", "h2", "h2")
    child_a, child_b = crossover(a, b, 1.0, rng)
    for genes in zip(child_a, child_b):
        assert sorted(genes) == ["h1", "h2"]


def test_crossover_gene_count_mismatch():
    with pytest.raises(GeneCountMismatchError):
        crossover(("h1",), ("h1", "h2"), 1.0, random.Random(0))


def test_mutate_zero_rate_is_identity():
    chromosome = ("h1", "h2")
    assert mutate(chromosome, 0.0, ["h1", "h2", "h3"], random.Random(4)) == chromosome


def test_mutate_full_rate_single_host_is_fixed_point():
    assert mutate(("h1", "h1"), 1.0, ["h1"], random.Random(5)) == ("h1", "h1")


def test_tournament_full_size_returns_global_best():
    population = [("h1",), ("h2",), ("h3",)]
    fitnesses = [Fitness(0.5, 10.0), Fitness(1.0, 99.0), Fitness(1.0, 100.0)]
    for seed in range(10):
        winner = tournament_select(population, fitnesses, 3, random.Random(seed))
        assert winner == ("h2",)


def test_tournament_size_validation():
    with pytest.raises(InvalidParamsError):
        tournament_select([("h1",)], [Fitness(1.0, 1.0)], 2, random.Random(0))
    with pytest.raises(InvalidParamsError):
        tournament_select([("h1",)], [Fitness(1.0, 1.0)], 0, random.Random(0))


def test_rejection_outcomes_are_recorded_not_raised():
    net = build_network(star_net(host_count=1, cpus=1))
    requests = [sfcr("impossible", ["beta"], rps=50.0), sfcr("fine", ["gamma"], rps=1.0)]
    scheme = solve_simple_dijkstra(net, requests, small_catalog())
    assert [o.sfcr_id for o in scheme.outcomes] == ["impossible", "fine"]
    assert isinstance(scheme.outcomes[0], SfcRejection)
    assert isinstance(scheme.outcomes[1], SfcPlacement)


# -- exact ties and magnitudes that floats cannot hold -------------------------


def one_cpu_host_spec():
    return spec_of([("h1", 1, 64)], [("sw", "h1", 10, 0.1)], switches=("sw",), ingress="sw", egress="h1")


@pytest.mark.parametrize("cpu_per_request,rps,accepted", [(0.01, 100.0, False), (0.25, 4.0, True)])
def test_cpu_demand_a_hair_over_capacity_is_rejected(cpu_per_request, rps, accepted):
    """0.01 CPU-s at 100 rps is 1 + ~2e-17 CPUs exactly but 1.0 as a float; 0.25 at 4 rps is exactly 1."""
    catalog = Catalog((VNFDescriptor("v", cpu_per_request, 1.0, 0.0),))
    request = sfcr("r1", ["v"], rps=rps)
    demand = vnf_cpu_demand(catalog, request, 0)
    assert float(demand) == 1.0 and (demand > 1) != accepted
    greedy = solve_simple_dijkstra(build_network(one_cpu_host_spec()), [request], catalog)
    decoded = decode_chromosome(build_network(one_cpu_host_spec()), [request], catalog, ("h1",))
    for scheme in (greedy, decoded):
        if accepted:
            assert scheme.accept_flags() == [True]
        else:
            assert scheme.outcomes == (SfcRejection("r1", "NoFeasibleHost(position=0)"),)


def test_greedy_max_residual_tie_is_broken_exactly():
    """h1's residual CPU is 2^-80 below h2's: the floats tie, the exact values do not."""
    net = build_network(star_net(host_count=2, cpus=2))
    net.allocate_cpu("h1", Fraction(1, 2**80))
    assert float(net.residual_cpu["h1"]) == float(net.residual_cpu["h2"])
    scheme = solve_simple_dijkstra(net, [sfcr("r1", ["alpha"], rps=1.0)], small_catalog())
    assert scheme.accepted()[0].hosts == ("h2",)


def test_cpu_demand_beyond_the_float_range_is_rejected_not_raised():
    """1e200 CPU-s at 1e200 rps has no float value; as a whole number of units it still compares."""
    catalog = Catalog((VNFDescriptor("v", 1e200, 1.0, 0.0),))
    request = sfcr("r1", ["v"], rps=1e200)
    for scheme in (solve_simple_dijkstra(build_network(one_cpu_host_spec()), [request], catalog),
                   decode_chromosome(build_network(one_cpu_host_spec()), [request], catalog, ("h1",))):
        assert scheme.outcomes == (SfcRejection("r1", "NoFeasibleHost(position=0)"),)


def test_capacities_from_1e_minus_300_to_1e300_solve_exactly():
    """1e-300 needs units of about 2^-1049, so the scale runs to about 1,050 bits; 1e300 in those
    units is an integer of about 2,050 bits. Sums, the floor and rollbacks all stay exact."""
    spec = spec_of([("h1", 1e300, 1e300), ("h2", 4, 1024.0), ("h3", 1e-300, 1024.0)],
                   [("sw", "h1", 1e300, 0.5), ("sw", "h2", 1e-300, 0.5), ("sw", "h3", 1e300, 0.5)],
                   switches=("sw",), ingress="sw", egress="h3")
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha", "beta"], rps=30.0), sfcr("r2", ["gamma"], bandwidth=1e-300),
                sfcr("r3", ["alpha"], bandwidth=1.0)]
    cpu = [vnf_cpu_demand(catalog, r, i) for r in requests for i in range(len(r.chain))]
    engine = EngineConfig(duration_s=2.0, sample_interval_s=1.0)

    greedy_net = build_network(spec)
    greedy = solve_simple_dijkstra(greedy_net, requests, catalog)
    assert [p.hosts for p in greedy.accepted()] == [("h1", "h1"), ("h1",), ("h1",)]
    assert greedy_net.residual_cpu["h1"] == Fraction(1e300) - sum(cpu)
    assert greedy_net.residual_bandwidth["h1--sw"] == Fraction(1e300) - 4 - Fraction(1e-300) * 2
    assert 1000 < greedy_net.cpu.scale.bit_length() < 1100
    assert 1000 < greedy_net.bandwidth.scale.bit_length() < 1100

    # r2 charges its whole 1e-300 Mbps link into h2 and finds it empty on the way out; r3 never fits it
    decode_net = build_network(spec)
    decoded = decode_chromosome(decode_net, requests, catalog, ("h1", "h1", "h2", "h2"))
    assert decoded.outcomes[1:] == (SfcRejection("r2", "NoPath(segment=1)"), SfcRejection("r3", "NoPath(segment=0)"))
    assert decode_net.residual_cpu["h2"] == 4
    assert decode_net.residual_bandwidth["h2--sw"] == Fraction(1e-300)
    for net, scheme in ((greedy_net, greedy), (decode_net, decoded)):
        assert len(simulate(net, scheme, requests, catalog, engine)) == 2


def test_verify_rejects_a_repeated_sfcr_id():
    """Two accepted chains named alike would share one latency per frame; verify, and so simulate, refuse them."""
    catalog = small_catalog()
    net = build_network(star_net(host_count=2))
    requests = [sfcr("dup", ["alpha"]), sfcr("dup", ["beta", "gamma"])]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    assert scheme.accept_flags() == [True, True]
    with pytest.raises(InconsistentSchemeError, match="repeated sfcr_id 'dup'"):
        verify_scheme(net.spec, requests, catalog, scheme)
    with pytest.raises(InconsistentSchemeError, match="repeated sfcr_id 'dup'"):
        simulate(net, scheme, requests, catalog, EngineConfig(duration_s=1.0, sample_interval_s=1.0))
