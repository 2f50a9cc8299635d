"""Acceptance gate: one test per criterion, each printing its own verdict.

Run `pytest tests/test_acceptance.py -s -v` to see one line per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

import pytest

from rasesim.cli import main as cli_main
from rasesim.engine import EngineConfig, sfc_latency, simulate
from rasesim.experiment import build_ga_evaluator, generate_requests, load_config, run_experiment, write_report
from rasesim.routing import NoPathError, shortest_path
from rasesim.solver import (
    compare_fitness,
    decode_chromosome,
    ga_solve,
    random_search,
    solve_simple_dijkstra,
    verify_scheme,
    vnf_cpu_demand,
)
from rasesim.topology import HostSpec, LinkSpec, NetworkSpec, build_network

from helpers import random_scenario, sfcr, small_catalog, spec_of
from oracles import (
    binomial_central_interval,
    brute_force_shortest_path,
    cpu_packing_outcomes,
    random_connected_graph,
)

GA_SEEDS = (1, 2, 3, 4, 5)


@contextmanager
def verdict(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_acceptance_ratio_pattern(scenario_dir):
    """Exact 8-row pattern: 0.75 only at 2 CPUs x 8 duplicates; < 5 s."""
    expected = {1: 1.0, 2: 1.0, 3: 1.0, 4: 0.75, 5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}
    with verdict(1, "acceptance-ratio pattern"):
        started = time.perf_counter()
        for n, want in expected.items():
            cfg = load_config(scenario_dir / f"exp{n}.json")
            sfcrs = generate_requests(cfg)
            net = build_network(cfg.network)
            scheme = solve_simple_dijkstra(net, sfcrs, cfg.catalog)
            ratio = Fraction(sum(scheme.accept_flags()), len(sfcrs))
            assert ratio == Fraction(want), f"exp{n}: got {ratio}, want {want}"
            # CPU arithmetic alone must force the same outcome pattern
            demands = [[vnf_cpu_demand(cfg.catalog, s, p) for p in range(len(s.chain))] for s in sfcrs]
            oracle = cpu_packing_outcomes({h.id: h.cpus for h in cfg.network.hosts}, demands)
            assert oracle == scheme.accept_flags(), f"exp{n}: CPU was not the binding constraint"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"pattern suite took {elapsed:.2f}s"


def test_criterion_02_dijkstra_equals_brute_force():
    """100 seeded random graphs <= 12 nodes: exact cost equality; < 10 s."""
    with verdict(2, "dijkstra vs exhaustive oracle"):
        started = time.perf_counter()
        rng = random.Random(20250810)
        for _ in range(100):
            nodes, edges = random_connected_graph(rng, max_nodes=12)
            spec = NetworkSpec(
                tuple(HostSpec(n, 1, 64.0) for n in nodes), (),
                tuple(LinkSpec(a, b, bw, d) for a, b, d, bw in edges),
                nodes[0], nodes[0],
            )
            net = build_network(spec)
            src, dst = rng.sample(nodes, 2)
            min_bw = rng.choice((0.0, 5.0, 10.0, 50.0))
            expected = brute_force_shortest_path(nodes, edges, src, dst, min_bw)
            if expected is None:
                with pytest.raises(NoPathError):
                    shortest_path(net, src, dst, min_bw)
            else:
                path = shortest_path(net, src, dst, min_bw)
                assert path.total_propagation_ms == expected[1]
                assert path.nodes == expected[0]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle suite took {elapsed:.2f}s"


def test_criterion_03_capacity_conservation():
    """>= 1000 random solver inputs: zero capacity violations, exact rollback."""
    with verdict(3, "capacity conservation"):
        rng = random.Random(1000003)
        for case in range(1000):
            spec, catalog, sfcrs = random_scenario(rng)
            net = build_network(spec)
            if case % 2 == 0:
                scheme = solve_simple_dijkstra(net, sfcrs, catalog)
            else:
                hosts = net.host_ids()
                genes = tuple(rng.choice(hosts) for _ in range(sum(len(s.chain) for s in sfcrs)))
                scheme = decode_chromosome(net, sfcrs, catalog, genes)
            verify_scheme(spec, sfcrs, catalog, scheme)
            # residuals recompute exactly from the accepted placements alone,
            # so rejected SFCRs provably left no trace
            by_id = {s.sfcr_id: s for s in sfcrs}
            expected_cpu = {h.id: Fraction(h.cpus) for h in spec.hosts}
            expected_mem = {h.id: Fraction(h.memory_mb) for h in spec.hosts}
            for placement in scheme.accepted():
                request = by_id[placement.sfcr_id]
                for position, host in enumerate(placement.hosts):
                    expected_cpu[host] -= vnf_cpu_demand(catalog, request, position)
                    expected_mem[host] -= Fraction(catalog.get(request.chain[position]).memory_mb)
            assert net.residual_cpu == expected_cpu
            assert net.residual_memory == expected_mem
            for residuals, capacities in (
                (net.residual_cpu, net.cpu_capacity),
                (net.residual_memory, net.memory_capacity),
                (net.residual_bandwidth, net.bandwidth_capacity),
            ):
                for key, value in residuals.items():
                    assert 0 <= value <= capacities[key]


def _ga_small_inputs(scenario_dir):
    cfg = load_config(scenario_dir / "ga_small.json")
    sfcrs = generate_requests(cfg)
    return cfg, sfcrs


def test_criterion_04_ga_convergence(scenario_dir):
    """Median final best AR over 5 seeds is 1.0; latency never regresses; < 60 s."""
    with verdict(4, "GA convergence"):
        started = time.perf_counter()
        cfg, sfcrs = _ga_small_inputs(scenario_dir)
        # feasibility pre-check: exhaustive enumeration finds a full embedding
        hosts = sorted(h.id for h in cfg.network.hosts)
        gene_count = sum(len(s.chain) for s in sfcrs)
        feasible = None
        for genes in itertools.product(hosts, repeat=gene_count):
            work = build_network(cfg.network)
            scheme = decode_chromosome(work, sfcrs, cfg.catalog, genes)
            if all(scheme.accept_flags()):
                verify_scheme(cfg.network, sfcrs, cfg.catalog, scheme)
                feasible = genes
                break
        assert feasible is not None, "scenario has no feasible full embedding"

        finals, initials = [], []
        for seed in GA_SEEDS:
            evaluator = build_ga_evaluator(build_network(cfg.network), sfcrs, cfg.catalog, cfg.engine)
            result = ga_solve(build_network(cfg.network), sfcrs, cfg.catalog, cfg.solver.ga,
                              evaluator, seed)
            finals.append(result.best_fitness)
            initials.append(result.trace[0].best_fitness)
        assert median(f.acceptance_ratio for f in finals) == 1.0
        for final, initial in zip(finals, initials):
            assert final.mean_latency_ms <= initial.mean_latency_ms
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"GA suite took {elapsed:.2f}s"


def test_criterion_05_ga_beats_random_search(scenario_dir):
    """Equal budget: GA best >= random-search best on >= 4 of 5 seeds."""
    with verdict(5, "GA vs random search"):
        cfg, sfcrs = _ga_small_inputs(scenario_dir)
        budget = cfg.solver.ga.population * cfg.solver.ga.generations
        wins = 0
        for seed in GA_SEEDS:
            ga_eval = build_ga_evaluator(build_network(cfg.network), sfcrs, cfg.catalog, cfg.engine)
            ga_best = ga_solve(build_network(cfg.network), sfcrs, cfg.catalog, cfg.solver.ga,
                               ga_eval, seed).best_fitness
            rs_eval = build_ga_evaluator(build_network(cfg.network), sfcrs, cfg.catalog, cfg.engine)
            _, rs_best = random_search(build_network(cfg.network), sfcrs, budget, rs_eval, seed)
            wins += compare_fitness(ga_best, rs_best) >= 0
        assert wins >= 4, f"GA matched or beat random search on only {wins}/5 seeds"


def test_criterion_06_trace_shape(scenario_dir, tmp_path):
    """trace.csv: generations + 1 rows; every mean lies within [min, max]."""
    with verdict(6, "evolution trace shape"):
        cfg = load_config(scenario_dir / "ga_small.json")
        report = run_experiment(cfg)
        write_report(report, tmp_path, formats=("csv",))
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert rows[0].split(",") == ["generation", "mean_ar", "min_ar", "max_ar",
                                      "mean_latency_ms", "min_latency_ms", "max_latency_ms"]
        body = [row.split(",") for row in rows[1:]]
        assert len(body) == cfg.solver.ga.generations + 1
        for fields in body:
            mean_ar, min_ar, max_ar = (float(fields[i]) for i in (1, 2, 3))
            assert min_ar <= mean_ar <= max_ar
            mean_lat, min_lat, max_lat = (float(fields[i]) for i in (4, 5, 6))
            assert min_lat <= mean_lat <= max_lat


def test_criterion_07_queueing_model_sanity():
    """rho = 0.5 doubles the service term exactly; latency monotone in rate."""
    with verdict(7, "queueing model sanity"):
        spec = spec_of(
            [("h1", 2, 1024), ("h2", 2, 1024)],
            [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.5)],
            switches=("sw",), ingress="sw", egress="h2",
        )
        catalog = small_catalog()
        # alpha: 0.05 CPU-s/request; 20 rps on 2 CPUs -> rho exactly 0.5
        request = sfcr("probe", ["alpha"], rps=20.0, bandwidth=1.0, size_bits=8000.0)
        net = build_network(spec)
        scheme = solve_simple_dijkstra(net, [request], catalog)
        placement = scheme.accepted()[0]
        assert placement.hosts == ("h1",)

        at_zero = sfc_latency(placement, request, net, catalog, {"h1": 0.0})
        at_half = sfc_latency(placement, request, net, catalog, {"h1": 0.5})
        base = catalog.get("alpha").base_service_time_ms
        link_terms = at_zero - base
        assert abs(at_half - (link_terms + 2.0 * base)) <= 1e-9 * at_half

        previous = None
        for step in range(10):
            rate = 4.0 * step  # rho from 0.0 to 0.9
            swept = sfcr("probe", ["alpha"], rps=rate, duration_s=10.0)
            work = build_network(spec)
            swept_scheme = solve_simple_dijkstra(work, [swept], catalog)
            frames = simulate(work, swept_scheme, [swept], catalog,
                              EngineConfig(duration_s=1.0, sample_interval_s=1.0,
                                           jitter_sigma=0.0, idle_spike_prob=0.0), 0)
            latency = frames[0].sfc_latency_ms["probe"]
            if previous is not None:
                assert latency > previous
            previous = latency


def test_criterion_08_run_determinism(scenario_dir, tmp_path):
    """Two full CLI runs with the same config and seed: byte-identical files."""
    with verdict(8, "byte-identical reruns"):
        for tag in ("a", "b"):
            code = cli_main(["run", "--config", str(scenario_dir / "exp2.json"),
                             "--output-dir", str(tmp_path / tag), "--format", "both", "--quiet"])
            assert code == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["cpu.csv", "latency.csv", "outcomes.csv", "report.json"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_criterion_09_idle_spike_telemetry():
    """1000 idle samples: spike count inside the central 99% binomial band."""
    with verdict(9, "idle-spike telemetry"):
        spec = spec_of(
            [("busy", 2, 1024), ("idle", 2, 1024)],
            [("sw", "busy", 100, 0.5), ("sw", "idle", 100, 0.5)],
            switches=("sw",), ingress="sw", egress="busy",
        )
        catalog = small_catalog()
        request = sfcr("r1", ["alpha"], rps=5.0, duration_s=1000.0)
        net = build_network(spec)
        scheme = solve_simple_dijkstra(net, [request], catalog)
        assert scheme.accepted()[0].hosts == ("busy",)
        probability = 0.01
        cfg = EngineConfig(duration_s=1000.0, sample_interval_s=1.0, jitter_sigma=0.0,
                           idle_spike_prob=probability, idle_spike_range=(0.05, 0.15))
        frames = simulate(net, scheme, [request], catalog, cfg, 2024)
        assert len(frames) == 1000
        spikes = [f.host_cpu["idle"] for f in frames if f.host_cpu["idle"] > 0.0]
        low, high = binomial_central_interval(1000, probability, 0.99)
        assert low <= len(spikes) <= high, f"{len(spikes)} spikes outside [{low}, {high}]"
        assert all(0.05 <= s <= 0.15 for s in spikes)


def test_criterion_10_cli_contract(scenario_dir, tmp_path, capsys, monkeypatch):
    """validate: 8 shipped configs exit 0; a corrupted config exits 1, no files."""
    with verdict(10, "CLI validate contract"):
        for n in range(1, 9):
            assert cli_main(["validate", "--config", str(scenario_dir / f"exp{n}.json")]) == 0
        monkeypatch.chdir(tmp_path)
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text('{"network": {"hosts": []}, "seed": "not-a-seed"')
        assert cli_main(["validate", "--config", str(corrupted)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corrupted.json"]
