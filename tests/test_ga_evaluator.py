"""The GA evaluator against a full engine run per evaluation, bit for bit."""

import random

import pytest

from rasesim.catalog import SFCRequest, TrafficPattern, TrafficSegment, generate_sfcrs
from rasesim.engine import EngineConfig
from rasesim.experiment import build_ga_evaluator
from rasesim.solver import GAParams, ga_solve, random_search
from rasesim.topology import build_network

from helpers import sfcr, small_catalog, spec_of
from oracles import reference_ga_evaluator

ENGINE_CONFIGS = [
    EngineConfig(duration_s=12.0, sample_interval_s=1.5, jitter_sigma=0.2, idle_spike_prob=0.3),
    EngineConfig(duration_s=12.0, sample_interval_s=1.0, idle_spike_prob=1.0, idle_spike_range=(0.2, 0.9)),
    EngineConfig(duration_s=12.0, sample_interval_s=0.5, jitter_sigma=0.0, idle_spike_prob=0.5),
]


def problem():
    """h1 has one CPU and every chain starts with a VNF that needs more, so all-h1 accepts nothing.

    The 20 Mbps chains cannot reach the egress host h4 over its 30 Mbps
    link twice, and the traffic has several epochs, one of them without load.
    """
    spec = spec_of([("h1", 1, 1024), ("h2", 4, 1024), ("h3", 4, 256), ("h4", 2, 1024)],
                   [("sw", "h1", 100, 0.5), ("sw", "h2", 100, 0.25), ("sw", "h3", 50, 1.0), ("sw", "h4", 30, 0.5)],
                   switches=("sw",), ingress="sw", egress="h4")
    stepped = TrafficPattern((TrafficSegment(0.0, 4.0, 30.0), TrafficSegment(4.0, 6.0, 0.0),
                              TrafficSegment(6.0, 9.5, 12.0)))
    templates = [
        sfcr("web", ["alpha", "gamma"], rps=30.0, bandwidth=2.0, duration_s=12.0),
        SFCRequest("burst", ("beta",), 20.0, 12000.0, stepped),
        sfcr("scan", ["alpha", "beta", "gamma"], rps=25.0, bandwidth=1.0, duration_s=8.0),
    ]
    return spec, small_catalog(), generate_sfcrs(templates, 2)


def pairs(hosts, gene_count):
    """(chromosome, seed) pairs with repeats, under the same and under fresh seeds, and one that accepts nothing."""
    rng = random.Random(2718)
    chromosomes = [tuple(rng.choice(hosts) for _ in range(gene_count)) for _ in range(12)]
    nothing = ("h1",) * gene_count
    out = [(chromosome, rng.randrange(2**32)) for chromosome in chromosomes]
    out += [(nothing, 5), (chromosomes[0], out[0][1]), (chromosomes[0], 77), (nothing, 6)]
    out += [(rng.choice(chromosomes), rng.randrange(2**32)) for _ in range(12)]
    return out


@pytest.mark.parametrize("engine_cfg", ENGINE_CONFIGS, ids=["jitter", "spikes", "no-jitter"])
def test_evaluator_equals_a_full_engine_run_per_evaluation(engine_cfg):
    spec, catalog, sfcrs = problem()
    evaluate = build_ga_evaluator(build_network(spec), sfcrs, catalog, engine_cfg)
    reference = reference_ga_evaluator(build_network(spec), sfcrs, catalog, engine_cfg)
    fitnesses = []
    for chromosome, seed in pairs(["h1", "h2", "h3", "h4"], sum(len(s.chain) for s in sfcrs)):
        got, expected = evaluate(chromosome, seed), reference(chromosome, seed)
        assert repr(got) == repr(expected), chromosome
        fitnesses.append(got)
    ratios = {f.acceptance_ratio for f in fitnesses}
    assert 0.0 in ratios and len(ratios) >= 3  # all-h1 accepts nothing; the rest differ
    # the same chromosome under other seeds sees other jitter or spikes; only the ratio is fixed
    assert fitnesses[0] == fitnesses[13]
    if engine_cfg.jitter_sigma > 0:
        assert fitnesses[0].mean_latency_ms != fitnesses[14].mean_latency_ms


@pytest.mark.parametrize("engine_cfg", ENGINE_CONFIGS[:2], ids=["jitter", "spikes"])
def test_ga_and_random_search_find_what_the_reference_finds(engine_cfg):
    spec, catalog, sfcrs = problem()
    params = GAParams(population=8, generations=4)

    def both(make):
        evaluator = make(build_network(spec), sfcrs, catalog, engine_cfg)
        return (ga_solve(build_network(spec), sfcrs, catalog, params, evaluator, seed=11),
                random_search(build_network(spec), sfcrs, 40, evaluator, seed=11))

    assert both(build_ga_evaluator) == both(reference_ga_evaluator)
