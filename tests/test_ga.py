import pytest

from rasesim.experiment import generate_requests, load_config, run_experiment, run_solver
from rasesim.solver import (
    Fitness,
    GAParams,
    InvalidParamsError,
    acceptance_ratio,
    compare_fitness,
    decode_chromosome,
    _evaluate,
    ga_solve,
    random_search,
    solve_simple_dijkstra,
)
from rasesim.seeding import derive_seed
from rasesim.telemetry import LatencyOverflowError
from rasesim.topology import build_network

from helpers import sfcr, small_catalog, star_net


def path_delay_evaluator(spec, sfcrs, catalog):
    """Cheap engine-free fitness: acceptance ratio, then mean routed delay."""
    base = build_network(spec)

    def evaluate(chromosome, eval_seed):
        work = base.copy()
        scheme = decode_chromosome(work, sfcrs, catalog, chromosome)
        ratio = acceptance_ratio(scheme.accept_flags())
        accepted = scheme.accepted()
        if not accepted:
            return Fitness(ratio, None)
        delay = sum(seg.total_propagation_ms for p in accepted for seg in p.segments)
        return Fitness(ratio, delay / len(accepted))

    return evaluate


@pytest.fixture
def small_problem():
    spec = star_net(host_count=4, cpus=4)
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha", "gamma"]), sfcr("r2", ["beta"])]
    return spec, catalog, requests


def test_zero_generations_returns_initial_best(small_problem):
    spec, catalog, requests = small_problem
    params = GAParams(population=6, generations=0)
    evaluator = path_delay_evaluator(spec, catalog=catalog, sfcrs=requests)
    result = ga_solve(build_network(spec), requests, catalog, params, evaluator, seed=3)
    assert len(result.trace) == 1
    assert result.best_fitness == result.trace[0].best_fitness
    assert result.best_chromosome == result.trace[0].best


def test_single_host_network_equals_greedy():
    spec = star_net(host_count=1, cpus=8)
    catalog = small_catalog()
    requests = [sfcr("r1", ["alpha"]), sfcr("r2", ["gamma"])]
    evaluator = path_delay_evaluator(spec, requests, catalog)

    greedy_net = build_network(spec)
    greedy_scheme = solve_simple_dijkstra(greedy_net, requests, catalog)
    greedy_fitness = Fitness(
        greedy_scheme.acceptance_ratio(),
        sum(seg.total_propagation_ms for p in greedy_scheme.accepted() for seg in p.segments)
        / len(greedy_scheme.accepted()),
    )

    result = ga_solve(build_network(spec), requests, catalog,
                      GAParams(population=4, generations=2), evaluator, seed=11)
    assert set(result.best_chromosome) == {"h1"}
    assert result.best_fitness == greedy_fitness


def test_best_ever_fitness_is_monotone(small_problem):
    spec, catalog, requests = small_problem
    evaluator = path_delay_evaluator(spec, requests, catalog)
    result = ga_solve(build_network(spec), requests, catalog,
                      GAParams(population=8, generations=12), evaluator, seed=5)
    best_so_far = result.trace[0].best_fitness
    for entry in result.trace[1:]:
        assert compare_fitness(entry.best_fitness, best_so_far) >= 0  # elitism carries the best
        if compare_fitness(entry.best_fitness, best_so_far) > 0:
            best_so_far = entry.best_fitness
    assert result.best_fitness == best_so_far


def test_trace_aggregates_bound_the_mean(small_problem):
    spec, catalog, requests = small_problem
    evaluator = path_delay_evaluator(spec, requests, catalog)
    result = ga_solve(build_network(spec), requests, catalog,
                      GAParams(population=10, generations=6), evaluator, seed=21)
    assert len(result.trace) == 7
    for entry in result.trace:
        assert entry.min_acceptance <= entry.mean_acceptance <= entry.max_acceptance
        assert len(entry.fitnesses) == 10
        if entry.mean_latency_ms is not None:
            assert entry.min_latency_ms <= entry.mean_latency_ms <= entry.max_latency_ms


def test_a_population_mean_latency_past_the_float_range_is_an_engine_error(small_problem):
    """Each candidate's mean latency is finite, but their sum over the population is not."""
    spec, catalog, requests = small_problem
    params = GAParams(population=2, generations=0, tournament_k=2)
    with pytest.raises(LatencyOverflowError, match="generation 0: the mean of 2 candidates'") as error:
        ga_solve(build_network(spec), requests, catalog, params, lambda chromosome, seed: Fitness(1.0, 1e308), seed=1)
    assert error.value.stage == "engine"


def test_identical_seeds_give_identical_traces(small_problem):
    spec, catalog, requests = small_problem
    params = GAParams(population=8, generations=5)
    runs = [
        ga_solve(build_network(spec), requests, catalog, params,
                 path_delay_evaluator(spec, requests, catalog), seed=77)
        for _ in range(2)
    ]
    assert runs[0].trace == runs[1].trace
    assert runs[0].best_chromosome == runs[1].best_chromosome


@pytest.mark.parametrize("parallel", [0, -3, 2])
def test_run_solver_refuses_any_worker_count_but_one(scenario_dir, parallel):
    cfg = load_config(scenario_dir / "ga_small.json")
    net = build_network(cfg.network)
    with pytest.raises(InvalidParamsError, match=f"parallel must be 1, got {parallel}"):
        run_solver(cfg, net, generate_requests(cfg), parallel)
    assert net.residual_snapshot() == build_network(cfg.network).residual_snapshot()
    with pytest.raises(InvalidParamsError, match=f"parallel must be 1, got {parallel}"):
        run_experiment(cfg, parallel=parallel)


def test_run_experiment_with_one_worker_is_the_default_run(scenario_dir):
    cfg = load_config(scenario_dir / "ga_small.json")
    assert run_experiment(cfg, parallel=1) == run_experiment(cfg)


def test_ga_solve_takes_no_worker_count(small_problem):
    spec, catalog, requests = small_problem
    with pytest.raises(TypeError, match="parallel"):
        ga_solve(build_network(spec), requests, catalog, GAParams(population=4, generations=1),
                 path_delay_evaluator(spec, requests, catalog), seed=13, parallel=1)


def test_evaluate_seeds_each_uncached_candidate_by_its_index():
    """Candidates are evaluated in index order, each with the seed of (seed, generation, index);
    a cached fitness is returned in place without calling the evaluator."""
    population = [("h1",), ("h2",), ("h3",), ("h4",)]
    elite = Fitness(1.0, 0.5)
    calls = []

    def evaluator(chromosome, eval_seed):
        calls.append((chromosome, eval_seed))
        return Fitness(0.5, float(len(calls)))

    fitnesses = _evaluate(population, evaluator, 9, 3, {2: elite})
    assert calls == [(population[i], derive_seed(9, "eval", 3, i)) for i in (0, 1, 3)]
    assert fitnesses == [Fitness(0.5, 1.0), Fitness(0.5, 2.0), elite, Fitness(0.5, 3.0)]


def test_best_scheme_is_decoded_into_callers_network(small_problem):
    spec, catalog, requests = small_problem
    net = build_network(spec)
    result = ga_solve(net, requests, catalog, GAParams(population=4, generations=2),
                      path_delay_evaluator(spec, requests, catalog), seed=2)
    recomputed = decode_chromosome(build_network(spec), requests, catalog, result.best_chromosome)
    assert recomputed == result.best_scheme
    charged = sum(1 for h, v in net.residual_cpu.items() if v != net.cpu_capacity[h])
    assert charged >= 1


@pytest.mark.parametrize(
    "params",
    [
        dict(population=1),
        dict(generations=-1),
        dict(crossover_rate=1.5),
        dict(mutation_rate=-0.1),
        dict(tournament_k=0),
        dict(tournament_k=21),
        dict(elitism=21),
    ],
)
def test_invalid_params(params):
    """Out-of-range parameters cannot be built, so no solve ever sees them."""
    with pytest.raises(InvalidParamsError):
        GAParams(**params)


def test_random_search_is_deterministic_and_returns_best(small_problem):
    spec, catalog, requests = small_problem
    evaluator = path_delay_evaluator(spec, requests, catalog)
    first = random_search(build_network(spec), requests, 30, evaluator, seed=9)
    second = random_search(build_network(spec), requests, 30, evaluator, seed=9)
    assert first == second
    best_chromosome, best_fitness = first
    assert evaluator(best_chromosome, 0) == best_fitness  # stored fitness matches its chromosome
