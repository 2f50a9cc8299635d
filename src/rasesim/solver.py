"""Embedding solvers: greedy placement plus an online genetic algorithm.

Both solvers charge CPU and memory on hosts and bandwidth on links as they
embed each chain, and roll an SFCR's allocations back in full when any of its
placements or routes fails, so a rejected request leaves the network exactly
as it found it.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from .catalog import Catalog, SFCRequest
from .errors import RaseSimError
from .routing import NoPathError, Path, shortest_path
from .seeding import derive_seed, plain_sum
from .telemetry import LatencyOverflowError
from .topology import InsufficientBandwidthError, NetworkSpec, Quantity, SubstrateNetwork

Chromosome = tuple[str, ...]


class SolverError(RaseSimError):
    stage = "solve"


class EmptyInputError(SolverError):
    """Aggregate asked for on an empty outcome list."""


class InvalidParamsError(SolverError):
    """GA parameters out of range."""


class GeneCountMismatchError(SolverError):
    """Crossover parents have different gene counts."""


class InconsistentSchemeError(SolverError):
    """An embedding scheme contradicts the requests or the substrate."""

    stage = "validate"


@dataclass(frozen=True)
class SfcPlacement:
    """Accepted SFCR: host per chain position plus the routed segments.

    Segments run ingress -> host(v1) -> ... -> host(vk) -> egress host, one
    Path per consecutive pair.
    """

    sfcr_id: str
    hosts: tuple[str, ...]
    segments: tuple[Path, ...]


@dataclass(frozen=True)
class SfcRejection:
    sfcr_id: str
    reason: str


@dataclass(frozen=True)
class EmbeddingScheme:
    """Per-SFCR outcomes in submission order."""

    outcomes: tuple["SfcPlacement | SfcRejection", ...]

    def accepted(self) -> list[SfcPlacement]:
        return [o for o in self.outcomes if isinstance(o, SfcPlacement)]

    def rejected(self) -> list[SfcRejection]:
        return [o for o in self.outcomes if isinstance(o, SfcRejection)]

    def accept_flags(self) -> list[bool]:
        return [isinstance(o, SfcPlacement) for o in self.outcomes]

    def acceptance_ratio(self) -> float:
        return acceptance_ratio(self.accept_flags())


def acceptance_ratio(outcomes: Sequence[bool]) -> float:
    """Accepted count over total count; int division rounds the exact ratio correctly."""
    if len(outcomes) == 0:
        raise EmptyInputError("acceptance ratio of zero outcomes is undefined")
    return sum(1 for o in outcomes if o) / len(outcomes)


@dataclass(frozen=True)
class Fitness:
    """Joint objective: maximize acceptance ratio, then minimize latency.

    Comparison is lexicographic; a candidate that accepted nothing has no
    latency and ranks below everything with a nonzero acceptance ratio.
    """

    acceptance_ratio: float
    mean_latency_ms: float | None

    def sort_key(self) -> tuple[float, float]:
        latency = -self.mean_latency_ms if self.mean_latency_ms is not None else float("-inf")
        return (self.acceptance_ratio, latency)


def compare_fitness(a: Fitness, b: Fitness) -> int:
    """-1, 0, or 1 as a is worse than, equal to, or better than b."""
    ka, kb = a.sort_key(), b.sort_key()
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


# -- greedy / chromosome embedding -------------------------------------------


def vnf_cpu_demand(catalog: Catalog, sfcr: SFCRequest, position: int) -> Fraction:
    """CPU charged for one VNF at admission: per-request cost times peak rate."""
    vnf = catalog.get(sfcr.chain[position])
    return Fraction(vnf.cpu_per_request) * Fraction(sfcr.offered_load.peak_rate())


# Per SFCR: its exact bandwidth and, per chain position, its exact (cpu, memory) demand.
Demands = tuple[Fraction, tuple[tuple[Fraction, Fraction], ...]]


def _demand_table(sfcrs: Sequence[SFCRequest], catalog: Catalog) -> list[Demands]:
    """Each SFCR's exact demands, in request order.

    A row depends only on the chain, the peak rate and the bandwidth, so
    requests equal in those (the copies of one template) share one row.
    """
    rows: dict[tuple, Demands] = {}
    table = []
    for sfcr in sfcrs:
        key = (sfcr.chain, sfcr.offered_load.peak_rate(), sfcr.bandwidth_mbps)
        row = rows.get(key)
        if row is None:
            positions = tuple((vnf_cpu_demand(catalog, sfcr, position), Fraction(catalog.get(name).memory_mb))
                              for position, name in enumerate(sfcr.chain))
            row = rows[key] = (Fraction(sfcr.bandwidth_mbps), positions)
        table.append(row)
    return table


# Per SFCR: Demands in whole units of 1/scale of each kind, (bandwidth, ((cpu, memory), ...)).
UnitDemands = tuple[int, tuple[tuple[int, int], ...]]


def _in_units(table: Sequence[Demands], scales: tuple[int, int, int]) -> list[UnitDemands]:
    """table's rows in whole units of 1/scale per (cpu, memory, bandwidth); each distinct row is converted once.

    Every scale must be a multiple of every denominator of its kind.
    """
    cpu_scale, memory_scale, bandwidth_scale = scales
    converted: dict[int, UnitDemands] = {}
    rows = []
    for row in table:
        units = converted.get(id(row))
        if units is None:
            bandwidth, positions = row
            units = converted[id(row)] = (
                _units(bandwidth, bandwidth_scale),
                tuple((_units(cpu, cpu_scale), _units(memory, memory_scale)) for cpu, memory in positions),
            )
        rows.append(units)
    return rows


def _units(quantity: Quantity, scale: int) -> int:
    numerator, denominator = quantity.as_integer_ratio()
    return numerator * (scale // denominator)


@dataclass(frozen=True)
class UnitTable:
    """A _demand_table in whole units of a network's resources, made by _unit_table."""

    scales: tuple[int, int, int]  # the (cpu, memory, bandwidth) scales the rows were converted at
    rows: list[UnitDemands]
    exact: Sequence[Demands]


def _scales(net: SubstrateNetwork) -> tuple[int, int, int]:
    return net.cpu.scale, net.memory.scale, net.bandwidth.scale


def _unit_table(net: SubstrateNetwork, exact: Sequence[Demands]) -> UnitTable:
    """exact's rows in whole units of net's resources.

    Each resource's scale first grows over every quantity in the rows, so
    no later charge of them rescales net or a copy of it.
    """
    for bandwidth, positions in {id(row): row for row in exact}.values():
        net.bandwidth.to_units(bandwidth)
        for cpu, memory in positions:
            net.cpu.to_units(cpu)
            net.memory.to_units(memory)
    scales = _scales(net)
    return UnitTable(scales, _in_units(exact, scales), exact)


def _embed_all(net: SubstrateNetwork, sfcrs: Sequence[SFCRequest], table: UnitTable,
               genes: Callable[[int, int], str] | None = None) -> EmbeddingScheme:
    """Place and route each SFCR in order, charging net; the one embedding loop of both solvers.

    Position k of request i goes to genes(i, k) if that id fits both its
    CPU and memory demand (an id with no residuals, a switch, never fits).
    Without genes it goes to the host with the most residual CPU among
    those that fit, ties to the lowest host id: a lazy heap of (-residual
    CPU units, rank in sorted host ids, host) gets a fresh entry whenever a
    host's CPU is charged or rolled back, drops an entry whose CPU is stale
    when it reaches the top, and sets aside valid tops that lack memory
    until the position is placed. Consecutive placements are then linked by
    bandwidth-filtered shortest paths. A request that cannot be placed or
    routed has its charges added back and is recorded as a rejection;
    later requests still embed. Charges and rollbacks are integer -= and +=
    on the residual units; a table made at other scales than net's is
    converted afresh, before the heap reads a residual.
    """
    if table.scales != _scales(net):
        table = _unit_table(net, table.exact)
    cpu_left, memory_left, bandwidth_left = net.cpu.units, net.memory.units, net.bandwidth.units
    # greedy's candidates; decoding has one per position and leaves the heap empty
    ranks = {} if genes is not None else {host: rank for rank, host in enumerate(sorted(net.host_ids()))}
    heap = [(-cpu_left[host], rank, host) for host, rank in ranks.items()]
    heapq.heapify(heap)
    outcomes: list[SfcPlacement | SfcRejection] = []
    for i, (sfcr, (bandwidth, positions)) in enumerate(zip(sfcrs, table.rows, strict=True)):
        undo: list[tuple[dict[str, int], str, int]] = []
        placed: list[str] = []
        for k, (cpu_need, memory_need) in enumerate(positions):
            if genes is not None:
                host = genes(i, k)
                if not (cpu_left.get(host, -1) >= cpu_need and memory_left[host] >= memory_need):
                    host = None
            else:
                host, aside = None, []
                while heap:
                    negative, _, candidate = heap[0]
                    if -negative != cpu_left[candidate]:
                        heapq.heappop(heap)
                    elif -negative < cpu_need:
                        break
                    elif memory_left[candidate] >= memory_need:
                        host = candidate
                        break
                    else:
                        aside.append(heapq.heappop(heap))
                for entry in aside:
                    heapq.heappush(heap, entry)
            if host is None:
                reason = f"NoFeasibleHost(position={k})"
                break
            if cpu_need:
                cpu_left[host] -= cpu_need
                undo.append((cpu_left, host, cpu_need))
                if genes is None:
                    heapq.heappush(heap, (-cpu_left[host], ranks[host], host))
            if memory_need:
                memory_left[host] -= memory_need
                undo.append((memory_left, host, memory_need))
            placed.append(host)
        else:
            reason = None
            waypoints = [net.spec.ingress_node, *placed, net.spec.egress_host]
            segments: list[Path] = []
            for k in range(len(waypoints) - 1):
                try:
                    path = shortest_path(net, waypoints[k], waypoints[k + 1], sfcr.bandwidth_mbps)
                except NoPathError:
                    reason = f"NoPath(segment={k})"
                    break
                for link in path.links:
                    if bandwidth_left[link] < bandwidth:
                        raise InsufficientBandwidthError(
                            f"{link!r}: requested {net.bandwidth.show(bandwidth)} bandwidth, "
                            f"residual {net.bandwidth.show(bandwidth_left[link])}")
                    bandwidth_left[link] -= bandwidth
                    undo.append((bandwidth_left, link, bandwidth))
                segments.append(path)
        if reason is None:
            outcomes.append(SfcPlacement(sfcr.sfcr_id, tuple(placed), tuple(segments)))
        else:
            for units, key, amount in undo:
                units[key] += amount
                if units is cpu_left and genes is None:
                    heapq.heappush(heap, (-units[key], ranks[key], key))
            outcomes.append(SfcRejection(sfcr.sfcr_id, reason))
    return EmbeddingScheme(tuple(outcomes))


def solve_simple_dijkstra(net: SubstrateNetwork, sfcrs: Sequence[SFCRequest], catalog: Catalog) -> EmbeddingScheme:
    """Greedy solver: max-residual-CPU placement, shortest-path linking.

    SFCRs are embedded in submission order with every host as a candidate
    for every position: each VNF goes to the host with the most residual
    CPU among those that fit it (ties to the lowest host id), taken from a
    lazy max-residual heap rather than a scan over the hosts. The net is
    mutated in place with the accepted chains' charges.
    """
    return _embed_all(net, sfcrs, _unit_table(net, _demand_table(sfcrs, catalog)))


def decode_chromosome(net: SubstrateNetwork, sfcrs: Sequence[SFCRequest], catalog: Catalog,
                      chromosome: Chromosome, *, demands: UnitTable | None = None) -> EmbeddingScheme:
    """Charge a chromosome's placements gene by gene in fixed order.

    The greedy solver's loop with each position's gene as its only
    candidate: an SFCR whose gene names a host that lacks capacity, or no
    host at all, or whose segments cannot be routed, is rejected and rolled
    back; later SFCRs still embed. demands is the requests' _unit_table,
    built here when not given.
    """
    first = [0, *accumulate(len(s.chain) for s in sfcrs)]  # per request, the index of its first gene
    if len(chromosome) != first[-1]:
        raise GeneCountMismatchError(f"chromosome has {len(chromosome)} genes, requests need {first[-1]}")
    if demands is None:
        demands = _unit_table(net, _demand_table(sfcrs, catalog))
    return _embed_all(net, sfcrs, demands, lambda i, k: chromosome[first[i] + k])


def verify_scheme(spec: NetworkSpec, sfcrs: Sequence[SFCRequest], catalog: Catalog,
                  scheme: EmbeddingScheme) -> None:
    """Re-check a scheme against the spec by independent summation.

    Recomputes per-host CPU/memory and per-link bandwidth totals from the
    accepted placements and compares them against raw capacities, exactly:
    each kind is summed in whole units of 1/scale, scale the least common
    multiple of the denominators of its capacities and demands. It checks
    that segments chain from ingress through every placement to the egress
    host over declared links, and that no two requests share an sfcr_id.
    Raises InconsistentSchemeError on any violation.
    """
    if len(scheme.outcomes) != len(sfcrs):
        raise InconsistentSchemeError("scheme and request list differ in length")
    host_ids = {h.id for h in spec.hosts}
    links = {l.link_id: l for l in spec.links}
    demands = _demand_table(sfcrs, catalog)
    rows = {id(row): row for row in demands}.values()
    capacities = ({h.id: h.cpus for h in spec.hosts}, {h.id: h.memory_mb for h in spec.hosts},
                  {l.link_id: l.bandwidth_mbps for l in spec.links})
    demanded = ([c for _, p in rows for c, _ in p], [m for _, p in rows for _, m in p], [b for b, _ in rows])
    scales = tuple(math.lcm(*(q.as_integer_ratio()[1] for q in (*capacity.values(), *demand)))
                   for capacity, demand in zip(capacities, demanded))
    cpu_cap, mem_cap, bw_cap = ({key: _units(q, scale) for key, q in capacity.items()}
                                for capacity, scale in zip(capacities, scales))
    cpu_used: dict[str, int] = {}
    mem_used: dict[str, int] = {}
    bw_used: dict[str, int] = {}
    ids: set[str] = set()
    for outcome, sfcr, (bandwidth, positions) in zip(scheme.outcomes, sfcrs, _in_units(demands, scales), strict=True):
        if outcome.sfcr_id != sfcr.sfcr_id:
            raise InconsistentSchemeError(f"outcome order mismatch at {outcome.sfcr_id!r}")
        if sfcr.sfcr_id in ids:
            raise InconsistentSchemeError(f"repeated sfcr_id {sfcr.sfcr_id!r}")
        ids.add(sfcr.sfcr_id)
        if not isinstance(outcome, SfcPlacement):
            continue
        if len(outcome.hosts) != len(sfcr.chain):
            raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: placement length != chain length")
        for host, (cpu, memory) in zip(outcome.hosts, positions):
            if host not in host_ids:
                raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: unknown host {host!r}")
            cpu_used[host] = cpu_used.get(host, 0) + cpu
            mem_used[host] = mem_used.get(host, 0) + memory
        waypoints = [spec.ingress_node, *outcome.hosts, spec.egress_host]
        if len(outcome.segments) != len(waypoints) - 1:
            raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: expected {len(waypoints) - 1} segments")
        for index, segment in enumerate(outcome.segments):
            if segment.nodes[0] != waypoints[index] or segment.nodes[-1] != waypoints[index + 1]:
                raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: segment {index} endpoints do not chain")
            if len(set(segment.nodes)) != len(segment.nodes):
                raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: segment {index} repeats a node")
            for hop, link_name in enumerate(segment.links):
                link = links.get(link_name)
                if link is None:
                    raise InconsistentSchemeError(f"{outcome.sfcr_id!r}: unknown link {link_name!r}")
                endpoints = {segment.nodes[hop], segment.nodes[hop + 1]}
                if endpoints != {link.endpoint_a, link.endpoint_b}:
                    raise InconsistentSchemeError(
                        f"{outcome.sfcr_id!r}: segment {index} hop {hop} does not follow {link_name!r}"
                    )
                bw_used[link_name] = bw_used.get(link_name, 0) + bandwidth
    for host in cpu_cap:
        if cpu_used.get(host, 0) > cpu_cap[host]:
            raise InconsistentSchemeError(f"host {host!r}: CPU over capacity")
        if mem_used.get(host, 0) > mem_cap[host]:
            raise InconsistentSchemeError(f"host {host!r}: memory over capacity")
    for link_name, used in bw_used.items():
        if used > bw_cap[link_name]:
            raise InconsistentSchemeError(f"link {link_name!r}: bandwidth over capacity")


# -- genetic algorithm ---------------------------------------------------------


@dataclass(frozen=True)
class GAParams:
    """Knobs of the genetic solver, checked on construction; mutation_rate None means 1/gene-count."""

    population: int = 20
    generations: int = 10
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    elitism: int = 2

    def __post_init__(self):
        if self.population < 2:
            raise InvalidParamsError("population must be >= 2")
        if self.generations < 0:
            raise InvalidParamsError("generations must be >= 0")
        if not 0 <= self.crossover_rate <= 1:
            raise InvalidParamsError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise InvalidParamsError("mutation_rate must be in [0, 1]")
        if not 1 <= self.tournament_k <= self.population:
            raise InvalidParamsError("tournament_k must be in [1, population]")
        if not 0 <= self.elitism <= self.population:
            raise InvalidParamsError("elitism must be in [0, population]")


@dataclass(frozen=True)
class GenerationStats:
    """One evolution trace entry; generation 0 is the initial population."""

    generation: int
    fitnesses: tuple[Fitness, ...]
    mean_acceptance: float
    min_acceptance: float
    max_acceptance: float
    mean_latency_ms: float | None
    min_latency_ms: float | None
    max_latency_ms: float | None
    best: Chromosome
    best_fitness: Fitness


EvolutionTrace = tuple[GenerationStats, ...]

Evaluator = Callable[[Chromosome, int], Fitness]


@dataclass(frozen=True)
class GAResult:
    best_scheme: EmbeddingScheme
    best_chromosome: Chromosome
    best_fitness: Fitness
    trace: EvolutionTrace


def crossover(a: Chromosome, b: Chromosome, crossover_rate: float, rng: random.Random) -> tuple[Chromosome, Chromosome]:
    """Uniform crossover: with probability crossover_rate, swap each gene 50/50."""
    if len(a) != len(b):
        raise GeneCountMismatchError(f"parents have {len(a)} and {len(b)} genes")
    if rng.random() >= crossover_rate:
        return a, b
    left, right = list(a), list(b)
    for i in range(len(left)):
        if rng.random() < 0.5:
            left[i], right[i] = right[i], left[i]
    return tuple(left), tuple(right)


def mutate(chromosome: Chromosome, mutation_rate: float, hosts: Sequence[str], rng: random.Random) -> Chromosome:
    """Reassign each gene to a uniformly drawn host with the given probability."""
    genes = list(chromosome)
    for i in range(len(genes)):
        if rng.random() < mutation_rate:
            genes[i] = rng.choice(hosts)
    return tuple(genes)


def tournament_select(population: Sequence[Chromosome], fitnesses: Sequence[Fitness], k: int,
                      rng: random.Random) -> Chromosome:
    """Best of k distinct candidates drawn uniformly without replacement."""
    if not 1 <= k <= len(population):
        raise InvalidParamsError(f"tournament size {k} not in [1, {len(population)}]")
    drawn = rng.sample(range(len(population)), k)
    best = drawn[0]
    for index in drawn[1:]:
        if compare_fitness(fitnesses[index], fitnesses[best]) > 0:
            best = index
    return population[best]


def _population_stats(generation: int, population: Sequence[Chromosome],
                      fitnesses: Sequence[Fitness]) -> GenerationStats:
    ratios = [f.acceptance_ratio for f in fitnesses]
    latencies = [f.mean_latency_ms for f in fitnesses if f.mean_latency_ms is not None]
    best_index = max(range(len(population)), key=lambda i: (fitnesses[i].sort_key(), -i))
    mean_latency_ms = plain_sum(latencies) / len(latencies) if latencies else None
    if mean_latency_ms == math.inf:  # each candidate's mean is finite, their sum need not be
        raise LatencyOverflowError(f"generation {generation}: the mean of {len(latencies)} candidates' mean "
                                   "latencies is beyond the float range")
    return GenerationStats(
        generation=generation,
        fitnesses=tuple(fitnesses),
        mean_acceptance=plain_sum(ratios) / len(ratios),
        min_acceptance=min(ratios),
        max_acceptance=max(ratios),
        mean_latency_ms=mean_latency_ms,
        min_latency_ms=min(latencies) if latencies else None,
        max_latency_ms=max(latencies) if latencies else None,
        best=population[best_index],
        best_fitness=fitnesses[best_index],
    )


def _evaluate(population: Sequence[Chromosome], evaluator: Evaluator, seed: int, generation: int,
              cached: Mapping[int, Fitness]) -> list[Fitness]:
    """Evaluate a population in index order; a carried elite keeps its cached fitness."""
    return [cached[i] if i in cached else evaluator(chromosome, derive_seed(seed, "eval", generation, i))
            for i, chromosome in enumerate(population)]


def random_chromosome(hosts: Sequence[str], gene_count: int, rng: random.Random) -> Chromosome:
    return tuple(rng.choice(hosts) for _ in range(gene_count))


def ga_solve(net: SubstrateNetwork, sfcrs: Sequence[SFCRequest], catalog: Catalog, params: GAParams,
             evaluator: Evaluator, seed: int) -> GAResult:
    """Evolve placements: elitism, tournament selection, crossover, mutation.

    The initial population samples every gene uniformly over hosts. Each
    candidate evaluation receives a seed derived from (seed, generation,
    index), so the trace does not depend on the order of evaluation. The
    best chromosome ever evaluated is decoded into the caller's net and
    returned with the full per-generation trace. The evaluator may read
    and copy net: nothing is charged to it before the last evaluation.
    """
    if not sfcrs:
        raise InvalidParamsError("ga_solve needs at least one SFCR")
    hosts = sorted(net.host_ids())
    gene_count = sum(len(s.chain) for s in sfcrs)
    mutation_rate = params.mutation_rate if params.mutation_rate is not None else 1.0 / gene_count

    init_rng = random.Random(derive_seed(seed, "ga-init"))
    population = [random_chromosome(hosts, gene_count, init_rng) for _ in range(params.population)]
    fitnesses = _evaluate(population, evaluator, seed, 0, {})
    trace = [_population_stats(0, population, fitnesses)]
    best_chromosome = trace[0].best
    best_fitness = trace[0].best_fitness

    for generation in range(1, params.generations + 1):
        rng = random.Random(derive_seed(seed, "ga-gen", generation))
        order = sorted(range(len(population)), key=lambda i: fitnesses[i].sort_key(), reverse=True)
        elites = order[:params.elitism]
        next_population = [population[i] for i in elites]
        carried = {j: fitnesses[i] for j, i in enumerate(elites)}
        while len(next_population) < params.population:
            parent_a = tournament_select(population, fitnesses, params.tournament_k, rng)
            parent_b = tournament_select(population, fitnesses, params.tournament_k, rng)
            child_a, child_b = crossover(parent_a, parent_b, params.crossover_rate, rng)
            next_population.append(mutate(child_a, mutation_rate, hosts, rng))
            if len(next_population) < params.population:
                next_population.append(mutate(child_b, mutation_rate, hosts, rng))
        population = next_population
        fitnesses = _evaluate(population, evaluator, seed, generation, carried)
        stats = _population_stats(generation, population, fitnesses)
        trace.append(stats)
        if compare_fitness(stats.best_fitness, best_fitness) > 0:
            best_chromosome, best_fitness = stats.best, stats.best_fitness

    best_scheme = decode_chromosome(net, sfcrs, catalog, best_chromosome)
    return GAResult(best_scheme, best_chromosome, best_fitness, tuple(trace))


def random_search(net: SubstrateNetwork, sfcrs: Sequence[SFCRequest], budget: int,
                  evaluator: Evaluator, seed: int) -> tuple[Chromosome, Fitness]:
    """Uniform random baseline with the same evaluation interface as the GA."""
    if budget < 1:
        raise InvalidParamsError("budget must be >= 1")
    hosts = sorted(net.host_ids())
    gene_count = sum(len(s.chain) for s in sfcrs)
    rng = random.Random(derive_seed(seed, "random-search"))
    best: tuple[Chromosome, Fitness] | None = None
    for i in range(budget):
        candidate = random_chromosome(hosts, gene_count, rng)
        fitness = evaluator(candidate, derive_seed(seed, "random-search-eval", i))
        if best is None or compare_fitness(fitness, best[1]) > 0:
            best = (candidate, fitness)
    return best
