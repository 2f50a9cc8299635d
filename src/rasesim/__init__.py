"""Deterministic SFC embedding simulator.

Library + CLI for exploring NFV resource-allocation solvers against an
analytical substrate: build a network, generate chain requests, embed them
with a greedy or genetic solver, drive traffic through a processor-sharing
latency model, and collect telemetry.
"""

from .catalog import (
    Catalog,
    SFCRequest,
    TrafficPattern,
    TrafficSegment,
    VNFDescriptor,
    default_catalog,
    default_sfcr_templates,
    generate_sfcrs,
    load_catalog,
)
from .engine import (
    EngineConfig,
    sfc_latency,
    simulate,
)
from .errors import ConfigError, RaseSimError
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    load_config,
    read_report,
    run_experiment,
    write_report,
)
from .routing import Path, shortest_path
from .solver import (
    Chromosome,
    EmbeddingScheme,
    Fitness,
    GAParams,
    acceptance_ratio,
    compare_fitness,
    crossover,
    decode_chromosome,
    ga_solve,
    mutate,
    random_search,
    solve_simple_dijkstra,
    tournament_select,
    verify_scheme,
)
from .telemetry import (
    LatencyHistogram,
    TelemetryFrame,
    bin_latencies,
    cpu_series,
    mean_latency,
)
from .topology import (
    HostSpec,
    LinkSpec,
    NetworkSpec,
    SubstrateNetwork,
    build_network,
)

__version__ = "0.1.0"
