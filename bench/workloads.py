"""The benchmark's workloads, generated in code from a seed.

All three use the same two-tier ladder: one ``core`` switch, ceil(hosts/10)
aggregation switches, core-agg links at 100 Gbps / 0.5 ms and agg-host links
at 10 Gbps / 0.1 + 0.01*(i mod 7) ms, with the catalog and SFCR templates
that ship with the package. The seed becomes the config's ``seed``: it drives
engine jitter, idle spikes and the GA search but no size, so timings from
different seeds stay comparable (the GA's work moves by a few percent with
its search path).
"""

from __future__ import annotations

import json
import math
from importlib import resources

DEFAULT_SEED = 1


def _shipped(name: str) -> dict:
    return json.loads(resources.files("rasesim").joinpath(f"data/{name}").read_text("utf-8"))


def ladder(hosts: int, cpus: int, memory_mb: int, egress_mbps: float | None = None) -> dict:
    """Network section of the two-tier ladder; egress_mbps narrows the egress host's access link."""
    aggs = math.ceil(hosts / 10)
    host_ids = [f"h{i:03d}" for i in range(hosts)]
    egress = host_ids[-1]
    links = [{"endpoint_a": "core", "endpoint_b": f"agg{a}", "bandwidth_mbps": 100000,
              "propagation_delay_ms": 0.5} for a in range(aggs)]
    for i, host in enumerate(host_ids):
        links.append({"endpoint_a": f"agg{i // 10}", "endpoint_b": host,
                      "bandwidth_mbps": egress_mbps if host == egress and egress_mbps else 10000,
                      "propagation_delay_ms": round(0.1 + 0.01 * (i % 7), 2)})
    return {
        "hosts": [{"id": h, "cpus": cpus, "memory_mb": memory_mb} for h in host_ids],
        "switches": ["core"] + [f"agg{a}" for a in range(aggs)],
        "links": links,
        "ingress_node": "core",
        "egress_host": egress,
    }


def _config(network: dict, duplicates: int, solver: dict, duration_s: float, interval_s: float,
            seed: int) -> dict:
    return {
        "network": network,
        "catalog": _shipped("default_catalog.json"),
        "sfcrs": _shipped("default_sfcrs.json"),
        "duplicates": duplicates,
        "solver": solver,
        "engine": {"duration_s": duration_s, "sample_interval_s": interval_s},
        "output": {"directory": "results", "formats": ["json", "csv"]},
        "seed": seed,
    }


def greedy_oversub(seed: int) -> dict:
    # 300 SFCRs through a 235 Mbps egress link: about a quarter are charged
    # for their VNFs, then fail routing and roll back.
    return _config(ladder(50, 4, 8192, egress_mbps=235), 75, {"kind": "simple-dijkstra"}, 60, 1.0, seed)


def engine_long(seed: int) -> dict:
    # 600 ticks of 48 accepted chains, all inside the templates' 60 s traffic window.
    return _config(ladder(50, 4, 8192), 12, {"kind": "simple-dijkstra"}, 60, 0.1, seed)


def ga_search(seed: int) -> dict:
    # 1-CPU hosts make many chromosomes infeasible, so decoding rolls back
    # often; 20 + 16 * 18 = 308 evaluations.
    ga = {"population": 20, "generations": 16}
    return _config(ladder(8, 1, 8192), 2, {"kind": "ga", "ga": ga}, 10, 1.0, seed)


WORKLOADS = {
    "greedy-oversub": greedy_oversub,
    "engine-long": engine_long,
    "ga-search": ga_search,
}


def write_config(workload: str, seed: int, path) -> None:
    """Write the workload's config for this seed as a JSON file, the form load_config reads."""
    path.write_text(json.dumps(WORKLOADS[workload](seed), indent=1, sort_keys=True) + "\n", "utf-8")
