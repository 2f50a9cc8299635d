"""The library path the benchmark times: load_config -> run_experiment -> write_report.

Every call goes through a module attribute (``experiment.run_experiment``,
not a name bound at import), so the tracer's wrappers see it.

Run as a script, it performs one setup and one repetition in a fresh
process and prints its peak resident memory and report digests:

    PYTHONPATH=src python3 bench/lifecycle.py CONFIG OUTDIR
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from rasesim import experiment, solver, topology


def setup(config_path):
    """What `rasesim run` does before solving: parse, validate, build the network."""
    cfg = experiment.load_config(config_path)
    topology.build_network(cfg.network)
    return cfg


def repetition(cfg, outdir):
    """One closed-loop repetition; returns the report and the files written."""
    report = experiment.run_experiment(cfg, parallel=1)
    return report, experiment.write_report(report, outdir, ("json", "csv"))


def digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def verified_accept_flags(cfg) -> list[bool]:
    """Solve the stages separately and check the scheme with verify_scheme."""
    sfcrs = experiment.generate_requests(cfg)
    scheme, _, _ = experiment.run_solver(cfg, topology.build_network(cfg.network), sfcrs, 1)
    solver.verify_scheme(cfg.network, sfcrs, cfg.catalog, scheme)
    return scheme.accept_flags()


def peak_rss_kb() -> int:
    """This process image's peak resident set (VmHWM).

    Not ru_maxrss: Linux carries that over exec from the process that
    spawned us, so a child of a large parent would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    config_path, outdir = sys.argv[1:3]
    _, written = repetition(setup(config_path), outdir)
    print(json.dumps({"peak_rss_kb": peak_rss_kb(), "digests": digests(written)}))
