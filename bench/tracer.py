"""Spans and counts recorded from outside the package.

``patched(tracer)`` replaces each traced function at the name its caller
looks up (a module global or a class attribute) with a wrapper that records
a span, and restores every original on exit. Nothing under ``src/`` knows it
is being traced. Spans are kept in memory as (name, start, end, parent,
self_s, failed); a span's self time is its duration minus its direct
children's durations. Calls are nested and single-threaded (the benchmark
runs with parallel=1), so children never overlap.

Catalog.get is only counted: it runs hundreds of thousands of times per
repetition, and a span for each would cost more than the lookup itself.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from rasesim import engine, experiment, solver, topology
from rasesim.catalog import Catalog
from rasesim.topology import SubstrateNetwork


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    self_s: float
    failed: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.chromosomes: set = set()
        self._stack: list[list] = []  # [span index, children's total duration]

    def wrap(self, name: str, fn, note=None):
        """fn wrapped in a span; note(tracer, args, result) runs after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans[index] = Span(name, start, end, parent, end - start - frame[1], failed)
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Spans as JSON lines, in the order they were entered."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": span.name, "start": span.start, "end": span.end,
                                      "parent": span.parent, "self_s": span.self_s,
                                      "failed": span.failed}) + "\n")


def _note_frames(tracer, args, frames):
    tracer.counts["engine.frames"] += len(frames)
    tracer.counts["engine.latency_samples"] += sum(len(f.sfc_latency_ms) for f in frames)


def _note_chromosome(tracer, args, result):
    tracer.chromosomes.add(tuple(args[0]))


def _wrap_evaluator_factory(tracer, build_ga_evaluator):
    @functools.wraps(build_ga_evaluator)
    def build(*args, **kwargs):
        return tracer.wrap("solver.ga_eval", build_ga_evaluator(*args, **kwargs), _note_chromosome)

    return build


# (owner, attribute, span name, note); one span name may cover several call sites.
SPANNED = [
    (experiment, "load_config", "experiment.load_config", None),
    (experiment, "write_report", "experiment.write_report", None),
    (experiment, "outcomes_csv", "experiment.csv", None),
    (experiment, "latency_csv", "experiment.csv", None),
    (experiment, "cpu_csv", "experiment.csv", None),
    (experiment, "trace_csv", "experiment.csv", None),
    (experiment, "generate_sfcrs", "catalog.generate_sfcrs", None),
    (experiment, "build_network", "topology.build_network", None),
    (topology, "build_network", "topology.build_network", None),
    (SubstrateNetwork, "allocate_cpu", "topology.allocate", None),
    (SubstrateNetwork, "allocate_memory", "topology.allocate", None),
    (SubstrateNetwork, "allocate_bandwidth", "topology.allocate", None),
    (SubstrateNetwork, "release_cpu", "topology.release", None),
    (SubstrateNetwork, "release_memory", "topology.release", None),
    (SubstrateNetwork, "release_bandwidth", "topology.release", None),
    (SubstrateNetwork, "copy", "topology.copy", None),
    (solver, "shortest_path", "routing.shortest_path", None),
    (experiment, "run_solver", "solver.run_solver", None),
    (solver, "decode_chromosome", "solver.decode_chromosome", None),
    (experiment, "decode_chromosome", "solver.decode_chromosome", None),
    (engine, "verify_scheme", "solver.verify_scheme", None),
    (experiment, "verify_scheme", "solver.verify_scheme", None),
    (experiment, "simulate", "engine.simulate", _note_frames),
    (engine, "sfc_latency", "engine.sfc_latency", None),
    (experiment, "mean_latency", "telemetry.mean_latency", None),
]


def _replacements(tracer: Tracer):
    """(owner, attribute, span or count name, wrapper factory) for every traced name."""
    out = [(owner, attr, name, functools.partial(tracer.wrap, name, note=note))
           for owner, attr, name, note in SPANNED]
    out.append((experiment, "build_ga_evaluator", "solver.ga_eval",
                functools.partial(_wrap_evaluator_factory, tracer)))
    out.append((Catalog, "get", "catalog.get", functools.partial(tracer.count, "catalog.get")))
    return out


def _lookup(owner, attr):
    """The attribute as stored (not bound), on a module or on a class or one of its bases; None if absent."""
    for scope in getattr(owner, "__mro__", (owner,)):
        if attr in vars(scope):
            return vars(scope)[attr]
    return None


@contextmanager
def patched(tracer: Tracer):
    """Install tracer's wrappers; every original is restored on exit, also on error.

    A single call site that no longer exists (a later change removed or
    renamed it) is skipped with a note on stderr. If no call site of a span
    or count name is left, that layer would read 0, so patching fails.
    """
    saved = []
    found, missing = set(), set()
    try:
        for owner, attr, name, make in _replacements(tracer):
            original = _lookup(owner, attr)
            if original is None:
                print(f"trace: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
                missing.add(name)
                continue
            found.add(name)
            saved.append((owner, attr, attr in vars(owner), original))
            setattr(owner, attr, make(original))
        if missing - found:
            raise RuntimeError(f"trace: nothing left to trace for {sorted(missing - found)}")
        yield tracer
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def originals() -> dict:
    """Identity of every traced attribute, to check that nothing stays patched."""
    return {(owner.__name__, attr): _lookup(owner, attr) for owner, attr, _, _ in _replacements(Tracer())}


def layer_metrics(tracer: Tracer, rep_start: float, rep_end: float) -> dict[str, float]:
    """Per-layer numbers of one traced cycle (setup, run_experiment, write_report).

    Times are inclusive span totals except the *.self_s ones. trace.unspanned_s
    is the part of [rep_start, rep_end] (run_experiment + write_report) that no
    top-level span covers: lifecycle glue inside run_experiment.
    """
    total, calls, failed, layer_self = Counter(), Counter(), Counter(), Counter()
    spanned = 0.0
    for span in tracer.spans:
        duration = span.end - span.start
        total[span.name] += duration
        calls[span.name] += 1
        failed[span.name] += span.failed
        layer_self[span.name.split(".")[0]] += span.self_s
        if span.parent == -1 and span.start >= rep_start:
            spanned += duration
    evals = calls["solver.ga_eval"]
    return {
        "experiment.load_config_s": total["experiment.load_config"],
        "experiment.write_report_s": total["experiment.write_report"],
        "experiment.csv_s": total["experiment.csv"],
        "catalog.generate_s": total["catalog.generate_sfcrs"],
        "catalog.get_calls": tracer.counts["catalog.get"],
        "topology.build_network_s": total["topology.build_network"],
        "topology.allocate_calls": calls["topology.allocate"],
        "topology.release_calls": calls["topology.release"],
        "topology.alloc_s": total["topology.allocate"] + total["topology.release"],
        "topology.copy_calls": calls["topology.copy"],
        "routing.shortest_path_calls": calls["routing.shortest_path"],
        "routing.shortest_path_s": total["routing.shortest_path"],
        "routing.no_path_ratio": (failed["routing.shortest_path"] / calls["routing.shortest_path"]
                                  if calls["routing.shortest_path"] else 0.0),
        "solver.solve_s": total["solver.run_solver"],
        "solver.self_s": layer_self["solver"],
        "solver.decode_calls": calls["solver.decode_chromosome"],
        "solver.decode_s": total["solver.decode_chromosome"],
        "solver.verify_calls": calls["solver.verify_scheme"],
        "solver.verify_s": total["solver.verify_scheme"],
        "solver.ga_evals": evals,
        "solver.ga_eval_s": total["solver.ga_eval"],
        "solver.ga_distinct_ratio": len(tracer.chromosomes) / evals if evals else 0.0,
        "engine.simulate_calls": calls["engine.simulate"],
        "engine.simulate_s": total["engine.simulate"],
        "engine.self_s": layer_self["engine"],
        "engine.frames": tracer.counts["engine.frames"],
        "engine.latency_samples": tracer.counts["engine.latency_samples"],
        "engine.sfc_latency_calls": calls["engine.sfc_latency"],
        "engine.sfc_latency_s": total["engine.sfc_latency"],
        "telemetry.mean_latency_calls": calls["telemetry.mean_latency"],
        "telemetry.mean_latency_s": total["telemetry.mean_latency"],
        "trace.unspanned_s": rep_end - rep_start - spanned,
    }
