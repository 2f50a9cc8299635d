"""Experiment lifecycle: load config, generate, solve, validate, simulate, report.

A config is one JSON document with sections network, catalog, sfcrs,
duplicates, solver, engine, output, and seed. Unknown keys anywhere are an
error so typos fail fast. Two runs of the same config and seed produce
byte-identical report files; the wall-clock solve time is kept on the report
object (and printed by the CLI) but never serialized, precisely so files
stay reproducible.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field, is_dataclass, replace
from datetime import datetime
from io import StringIO
from json.encoder import encode_basestring_ascii
from operator import add, is_
from pathlib import Path

from .catalog import (
    Catalog,
    CatalogError,
    SFCRequest,
    check_keys,
    from_json,
    generate_sfcrs,
    json_fields,
    load_catalog,
    parse_sfcr_templates,
)
from .engine import Chain, EngineConfig, _walk, mean_chain_latency, simulate
from .errors import ConfigError, IoError
from .seeding import derive_seed
from .solver import (
    EmbeddingScheme,
    EvolutionTrace,
    Fitness,
    GAParams,
    InvalidParamsError,
    SfcPlacement,
    _demand_table,
    _unit_table,
    acceptance_ratio,
    decode_chromosome,
    ga_solve,
    solve_simple_dijkstra,
)
from .telemetry import TelemetryFrame, bin_latencies, mean_latency
from .topology import NetworkSpec, SubstrateNetwork, build_network

REPORT_FILENAME = "report.json"


@dataclass(frozen=True)
class SolverSettings:
    kind: str
    ga: GAParams = GAParams()

    def __post_init__(self):
        if self.kind not in ("simple-dijkstra", "ga"):
            raise ValueError(f"unknown solver kind {self.kind!r}; use simple-dijkstra or ga")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "results"
    formats: tuple[str, ...] = ("json", "csv")

    def __post_init__(self):
        if not self.formats or not set(self.formats) <= {"json", "csv"}:
            raise ValueError(f"formats must be a non-empty list of 'json' and 'csv', got {list(self.formats)}")
        if not isinstance(self.directory, str) or not self.directory:
            raise ValueError("directory must be a non-empty string")


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    catalog: Catalog
    templates: tuple[SFCRequest, ...]
    duplicates: int
    solver: SolverSettings
    engine: EngineConfig
    output: OutputSettings
    seed: int
    digest: str


@dataclass(frozen=True)
class SfcOutcome:
    sfcr_id: str
    accepted: bool
    reason: str


@dataclass(frozen=True)
class ExperimentReport:
    config_digest: str
    outcomes: tuple[SfcOutcome, ...]
    acceptance_ratio: float | None
    mean_latency_ms: float | None
    frames: tuple[TelemetryFrame, ...]
    trace: EvolutionTrace | None
    solve_seconds: float | None = field(default=None, compare=False)


def _resolve_section(value, base_dir: Path, parser, what: str):
    """A section given inline as an object, or as a path relative to the config."""
    if isinstance(value, str):
        target = base_dir / value
        if not target.is_file():
            raise ConfigError(f"{what}: referenced file {target} does not exist")
        try:
            value = target.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what}: cannot read {target}: {exc}") from None
    try:
        return parser(value)
    except CatalogError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Load and fully validate an experiment config file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    try:
        check_keys(data, {"network", "catalog", "sfcrs", "duplicates", "solver", "engine", "output", "seed"},
                   {"network", "catalog", "sfcrs", "solver", "seed"}, "config")
        network = from_json(NetworkSpec, data["network"], "network")
        solver = from_json(SolverSettings, data["solver"], "solver")
        engine = from_json(EngineConfig, data.get("engine", {}), "engine")
        output = from_json(OutputSettings, data.get("output", {}), "output")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    base_dir = path.parent
    catalog = _resolve_section(data["catalog"], base_dir, load_catalog, "catalog")
    templates = _resolve_section(data["sfcrs"], base_dir, parse_sfcr_templates, "sfcrs")
    if not templates:
        raise ConfigError("sfcrs: the template list is empty")
    for template in templates:
        for vnf_name in template.chain:
            if not any(v.name == vnf_name for v in catalog):
                raise ConfigError(f"sfcrs: {template.sfcr_id!r} references unknown VNF {vnf_name!r}")

    duplicates = data.get("duplicates", 1)
    if not isinstance(duplicates, int) or isinstance(duplicates, bool) or duplicates < 0:
        raise ConfigError("duplicates must be a non-negative integer")

    seed = data["seed"] if seed_override is None else seed_override
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")

    digest = _config_digest(network, catalog, templates, duplicates, solver, engine, seed)
    return ExperimentConfig(network, catalog, templates, duplicates, solver, engine, output, seed, digest)


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _jsonable(value):
    """Dataclasses as dicts by document key and tuples as lists, recursively; dicts and scalars are shared.

    Unlike dataclasses.asdict nothing is deep-copied, which matters for a
    report's frames.
    """
    kind = type(value)
    if kind is tuple:
        return [_jsonable(item) for item in value]
    if kind in _SCALAR_TYPES or not is_dataclass(value):
        return value
    return {key: _jsonable(getattr(value, f.name)) for key, f in json_fields(kind).items()}


def _config_digest(network, catalog, templates, duplicates, solver, engine, seed) -> str:
    """Digest of everything that determines results; output settings excluded."""
    payload = {
        "network": network,
        "catalog": catalog.vnfs,
        "sfcrs": [template_to_dict(t) for t in templates],
        "duplicates": duplicates,
        "solver": solver,
        "engine": engine,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def template_to_dict(template: SFCRequest) -> dict:
    """A template as an SFCR document holds it, the form from_json reads: traffic is the segment list."""
    data = _jsonable(template)
    data["traffic"] = data["traffic"]["segments"]
    return data


def build_ga_evaluator(base_net: SubstrateNetwork, sfcrs, catalog: Catalog, engine_cfg: EngineConfig):
    """Fitness of a chromosome: its acceptance ratio and the mean latency of an engine run.

    Decoding is a pure function of the chromosome, so the first evaluation
    of a chromosome decodes it on a copy of a private copy of base_net
    (which is only copied and read) and walks each accepted chain; the
    evaluator keeps only the acceptance ratio and the accepted chains, in
    the form the engine's tick loop reads (chains of the same VNFs on the
    same hosts share one list of them). No scheme is verified here:
    decoding charges every allocation through the network's exact checks,
    and simulate verifies the scheme finally run. The demand table is
    converted to whole units once, on the private copy, so no decode
    converts or rescales. Every evaluation then runs the engine's tick loop
    without frames (engine.mean_chain_latency), seeded with the eval_seed
    passed by the solver, so a chromosome evaluated again in a later
    generation sees fresh jitter, like re-measuring a live deployment.
    Fitness values equal those of decode_chromosome, simulate and
    mean_latency bit for bit.
    """
    template = base_net.copy()
    demands = _unit_table(template, _demand_table(sfcrs, catalog))
    decoded: dict[tuple, tuple[float, list[Chain]]] = {}
    # one (host, VNF) list per distinct (chain, hosts), however many memo entries hold it
    shared: dict[tuple, list] = {}

    def evaluate(chromosome, eval_seed: int) -> Fitness:
        key = tuple(chromosome)
        entry = decoded.get(key)
        if entry is None:
            work = template.copy()
            scheme = decode_chromosome(work, sfcrs, catalog, key, demands=demands)
            chains = []
            for outcome, sfcr in zip(scheme.outcomes, sfcrs):
                if isinstance(outcome, SfcPlacement):
                    link_term, positions, _ = _walk(outcome, sfcr, work, catalog)
                    positions = shared.setdefault((sfcr.chain, outcome.hosts), positions)
                    chains.append((sfcr.offered_load, link_term, positions))
            entry = decoded[key] = acceptance_ratio(scheme.accept_flags()), chains
        ratio, chains = entry
        if not chains:
            return Fitness(ratio, None)
        return Fitness(ratio, mean_chain_latency(base_net.spec, chains, engine_cfg, eval_seed))

    return evaluate


def generate_requests(cfg: ExperimentConfig) -> list[SFCRequest]:
    """The run's SFCR list, expanded from the templates."""
    if cfg.duplicates == 0:
        return []
    return generate_sfcrs(cfg.templates, cfg.duplicates)


def run_solver(cfg: ExperimentConfig, net: SubstrateNetwork, sfcrs, parallel: int = 1):
    """Solve stage only: returns (scheme, trace-or-None, wall-clock seconds).

    parallel exists only because bench/lifecycle.py passes 1; any other value
    is an InvalidParamsError. GA candidates are evaluated one after another.
    """
    if parallel != 1:
        raise InvalidParamsError(f"parallel must be 1, got {parallel}")
    trace: EvolutionTrace | None = None
    started = time.perf_counter()
    if not sfcrs:
        scheme = EmbeddingScheme(())
    elif cfg.solver.kind == "simple-dijkstra":
        scheme = solve_simple_dijkstra(net, sfcrs, cfg.catalog)
    else:
        evaluator = build_ga_evaluator(net, sfcrs, cfg.catalog, cfg.engine)
        result = ga_solve(net, sfcrs, cfg.catalog, cfg.solver.ga, evaluator, cfg.seed)
        scheme, trace = result.best_scheme, result.trace
    return scheme, trace, time.perf_counter() - started


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> ExperimentReport:
    """Execute the full lifecycle deterministically from cfg.seed.

    parallel exists only because bench/lifecycle.py passes 1; it goes on to
    run_solver, which refuses any other value.
    """
    sfcrs = generate_requests(cfg)
    net = build_network(cfg.network)
    scheme, trace, solve_seconds = run_solver(cfg, net, sfcrs, parallel)

    # simulate verifies the scheme against the spec before it runs
    frames = simulate(net, scheme, sfcrs, cfg.catalog, cfg.engine, derive_seed(cfg.seed, "engine"))

    outcomes = tuple(
        SfcOutcome(o.sfcr_id, accepted, "" if accepted else o.reason)
        for o, accepted in zip(scheme.outcomes, scheme.accept_flags())
    )
    ratio = acceptance_ratio(scheme.accept_flags()) if outcomes else None
    accepted_ids = [o.sfcr_id for o in outcomes if o.accepted]
    mean = mean_latency(frames, accepted_ids) if accepted_ids and frames else None
    return ExperimentReport(
        config_digest=cfg.digest,
        outcomes=outcomes,
        acceptance_ratio=ratio,
        mean_latency_ms=mean,
        frames=tuple(frames),
        trace=trace,
        solve_seconds=solve_seconds,
    )


def resolve_output_dir(cfg: ExperimentConfig, pinned: str | None) -> Path:
    """Pinned directory if given, else a timestamped subdirectory of the config's."""
    if pinned:
        return Path(pinned)
    return Path(cfg.output.directory) / datetime.now().strftime("%Y%m%d-%H%M%S")


# -- report serialization ------------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready form of a report; solve_seconds is deliberately omitted."""
    return _jsonable(report)


@functools.cache
def _leaf_encoder(level: int) -> json.JSONEncoder:
    """Writes a container of scalars whose items sit at `level`, as the indenting encoder would.

    Without an indent the encoder runs in C; the line break and indent go
    into its item separator instead.
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * level, ": "))


def _same_objects(last: list, now: list) -> bool:
    """Whether two lists hold the very same objects in the same order; equal values do not count."""
    return len(last) == len(now) and all(map(is_, last, now))


class _Json(tuple):
    """Chunks of JSON text already written at the level of the value they stand for (see _render_frames)."""


def _json_text(value) -> str:
    """Exactly what json.dumps writes with sort_keys=True and an indent of 2, for string keys.

    A container whose values are all of exact scalar types is a leaf: the C
    encoder writes its items. Every other container, including one holding a
    tuple or a subclass of dict or list, is written here item by item.
    """
    out: list[str] = []
    _write_json(value, 0, out)
    return "".join(out)


def _write_json(value, level: int, out: list[str]) -> None:
    """Append value's text at level to out; a _Json's chunks are appended as they are."""
    if type(value) is _Json:
        out += value
        return
    if isinstance(value, dict):
        opening, closing, values = "{", "}", value.values()
    elif isinstance(value, (list, tuple)):
        opening, closing, values = "[", "]", value
    else:
        out.append(_leaf_encoder(level).encode(value))
        return
    if not value:
        out.append(opening + closing)
        return
    inner = "\n" + "  " * (level + 1)
    out += [opening, inner]
    if set(map(type, values)) <= _SCALAR_TYPES:
        out.append(_leaf_encoder(level + 1).encode(value)[1:-1])  # without the C encoder's brackets
    elif opening == "{":
        for index, (item_key, item) in enumerate(sorted(value.items())):
            if index:
                out += [",", inner]
            out += [encode_basestring_ascii(item_key), ": "]
            _write_json(item, level + 1, out)
    else:
        for index, item in enumerate(value):
            if index:
                out += [",", inner]
            _write_json(item, level + 1, out)
    out += ["\n", "  " * level, closing]


def report_from_dict(data) -> ExperimentReport:
    """Rebuild a report, checking every value the CSV and histogram writers read.

    A ValueError for a document of another shape.
    """
    report = from_json(ExperimentReport, data, "report")
    if min(report.acceptance_ratio or 0.0, report.mean_latency_ms or 0.0) < 0:
        raise ValueError("report: acceptance_ratio and mean_latency_ms must be non-negative")
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    for i, frame in enumerate(report.frames):
        if min(frame.timestamp_s, *frame.host_cpu.values(), *frame.link_bw_mbps.values(),
               *frame.sfc_latency_ms.values()) < 0:
            raise ValueError(f"report.frames[{i}] holds a negative number")
        missing = [sfcr_id for sfcr_id in accepted if sfcr_id not in frame.sfc_latency_ms]
        if missing:
            raise ValueError(f"report.frames[{i}] has no latency for accepted SFC {missing[0]!r}")
    return report


def read_report(path) -> ExperimentReport:
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IoError(f"{path}: invalid report JSON: {exc}") from None
    try:
        return report_from_dict(data)
    except ValueError as exc:
        raise IoError(f"{path}: malformed report: {exc}") from None


def _csv_text(header: list[str], rows) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def outcomes_csv(report: ExperimentReport) -> str:
    rows = [[o.sfcr_id, "true" if o.accepted else "false", o.reason] for o in report.outcomes]
    return _csv_text(["sfcr_id", "accepted", "reason"], rows)


def _field_texts(values) -> dict[str, str]:
    """Each value as csv.writer writes it as one field of a row, quoted only where needed.

    _render_frames writes the CSV lines directly: an id's field text comes
    from here, and a number is written with repr, as csv.writer writes a float.
    """
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    texts = {}
    for value in values:
        # after an empty first field, since a row of one empty field is written as ""
        writer.writerow(("", value))
        texts[value] = buffer.getvalue()[1:-1]
        buffer.seek(0)
        buffer.truncate()
    return texts


# between the items of a frame's map in report.json; a plain frame's item is
# _FRAME_JSON with its maps' items and its timestamp between the parts
_MAP_ITEM_SEPARATOR = ",\n        "
_FRAME_JSON = ('{\n      "host_cpu": {\n        ', '\n      },\n      "link_bw_mbps": {\n        ',
               '\n      },\n      "sfc_latency_ms": {\n        ', '\n      },\n      "timestamp_s": ', "\n    }")


def _plain(mapping) -> bool:
    """A non-empty map of str keys and exact, finite floats, which json and csv.writer both write as repr."""
    values = mapping.values()
    return (bool(mapping) and set(map(type, mapping)) == {str} and set(map(type, values)) == {float}
            and math.isfinite(sum(values)))  # the sum of finite floats is NaN or infinite only on overflow


def _plain_items(memo: dict, kind: str, mapping):
    """(key and value objects, sorted keys, values' reprs in that order, JSON items) of a plain map, else None.

    memo holds the last plain map of each kind; a map of the very same key
    and value objects, in the same order, gets that map's entry. Only
    identity counts, never equality, so 0.0 and -0.0 never share text. The
    entry holds the objects themselves, so no id is reused while it lives.
    """
    objects = [*mapping, *mapping.values()]
    last = memo.get(kind)
    if last is not None and _same_objects(last[0], objects):
        return last
    if not _plain(mapping):
        return None
    keys = sorted(mapping)
    reprs = [repr(mapping[key]) for key in keys]
    items = _MAP_ITEM_SEPARATOR.join([f"{encode_basestring_ascii(key)}: {text}" for key, text in zip(keys, reprs)])
    memo[kind] = last = objects, keys, reprs, items
    return last


def _render_frames(report: ExperimentReport) -> tuple[list[_Json], list[str], list[str]]:
    """Each frame's report.json item (at the level of the report's frames), latency.csv and cpu.csv lines.

    A frame is plain when its timestamp is an exact, finite float and its
    three maps are plain (see _plain). Each of its numbers' repr is then
    taken once for all three files. Its host_cpu and link_bw_mbps items, and
    its cpu.csv rows after the timestamp, are the last frame's where the map
    holds the very same objects (see _plain_items), as the frames of one
    traffic epoch do. The latency keys' encodings, their sorted order and
    the accepted ids' positions are found once per sequence of the very same
    key objects. Any other frame is written as json.dumps and csv.writer
    write it: its report.json item by _write_json, each CSV number as repr.
    """
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    id_texts = _field_texts(accepted)
    id_fields = [f",{id_texts[sfc_id]}," for sfc_id in accepted]
    host_texts = _field_texts(set().union(*(frame.host_cpu for frame in report.frames)))
    json_items, latency_lines, cpu_lines = [], [], []
    memo: dict = {}
    cpu_entry = cpu_rows = None
    keys: list = []  # the last plain frame's latency keys
    for frame in report.frames:
        cpu = _plain_items(memo, "cpu", frame.host_cpu)
        links = _plain_items(memo, "links", frame.link_bw_mbps)
        latency, stamp = frame.sfc_latency_ms, repr(frame.timestamp_s)
        if (cpu and links and type(frame.timestamp_s) is float and math.isfinite(frame.timestamp_s)
                and _plain(latency)):
            if not _same_objects(keys, [*latency]):
                keys = [*latency]
                order = sorted(range(len(keys)), key=keys.__getitem__)
                prefixes = [encode_basestring_ascii(keys[index]) + ": " for index in order]
                position = {key: index for index, key in enumerate(keys)}
                columns = [position[sfc_id] for sfc_id in accepted]
            reprs = [*map(repr, latency.values())]
            items = _MAP_ITEM_SEPARATOR.join(map(add, prefixes, map(reprs.__getitem__, order)))
            json_items.append(_Json((_FRAME_JSON[0], cpu[3], _FRAME_JSON[1], links[3], _FRAME_JSON[2], items,
                                     _FRAME_JSON[3], stamp, _FRAME_JSON[4])))
            picked = map(reprs.__getitem__, columns)
            if cpu is not cpu_entry:
                cpu_entry, cpu_rows = cpu, [f",{host_texts[host]},{text}\n" for host, text in zip(cpu[1], cpu[2])]
            rows = cpu_rows
        else:
            chunks: list[str] = []
            _write_json(_jsonable(frame), 2, chunks)
            json_items.append(_Json(chunks))
            picked = [repr(latency[sfc_id]) for sfc_id in accepted]
            rows = [f",{host_texts[host]},{frame.host_cpu[host]!r}\n" for host in sorted(frame.host_cpu)]
        latency_lines.append(stamp + ("\n" + stamp).join(map(add, id_fields, picked)) + "\n" if accepted else "")
        cpu_lines.append(stamp.join(["", *rows]))
    return json_items, latency_lines, cpu_lines


def trace_csv(report: ExperimentReport) -> str:
    rows = [
        [g.generation, g.mean_acceptance, g.min_acceptance, g.max_acceptance,
         "" if g.mean_latency_ms is None else g.mean_latency_ms,
         "" if g.min_latency_ms is None else g.min_latency_ms,
         "" if g.max_latency_ms is None else g.max_latency_ms]
        for g in report.trace
    ]
    return _csv_text(
        ["generation", "mean_ar", "min_ar", "max_ar",
         "mean_latency_ms", "min_latency_ms", "max_latency_ms"],
        rows,
    )


def histogram_csv(report: ExperimentReport, bin_width_ms: float) -> str:
    """Binned latency counts per accepted SFC, in outcome order."""
    rows = []
    for outcome in report.outcomes:
        if not outcome.accepted:
            continue
        histogram = bin_latencies(report.frames, outcome.sfcr_id, bin_width_ms)
        for lower_edge, count in histogram.bins:
            rows.append([outcome.sfcr_id, lower_edge, count])
    return _csv_text(["sfc_id", "bin_lower_ms", "count"], rows)


def write_atomically(directory, files: dict[str, str | list[str]]) -> list[Path]:
    """Write name -> content files into directory, each through a temporary file and os.replace.

    A content is a str or a list of str chunks, written one after another,
    so no file's whole text need be held in memory. A file lands whole or
    not at all; a reader never sees a partial one. On failure the temporary
    file of the file being written is removed, as far as that is possible,
    before the IoError is raised.
    """
    directory = Path(directory)
    written = []
    temp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            target = directory / name
            temp = directory / (name + ".tmp")
            with open(temp, "w", encoding="utf-8") as file:
                file.writelines([content] if isinstance(content, str) else content)
            os.replace(temp, target)
            written.append(target)
    except OSError as exc:
        if temp is not None:
            with suppress(OSError):
                temp.unlink(missing_ok=True)
        raise IoError(f"cannot write into {directory}: {exc}") from None
    return sorted(written)


def report_files(report: ExperimentReport, formats=("json", "csv")) -> dict[str, str | list[str]]:
    """A report's files by name, as write_atomically takes them, for the asked formats.

    "json" gives report.json; "csv" gives outcomes.csv, latency.csv (one row
    per frame and accepted SFC, in outcome order), cpu.csv (one row per frame
    and host, hosts sorted) and, for a GA run, trace.csv. The frames are
    rendered once, in one pass, for report.json, latency.csv and cpu.csv
    (see _render_frames), and those three files are lists of chunks.
    """
    json_items, latency_lines, cpu_lines = _render_frames(report)
    files: dict[str, str | list[str]] = {}
    if "json" in formats:
        document = report_to_dict(replace(report, frames=()))
        document["frames"] = json_items
        files[REPORT_FILENAME] = chunks = []
        _write_json(document, 0, chunks)
        chunks.append("\n")
    if "csv" in formats:
        files["outcomes.csv"] = outcomes_csv(report)
        files["latency.csv"] = ["timestamp_s,sfc_id,latency_ms\n", *latency_lines]
        files["cpu.csv"] = ["timestamp_s,host_id,utilization\n", *cpu_lines]
        if report.trace is not None:
            files["trace.csv"] = trace_csv(report)
    return files


def write_report(report: ExperimentReport, directory, formats=("json", "csv")) -> list[Path]:
    """Write report_files(report, formats) into directory; every file lands atomically or not at all."""
    return write_atomically(directory, report_files(report, formats))
