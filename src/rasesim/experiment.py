"""Experiment lifecycle: load config, generate, solve, validate, simulate, report.

A config is one JSON document with sections network, catalog, sfcrs,
duplicates, solver, engine, output, and seed. Unknown keys anywhere are an
error so typos fail fast. Two runs of the same config and seed produce
byte-identical report files; the wall-clock solve time is kept on the report
object (and printed by the CLI) but never serialized, precisely so files
stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import time
from array import array
from collections.abc import Mapping
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field, replace
from datetime import datetime
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .catalog import (
    Catalog,
    CatalogError,
    SFCRequest,
    check_keys,
    from_json,
    generate_sfcrs,
    load_catalog,
    parse_sfcr_templates,
    to_json,
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
from .telemetry import FrameMap, TelemetryFrame, latency_histograms, mean_latency
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
    """A section given inline as an object, or as a path relative to the config; the parser's errors name it."""
    if isinstance(value, str):
        target = base_dir / value
        if not target.is_file():
            problem = "is not a file" if target.exists() else "does not exist"
            raise ConfigError(f"{what}: referenced file {target} {problem}")
        try:
            value = target.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{what}: cannot read {target}: {exc}") from None
    try:
        return parser(value)
    except CatalogError as exc:
        raise ConfigError(str(exc)) from None


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


def _config_digest(network, catalog, templates, duplicates, solver, engine, seed) -> str:
    """Digest of everything that determines results; output settings excluded."""
    payload = {
        "network": network,
        "catalog": catalog.vnfs,
        "sfcrs": templates,
        "duplicates": duplicates,
        "solver": solver,
        "engine": engine,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=to_json)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def report_from_dict(data) -> ExperimentReport:
    """Rebuild a report, checking every value the CSV and histogram writers read.

    A ValueError for a document of another shape, and for a frame the
    writers would refuse, with their message (see _check_map and _read_map).
    """
    report = from_json(ExperimentReport, data, "report")
    if min(report.acceptance_ratio or 0.0, report.mean_latency_ms or 0.0) < 0:
        raise ValueError("report: acceptance_ratio and mean_latency_ms must be non-negative")
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    frames, memo, kinds = [], {}, ("host_cpu", "link_bw_mbps", "sfc_latency_ms")
    for i, frame in enumerate(report.frames):  # the writer's checks, in its order (see _render_frames)
        _check_map({"timestamp_s": frame.timestamp_s}, f"report.frames[{i}]")
        for kind in kinds:
            _check_map(getattr(frame, kind), f"report.frames[{i}].{kind}")
        _check_accepted(frame.sfc_latency_ms, f"report.frames[{i}].sfc_latency_ms", accepted)
        maps = [_read_map(memo, kind, getattr(frame, kind)) for kind in kinds]
        frames.append(TelemetryFrame(frame.timestamp_s, *maps))
    return replace(report, frames=tuple(frames))


def _read_map(memo: dict, kind: str, mapping: dict) -> FrameMap:
    """mapping, which _check_map accepts, as a FrameMap that shares what it can with the last map of kind in memo.

    If its key list equals the last map's, it shares that map's key tuple and
    index, as simulate's maps of one kind do; if its floats are also the same
    bit for bit (0.0 and -0.0 told apart), it is the last map itself, so the
    frames of one traffic epoch share their maps, and the writer renders such
    a map once (see _render_map).
    """
    keys, values = tuple(mapping), array("d", mapping.values())
    last = memo.get(kind)
    if last is None or keys != last[0][0]:
        last = (keys, {key: at for at, key in enumerate(keys)}), None
    elif values.tobytes() == last[1].values().tobytes():
        return last[1]
    memo[kind] = last = last[0], FrameMap(*last[0], values)
    return last[1]


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


def _csv_field(value) -> str:
    """value's text as one CSV field: str(value) (repr for a float), quoted if it holds a comma, a quote, CR or LF.

    RFC 4180's minimal quoting, with each quote doubled, the one rule of every
    report file on every Python version.
    """
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header: list[str], rows) -> str:
    """header and rows, each row's _csv_field texts joined by commas and ended by a line break."""
    return "".join([",".join(map(_csv_field, row)) + "\n" for row in [header, *rows]])


def outcomes_csv(report: ExperimentReport) -> str:
    rows = [[o.sfcr_id, "true" if o.accepted else "false", o.reason] for o in report.outcomes]
    return _csv_text(["sfcr_id", "accepted", "reason"], rows)


# before each frame's item in report.json but the first
_FRAME_SEPARATOR = ",\n    "
# a frame's item is _FRAME_JSON with its maps' texts and its timestamp between the parts
_FRAME_JSON = ('{\n      "host_cpu": ', ',\n      "link_bw_mbps": ', ',\n      "sfc_latency_ms": ',
               ',\n      "timestamp_s": ', "\n    }")


def _map_json(items) -> str:
    """A frame map's text in report.json from its "key: value" items, in key order."""
    return "{\n        " + ",\n        ".join(items) + "\n      }" if items else "{}"


def _check_map(mapping, where: str) -> None:
    """A ValueError naming where unless mapping is a Mapping of str keys to finite, non-negative floats.

    The one test of what a frame map is, for the writer and the reader. A
    finite sum means finite values, so each value is looked at only when the
    sum is not finite (finite floats can overflow it) or something else is off.
    """
    if not isinstance(mapping, Mapping):
        raise ValueError(f"{where} is {reprlib.repr(mapping)}, not a map of str keys to finite, non-negative floats")
    values = mapping.values()
    if not (set(map(type, mapping)) <= {str} and set(map(type, values)) <= {float}
            and math.isfinite(sum(values)) and (not values or min(values) >= 0)):
        for key, value in mapping.items():
            if type(key) is not str or type(value) is not float or not 0 <= value < math.inf:
                raise ValueError(f"{where} holds {key!r}: {value!r}, not a str key and a finite, non-negative float")


def _check_accepted(latency, where: str, accepted) -> None:
    """A ValueError naming where unless the latency map, checked by _check_map, has each accepted id."""
    missing = [key for key in accepted if key not in latency]
    if missing:
        raise ValueError(f"{where} has no entry for accepted SFC {missing[0]!r}")


def _render_map(memo: dict, kind: str, mapping, where: str, accepted=None):
    """(map, report.json text, CSV rows, keys, JSON slots, key order, CSV columns): the one renderer of frame maps.

    memo holds each kind's last entry. The very same map object, as the
    frames of one traffic epoch hold, gets that entry back. Any other map is
    checked (see _check_map); if its key list equals the last entry's, its
    values' reprs fill that entry's slots, and otherwise its keys are checked
    (_check_accepted too, for the latencies, whose accepted ids are given),
    sorted and encoded once, for the run of maps with equal key lists it
    starts. The filled JSON slots are the map's report.json text in key
    order. The CSV rows are cpu.csv's, a row per key in key order, or
    latency.csv's, a row per accepted id, each with a timestamp slot first.
    """
    last = memo.get(kind)
    if last is not None and last[0] is mapping:
        return last
    _check_map(mapping, f"{where}.{kind}")
    keys = [*mapping]
    if last is not None and keys == last[3]:
        rows, keys, items, order, columns = last[2:]
    else:
        if accepted is not None:
            _check_accepted(mapping, f"{where}.{kind}", accepted)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        position = {key: index for index, key in enumerate(keys)}
        columns = order if accepted is None else [position[sfc_id] for sfc_id in accepted]
        # the map's text in key order with a slot for each value; an encoded key holds no NUL
        parts = _map_json([encode_basestring_ascii(keys[index]) + ": \0" for index in order]).split("\0")
        items, rows = [None] * (2 * len(parts) - 1), [None, None, None, "\n"] * len(columns)
        items[::2], rows[1::4] = parts, [f",{_csv_field(keys[index])}," for index in columns]
    reprs = [*map(repr, mapping.values())]
    items[1::2], rows[2::4] = map(reprs.__getitem__, order), map(reprs.__getitem__, columns)
    memo[kind] = last = mapping, "".join(items), rows, keys, items, order, columns
    return last


def _render_frames(report: ExperimentReport, formats):
    """Each frame's (name, text) chunks of the asked files: report.json's item, latency.csv's and cpu.csv's lines.

    "json" in formats asks for report.json's item (after the line break, and
    the comma of every item but the first), "csv" for latency.csv's and
    cpu.csv's lines. A file not asked for gets no chunk. A frame must read
    back from report.json as it is: a finite, non-negative float timestamp,
    maps that _check_map accepts and a latency for each accepted SFC; any
    other is a ValueError naming it, whatever the files asked for. Each
    number's repr is taken once for all three files: every map, of every
    kind, is rendered by _render_map, whose entry both the JSON item and the
    CSV lines read.
    """
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    memo: dict = {}
    separator = "\n    "  # before the first frame's item in report.json; _FRAME_SEPARATOR before each later one
    for i, frame in enumerate(report.frames):
        where, stamp = f"report.frames[{i}]", frame.timestamp_s
        if type(stamp) is not float or not 0 <= stamp < math.inf:
            _check_map({"timestamp_s": stamp}, where)
        cpu = _render_map(memo, "host_cpu", frame.host_cpu, where)
        links = _render_map(memo, "link_bw_mbps", frame.link_bw_mbps, where)
        latency = _render_map(memo, "sfc_latency_ms", frame.sfc_latency_ms, where, accepted)
        stamp = repr(stamp)
        if "json" in formats:
            yield REPORT_FILENAME, "".join((separator, _FRAME_JSON[0], cpu[1], _FRAME_JSON[1], links[1],
                                            _FRAME_JSON[2], latency[1], _FRAME_JSON[3], stamp, _FRAME_JSON[4]))
            separator = _FRAME_SEPARATOR
        if "csv" in formats:
            for name, rows in (("latency.csv", latency[2]), ("cpu.csv", cpu[2])):
                rows[::4] = [stamp] * (len(rows) // 4)
                yield name, "".join(rows)


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
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    rows = [[sfc_id, lower_edge, count]
            for sfc_id, histogram in zip(accepted, latency_histograms(report.frames, accepted, bin_width_ms))
            for lower_edge, count in histogram.bins]
    return _csv_text(["sfc_id", "bin_lower_ms", "count"], rows)


def write_atomically(directory, chunks) -> list[Path]:
    """Append each (name, text) chunk, in order, to directory/name; return the files' paths, sorted.

    A name's temporary file is opened at its first chunk, so no file's whole
    text need be in memory, and stays open until the last chunk is written;
    only then is each os.replace'd into place, so a reader never sees a
    partial file and the files land together. An exception while writing (an
    OSError, raised as an IoError, or any other, such as a refused frame's
    ValueError) leaves no new file, no temporary file and no directory this
    call made, as far as their removal is possible. Only an error between two
    of the final renames can leave the files renamed before it.
    """
    directory = Path(directory)
    temps: dict[str, Path] = {}
    made = []  # the directories this call makes, deepest first
    try:
        for path in (directory, *directory.parents):
            if path.exists():
                break
            made.append(path)
        directory.mkdir(parents=True, exist_ok=True)
        with ExitStack() as stack:
            opened = {}
            for name, text in chunks:
                if name not in opened:
                    temps[name] = directory / (name + ".tmp")
                    opened[name] = stack.enter_context(open(temps[name], "w", encoding="utf-8"))
                opened[name].write(text)
        for name, temp in temps.items():
            os.replace(temp, directory / name)
    except BaseException as exc:
        for path in temps.values():
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for path in made:
            with suppress(OSError):
                path.rmdir()
        if isinstance(exc, OSError):
            raise IoError(f"cannot write into {directory}: {exc}") from None
        raise
    return sorted(directory / name for name in temps)


def _report_chunks(report: ExperimentReport, formats):
    """The asked files' (name, text) chunks: their heads, the frames' (see _render_frames), report.json's tail.

    outcomes.csv and trace.csv are whole in their head; the frames are
    rendered once, for report.json, latency.csv and cpu.csv.
    """
    tail = ""
    if "json" in formats:
        text = json.dumps(to_json(replace(report, frames=())), indent=2, sort_keys=True)
        if report.frames:
            # the one top-level line of the frames: a JSON string holds no raw line break, a deeper line more indent
            head, rest = text.split('\n  "frames": []')
            text, tail = head + '\n  "frames": [', "\n  ]" + rest
        yield REPORT_FILENAME, text
    if "csv" in formats:
        yield "outcomes.csv", outcomes_csv(report)
        yield "latency.csv", "timestamp_s,sfc_id,latency_ms\n"
        yield "cpu.csv", "timestamp_s,host_id,utilization\n"
        if report.trace is not None:
            yield "trace.csv", trace_csv(report)
    yield from _render_frames(report, formats)
    if "json" in formats:
        yield REPORT_FILENAME, tail + "\n"


def report_files(report: ExperimentReport, formats=("json", "csv")) -> dict[str, str]:
    """A report's files by name, for the asked formats: write_report's texts in memory.

    "json" gives report.json; "csv" gives outcomes.csv, latency.csv (one row
    per frame and accepted SFC, in outcome order), cpu.csv (one row per frame
    and host, hosts sorted) and, for a GA run, trace.csv. The frames are
    rendered once, in one pass, for report.json, latency.csv and cpu.csv
    (see _render_frames). A frame that read_report could not read back as it
    is raises a ValueError.
    """
    texts: dict[str, list[str]] = {}
    for name, text in _report_chunks(report, formats):
        texts.setdefault(name, []).append(text)
    return {name: "".join(parts) for name, parts in texts.items()}


def write_report(report: ExperimentReport, directory, formats=("json", "csv")) -> list[Path]:
    """Write report_files(report, formats) into directory, streaming each frame's text to disk as it is rendered.

    The files land together or not at all (see write_atomically): a frame
    report_files refuses is a ValueError, and no file is written.
    """
    return write_atomically(directory, _report_chunks(report, formats))
