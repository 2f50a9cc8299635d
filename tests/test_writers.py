"""The report writers against the standard library's writers: same text for every frame read_report reads back.

The CSV reference is csv.writer ending each row with CR LF, the row's last CR
LF then written as LF: what every Python version from 3.10 on writes alike.

A frame is written only when read_report reads it back as it was (str keys,
finite non-negative floats, a latency for each accepted SFC); any other frame
is a ValueError naming it, and no file is written.
"""

import csv
import dataclasses
import errno
import json
import operator
import random
import tracemalloc
from fractions import Fraction
from io import StringIO

import pytest

from rasesim import experiment
from rasesim.catalog import to_json
from rasesim.cli import main
from rasesim.engine import EngineConfig, simulate
from rasesim.errors import IoError
from rasesim.experiment import (ExperimentReport, SfcOutcome, load_config, read_report, report_files,
                                report_from_dict, run_experiment, write_atomically, write_report)
from rasesim.solver import solve_simple_dijkstra
from rasesim.telemetry import FrameMap, TelemetryFrame, mean_latency
from rasesim.topology import HostSpec, NetworkSpec, build_network

from helpers import sfcr, small_catalog, star_net

# a quote, a comma, line breaks, a lone CR, a backslash, control characters and non-ASCII text
AWKWARD = ['plain', 'a,b', 'say "hi"', 'two\nlines', 'cr\rlf\r\n', 'cr\r', 'back\\slash', 'tab\t\x00',
           'ünïcødé', '雪', '😀', '']

# finite, non-negative floats, -0.0, subnormals and the largest float among them
FLOATS = [0.0, -0.0, 0.1, 2.5, 1e-7, 1e16, 1e22, 1e300, 1.7976931348623157e308, 5e-324, 1e-310]


# stands in for NUL, which csv.writer refuses before Python 3.11 and writes as it is since
NUL_STAND_IN = "\ue000"


def _csv_reference(header, rows) -> str:
    lines = []
    for row in [header, *rows]:
        buffer = StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(
            [value.replace("\0", NUL_STAND_IN) if type(value) is str else value for value in row])
        lines.append(buffer.getvalue().removesuffix("\r\n").replace(NUL_STAND_IN, "\0") + "\n")
    return "".join(lines)


def _report(rng: random.Random) -> ExperimentReport:
    ids = AWKWARD + ["a,b"]  # an id repeated among the outcomes is written twice, as before
    outcomes = tuple(SfcOutcome(i, rng.random() < 0.8, "") for i in ids)
    frames = []
    for tick in range(5):
        hosts = [h for h in AWKWARD if rng.random() < 0.8]  # frames may differ in their hosts
        frames.append(TelemetryFrame(
            timestamp_s=rng.choice((tick * 0.1, float(tick))),
            host_cpu={h: rng.choice(FLOATS + [rng.random()]) for h in hosts},
            link_bw_mbps={},
            sfc_latency_ms={i: rng.choice(FLOATS + [rng.uniform(0, 100)]) for i in ids},
        ))
    return ExperimentReport("digest", outcomes, None, None, tuple(frames), None)


def _csv_texts(report: ExperimentReport) -> dict[str, str]:
    """report_files's CSV files, each joined into one text."""
    return {name: "".join(content) for name, content in report_files(report, ("csv",)).items()}


def test_latency_and_cpu_csv_equal_csv_writer():
    for seed in range(20):
        report = _report(random.Random(seed))
        accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
        files = _csv_texts(report)
        assert files["latency.csv"] == _csv_reference(
            ["timestamp_s", "sfc_id", "latency_ms"],
            [[f.timestamp_s, i, f.sfc_latency_ms[i]] for f in report.frames for i in accepted])
        assert files["cpu.csv"] == _csv_reference(
            ["timestamp_s", "host_id", "utilization"],
            [[f.timestamp_s, h, f.host_cpu[h]] for f in report.frames for h in sorted(f.host_cpu)])


def test_csv_text_equals_csv_writer_on_random_rows():
    """Rows of two or more fields, as the writers write them (csv.writer writes a row of one empty field as "")."""
    alphabet = ['a', ' ', '\t', ',', '"', '\r', '\n', '\x00', '\x0b', 'é', '雪', '😀', "'", '\\', '']
    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randrange(2, 4)
        header, *rows = [["".join(rng.choices(alphabet, k=rng.randrange(4))) for _ in range(width)]
                         for _ in range(rng.randrange(1, 4))]
        assert experiment._csv_text(header, rows) == _csv_reference(header, rows), (header, rows)


# each field's text on every Python version: quoted, with each quote doubled, if it holds a comma, a quote, CR
# or LF; a number is its str, which is repr for a float
CSV_FIELDS = [
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ("two\nlines", '"two\nlines"'),
    ("cr\r", '"cr\r"'),
    ("a\x00x", "a\x00x"),
    ("a\x00,x", '"a\x00,x"'),
    ("", ""),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (7, "7"),
]


@pytest.mark.parametrize("value, text", CSV_FIELDS)
def test_csv_field_writes_the_same_text_on_every_version(value, text):
    assert experiment._csv_field(value) == text
    assert experiment._csv_text(["x", "y"], [[value, value]]) == f"x,y\n{text},{text}\n"


# Values equal to another but not the same object, whose texts differ or must be written afresh: a writer
# that reused a map's text on == instead of on identity would write the first one's text for the second.
def _lookalikes() -> list[float]:
    return [float("0.0"), float("-0.0"), float("1"), float("1.0")]


def _similar_maps(rng: random.Random, count: int) -> list[dict]:
    """count maps over one key list: each the last one's objects, or those with a lookalike or swap."""
    keys = [rng.choice(AWKWARD) + str(i) for i in range(rng.randrange(1, 5))]
    maps = [dict(zip(keys, (rng.choice(_lookalikes()) for _ in keys)))]
    for _ in range(count - 1):
        current = dict(maps[-1])  # the same key and value objects, in a dict of its own
        change = rng.randrange(4)
        if change == 1:
            current[rng.choice(keys)] = rng.choice(_lookalikes())
        elif change == 2 and len(keys) > 1:
            first, second = rng.sample(keys, 2)
            current[first], current[second] = current[second], current[first]
        elif change == 3:
            current = {key: current[key] for key in reversed(keys)}  # same objects, other order
        maps.append(current)
    return maps


def _shared_frames(rng: random.Random, count: int) -> list[TelemetryFrame]:
    cpu, links, latency = (_similar_maps(rng, count) for _ in range(3))
    return [TelemetryFrame(float(tick), cpu[tick], links[tick], latency[tick]) for tick in range(count)]


def _json_reference(report: ExperimentReport) -> str:
    return json.dumps(to_json(report), sort_keys=True, indent=2) + "\n"


def _assert_report_json_equals_json_dumps(report: ExperimentReport, note=None) -> None:
    assert "".join(report_files(report, ("json",))["report.json"]) == _json_reference(report), note


# a top-level line of the document without frames, as a string and as a key; escaped, it cannot match that line
SPLICE_LINE = '\n  "frames": []'


def _random_report(rng: random.Random) -> ExperimentReport:
    """A report read_report reads back as it is: awkward ids and keys, -0.0, subnormals and the largest float.

    Its strings may hold SPLICE_LINE, and now and then a frame map is empty.
    """
    names = AWKWARD + [SPLICE_LINE]
    ids = rng.sample(names, rng.randrange(4))
    outcomes = tuple(SfcOutcome(i, rng.random() < 0.7, rng.choice(names)) for i in ids)
    accepted = [o.sfcr_id for o in outcomes if o.accepted]

    def values(keys):
        return {key: rng.choice(FLOATS + [rng.uniform(0, 1e3)]) for key in keys}

    frames = tuple(TelemetryFrame(rng.choice((float(tick), tick * 0.1, -0.0 if tick == 0 else 5e-324 * tick)),
                                  values(rng.sample(names, rng.randrange(4))),
                                  values(rng.sample(names, rng.randrange(4))),
                                  values(accepted + rng.sample(names, rng.randrange(3))))
                   for tick in range(rng.randrange(4)))
    return ExperimentReport(rng.choice(names), outcomes, rng.choice((None, 0.0, 0.75)),
                            rng.choice((None, 0.0, 12.5, 1e-320)), frames, None)


def test_report_json_equals_json_dumps_on_random_documents():
    """Random reports' frames are placed into json.dumps's document intact, whatever strings it holds."""
    for seed in range(400):
        _assert_report_json_equals_json_dumps(_random_report(random.Random(seed)), seed)


def test_report_json_keeps_dict_subclasses_inside_frames_indented():
    class Mapping(dict):
        pass

    frames = (TelemetryFrame(0.5, Mapping(y=1.5), {"t": 2.0}, {"s": 1.5}),
              TelemetryFrame(1.0, Mapping(h=0.25), Mapping(), Mapping(s=2.5)))
    outcomes = (SfcOutcome("s", True, ""),)
    _assert_report_json_equals_json_dumps(ExperimentReport("digest", outcomes, 1.0, 2.5, frames, None))


def test_report_json_reuses_text_only_for_the_same_objects():
    for seed in range(200):
        rng = random.Random(seed)
        frames = _shared_frames(rng, 8)
        shared = frames[0].host_cpu
        # one map object as another kind of map, and again after frames of other maps
        frames += [TelemetryFrame(8.0, shared, shared, {}), TelemetryFrame(9.0, {}, shared, shared)]
        _assert_report_json_equals_json_dumps(ExperimentReport("digest", (), None, None, tuple(frames), None), seed)


def _frames_of(maps: list[dict]) -> ExperimentReport:
    """A report whose frame i holds maps[i]'s key and value objects in each of its three maps."""
    frames = tuple(TelemetryFrame(float(tick), dict(m), dict(m), dict(m)) for tick, m in enumerate(maps))
    return ExperimentReport("digest", (), None, None, frames, None)


def test_report_json_writes_lookalike_values_of_one_key_apart():
    zero, minus_zero, one, other_one = _lookalikes()
    for values in ([zero, minus_zero, zero], [minus_zero, zero, minus_zero], [one, other_one, one]):
        _assert_report_json_equals_json_dumps(_frames_of([{"x": value, "y": zero} for value in values]), values)
    _assert_report_json_equals_json_dumps(_frames_of([{"x": zero, "y": minus_zero}, {"x": minus_zero, "y": zero}]))


def test_cpu_csv_reuses_rows_only_for_the_same_objects():
    for seed in range(200):
        frames = tuple(_shared_frames(random.Random(seed), 8))
        report = ExperimentReport("digest", (), None, None, frames, None)
        assert _csv_texts(report)["cpu.csv"] == _csv_reference(
            ["timestamp_s", "host_id", "utilization"],
            [[f.timestamp_s, h, f.host_cpu[h]] for f in report.frames for h in sorted(f.host_cpu)]), seed


def test_a_value_changed_in_place_between_two_writes_is_written_anew(tmp_path):
    value = 0.25
    frames = tuple(TelemetryFrame(float(t), {"h1": value, "h2": 0.0}, {"l1": value}, {}) for t in range(3))
    report = ExperimentReport("digest", (), None, None, frames, None)
    write_report(report, tmp_path / "first")
    frames[1].host_cpu["h1"] = frames[1].link_bw_mbps["l1"] = 0.75
    write_report(report, tmp_path / "second")
    first, second = ((tmp_path / name / "report.json").read_text() for name in ("first", "second"))
    assert [frame["host_cpu"]["h1"] for frame in json.loads(first)["frames"]] == [0.25] * 3
    assert second == _json_reference(report)
    assert [frame["link_bw_mbps"]["l1"] for frame in json.loads(second)["frames"]] == [0.25, 0.75, 0.25]
    assert (tmp_path / "second" / "cpu.csv").read_text().splitlines()[3:5] == ["1.0,h1,0.75", "1.0,h2,0.0"]


class Millis(float):
    """A float subclass with a repr of its own: csv.writer writes that repr, json float's."""

    def __repr__(self):
        return f"Millis({float.__repr__(self)})"


def _latency_values(rng: random.Random, keys) -> list[float]:
    """Finite, non-negative floats, now and then -0.0 or the smallest subnormal."""
    return [rng.choice((rng.uniform(0, 500), rng.random() * 1e-7, 0.0, -0.0, 5e-324)) for _ in keys]


def _latency_report(rng: random.Random) -> ExperimentReport:
    """Frames whose latency keys keep, reorder, copy, gain or lose keys from one frame to the next.

    One report in ten accepts nothing, so its latency maps start empty.
    """
    ids = rng.sample(AWKWARD, 6)
    ids += rng.sample(ids, 2)  # an id accepted twice is written twice
    accepting = rng.random() < 0.9
    outcomes = tuple(SfcOutcome(i, accepting and rng.random() < 0.8, "" if rng.random() < 0.5 else "NoHost")
                     for i in ids)
    keys = list(dict.fromkeys(ids)) if accepting else []
    frames = []
    for tick in range(8):
        change = rng.randrange(5)
        if change == 1:
            rng.shuffle(keys)
        elif change == 2:
            keys = ["".join(list(key)) for key in keys]  # equal keys, other objects where str allows
        elif change == 3:
            keys = keys + [f"extra{tick}"]
        elif change == 4:
            keys = [key for key in keys if not key.startswith("extra")]
        frames.append(TelemetryFrame(float(tick), {"h1": rng.random(), "h2": 0.0}, {"l1": rng.random()},
                                     dict(zip(keys, _latency_values(rng, keys)))))
    return ExperimentReport("digest", outcomes, rng.choice((None, 0.75)), rng.choice((None, 12.5)),
                            tuple(frames), None)


def _csv_references(report: ExperimentReport) -> dict[str, str]:
    accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
    return {
        "outcomes.csv": _csv_reference(["sfcr_id", "accepted", "reason"],
                                       [[o.sfcr_id, str(o.accepted).lower(), o.reason] for o in report.outcomes]),
        "latency.csv": _csv_reference(["timestamp_s", "sfc_id", "latency_ms"],
                                      [[f.timestamp_s, i, f.sfc_latency_ms[i]] for f in report.frames
                                       for i in accepted]),
        "cpu.csv": _csv_reference(["timestamp_s", "host_id", "utilization"],
                                  [[f.timestamp_s, h, f.host_cpu[h]] for f in report.frames
                                   for h in sorted(f.host_cpu)]),
    }


@pytest.mark.parametrize("formats", [("json",), ("csv",), ("json", "csv")])
def test_write_report_equals_json_dumps_and_csv_writer(tmp_path, formats):
    """Frames rendered once for all three files, as json.dumps and csv.writer write them."""
    for seed in range(80):
        report = _latency_report(random.Random(seed))
        written = write_report(report, tmp_path / str(seed), formats)
        files = {path.name: path.read_bytes().decode("utf-8") for path in written}
        expected = {}
        if "json" in formats:
            expected["report.json"] = _json_reference(report)
        if "csv" in formats:
            expected.update(_csv_references(report))
        assert files == expected, seed


SCENARIOS = ["exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "ga_small"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_report_files_are_the_texts_write_report_writes(scenario_dir, tmp_path, scenario):
    """Each report_files value is one str, the very bytes write_report writes, for each format."""
    report = run_experiment(load_config(scenario_dir / f"{scenario}.json"))
    for formats in (("json",), ("csv",), ("json", "csv")):
        files = report_files(report, formats)
        assert all(type(text) is str for text in files.values()), formats
        written = write_report(report, tmp_path / "-".join(formats), formats)
        assert {name: text.encode("utf-8") for name, text in files.items()} == \
            {path.name: path.read_bytes() for path in written}, formats


def test_each_writer_called_alone_equals_the_standard_library():
    for seed in range(80):
        report = _latency_report(random.Random(seed))
        assert _csv_texts(report) == _csv_references(report), seed


def test_write_report_and_the_report_command_render_the_frames_once(scenario_dir, tmp_path, monkeypatch):
    """One _render_frames call per write_report, whatever the formats, and per `rasesim report`."""
    calls = []
    render_frames = experiment._render_frames

    def counted(report, *args):
        calls.append(report)
        return render_frames(report, *args)

    monkeypatch.setattr(experiment, "_render_frames", counted)
    report = _simulated(scenario_dir)
    for formats in (("json",), ("csv",), ("json", "csv")):
        calls.clear()
        write_report(report, tmp_path / "-".join(formats), formats)
        assert len(calls) == 1, formats
    calls.clear()
    assert main(["report", "--report", str(tmp_path / "json" / "report.json"), "--quiet"]) == 0
    assert len(calls) == 1
    assert (tmp_path / "json" / "histogram.csv").is_file()


def _simulated(scenario_dir, duplicates: int = 1, sample_interval_s: float = 1.0) -> ExperimentReport:
    """exp1's report: 4 SFCRs per duplicate over three traffic epochs of 20 s, sampled every sample_interval_s."""
    cfg = load_config(scenario_dir / "exp1.json")
    engine = dataclasses.replace(cfg.engine, sample_interval_s=sample_interval_s)
    return run_experiment(dataclasses.replace(cfg, duplicates=duplicates, engine=engine))


def _assert_written_as_the_standard_library_writes(report: ExperimentReport, directory) -> dict[str, str]:
    written = write_report(report, directory)
    files = {path.name: path.read_bytes().decode("utf-8") for path in written}
    assert files == {"report.json": _json_reference(report),
                     **_csv_references(report)}
    return files


def test_new_and_shared_maps_mixed_in_one_traffic_epoch(scenario_dir, tmp_path):
    """A frame of maps of other objects between frames of shared objects leaves no text behind."""
    report = _simulated(scenario_dir)
    frames = list(report.frames)
    first = frames[0]
    host, link, sfc_id = next(iter(first.host_cpu)), next(iter(first.link_bw_mbps)), next(iter(first.sfc_latency_ms))
    assert all(frame.host_cpu is first.host_cpu for frame in frames[:20]), "one epoch shares its host map"
    variants = {
        2: {"sfc_latency_ms": {**frames[2].sfc_latency_ms, sfc_id: 7.0}},
        4: {"host_cpu": {**frames[4].host_cpu, host: 0.5}},
        6: {"link_bw_mbps": {**frames[6].link_bw_mbps, link: 1e308}},
        8: {"timestamp_s": 8.25},
        10: {"link_bw_mbps": {}},  # an empty map is written as "{}"
        12: {"host_cpu": {**frames[12].host_cpu, host: -0.0}},  # equal to 0.0, but not the shared object
        13: {"sfc_latency_ms": {**frames[13].sfc_latency_ms, sfc_id: 5e-324}},
        # keys equal to the last frame's, but other objects: the same run of latency keys
        14: {"sfc_latency_ms": {"".join(key): value for key, value in frames[14].sfc_latency_ms.items()}},
    }
    for tick, change in variants.items():
        frames[tick] = dataclasses.replace(frames[tick], **change)
    assert [*frames[14].sfc_latency_ms] == [*frames[15].sfc_latency_ms]
    assert not any(map(operator.is_, frames[14].sfc_latency_ms, frames[15].sfc_latency_ms))
    report = dataclasses.replace(report, frames=tuple(frames))
    files = _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert f"4.0,{host},0.5\n" in files["cpu.csv"] and f"12.0,{host},-0.0\n" in files["cpu.csv"]
    assert files["cpu.csv"].count(",-0.0\n") == 1


def _with_second_frame(**change) -> ExperimentReport:
    """A well-formed one-SFC report of two frames, the second with change's fields."""
    frame = TelemetryFrame(0.0, {"h1": 0.25}, {"h1--sw": 0.16}, {"r1": 3.5})
    frames = (frame, dataclasses.replace(frame, **{"timestamp_s": 1.0, **change}))
    return ExperimentReport("x", (SfcOutcome("r1", True, ""),), 1.0, 3.5, frames, None)


# frames that the writer refuses; read_report refuses each that a JSON document can hold with the same message
REFUSED = {
    "int-value": {"host_cpu": {"h1": 1}},
    "int-timestamp": {"timestamp_s": 1},
    "nan": {"sfc_latency_ms": {"r1": float("nan")}},
    "inf": {"link_bw_mbps": {"h1--sw": float("inf")}},
    "negative": {"sfc_latency_ms": {"r1": -5.0}},
    "non-str-key": {"sfc_latency_ms": {"r1": 3.5, 2: 1.5}},
    "nested-dict": {"link_bw_mbps": {"h1--sw": {"x": 0.16}}},
    "float-subclass": {"host_cpu": {"h1": Millis(0.25)}},
    "missing-accepted-latency": {"sfc_latency_ms": {}},
    # a map that is not a Mapping
    **{f"{field}-{name}": {field: value} for field in ("host_cpu", "link_bw_mbps", "sfc_latency_ms")
       for name, value in (("none", None), ("pairs", [("r1", 3.5)]), ("float", 0.25))},
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_frame_outside_the_contract_is_refused_before_any_file(tmp_path, case):
    """The writer's side of test_cli.py::test_malformed_report_is_one_line_io_error: a ValueError naming the frame."""
    report = _with_second_frame(**REFUSED[case])
    (field,) = REFUSED[case]
    where = r"^report\.frames\[1\]" + ("" if field == "timestamp_s" else rf"\.{field}\b")
    for formats in (("json",), ("csv",), ("json", "csv")):
        with pytest.raises(ValueError, match=where) as refused:
            report_files(report, formats)
    (tmp_path / "kept").mkdir()
    for directory in (tmp_path / "kept", tmp_path / "new"):
        with pytest.raises(ValueError, match=where):
            write_report(report, directory)
    assert not list((tmp_path / "kept").iterdir()) and not (tmp_path / "new").exists()
    if case in ("non-str-key", "float-subclass"):  # json.dumps writes these as a str key and a float
        return
    with pytest.raises(ValueError) as read:
        report_from_dict(json.loads(_json_reference(report)))
    # a list of tuples reads back as a list of lists, so a "-pairs" case's reprs differ there and only there
    assert str(read.value).replace("[['r1', 3.5]]", "[('r1', 3.5)]") == str(refused.value)


def test_finite_floats_whose_sum_overflows_are_written(tmp_path):
    big = 1.7e308
    assert big + big == float("inf")
    frame = TelemetryFrame(big, {"a": big, "b": big}, {"a": big, "b": big}, {"r1": big, "r2": big})
    outcomes = (SfcOutcome("r1", True, ""), SfcOutcome("r2", True, ""))
    report = ExperimentReport("x", outcomes, 1.0, big, (frame,), None)
    files = _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert f"{big!r},r2,{big!r}\n" in files["latency.csv"]
    assert read_report(tmp_path / "report.json") == report


def _spiking_run(host_count: int, spike_prob: float, seed: int) -> ExperimentReport:
    """A simulated run of three traffic epochs on a star whose idle hosts spike at spike_prob."""
    net = build_network(star_net(host_count=host_count, cpus=2))
    catalog = small_catalog()
    # traffic of r1 ends at 4 s and of r2 at 8 s: epochs at ticks 0-3, 4-7 and 8-11, and idle hosts in each
    requests = [sfcr("r1", ["alpha"], rps=5.0, duration_s=4.0), sfcr("r2", ["beta"], rps=2.0, duration_s=8.0)]
    scheme = solve_simple_dijkstra(net, requests, catalog)
    assert all(scheme.accept_flags())
    cfg = EngineConfig(duration_s=12.0, sample_interval_s=1.0, jitter_sigma=0.05, idle_spike_prob=spike_prob)
    frames = tuple(simulate(net, scheme, requests, catalog, cfg, seed))
    outcomes = tuple(SfcOutcome(r.sfcr_id, True, "") for r in requests)
    return ExperimentReport("digest", outcomes, 1.0, mean_latency(frames, ["r1", "r2"]), frames, None)


@pytest.mark.parametrize("spike_prob", [0.0, 0.3, 1.0])
def test_shared_copied_and_read_back_maps_are_written_alike(spike_prob, tmp_path):
    """Across spiked ticks, frames of shared maps, of copied maps and read back are written to the same bytes."""
    host_maps = []
    for seed in range(6):
        report = _spiking_run(3 + seed % 3, spike_prob, seed)
        frames = report.frames
        assert len({id(frame.link_bw_mbps) for frame in frames}) == 3, "one link map per epoch"
        host_maps.append(len({id(frame.host_cpu) for frame in frames}))
        copied = dataclasses.replace(report, frames=tuple(
            TelemetryFrame(f.timestamp_s, dict(f.host_cpu), dict(f.link_bw_mbps), dict(f.sfc_latency_ms))
            for f in frames))
        write_report(report, tmp_path / str(seed))
        back = read_report(tmp_path / str(seed) / "report.json")
        expected = {"report.json": _json_reference(report), **_csv_references(report)}
        for other in (report, copied, back):
            assert {name: "".join(content) for name, content in report_files(other).items()} == expected, seed
    # one host map per epoch without spikes and one per tick where every idle host spikes; in between, runs
    # with calm ticks among the spiked ones
    if spike_prob in (0.0, 1.0):
        assert host_maps == [3 if spike_prob == 0.0 else 12] * 6
    else:
        assert min(host_maps) > 3 and sum(count < 12 for count in host_maps) >= 3, host_maps


@pytest.mark.parametrize("spike_prob", [0.0, 0.3, 1.0])
def test_each_kind_s_keys_are_encoded_once_per_run_of_equal_key_lists(spike_prob, monkeypatch):
    """A counted contract: _map_json runs once per map kind and run of equal key lists, however many maps there are.

    Every frame holds a latency map of its own, and spiked ticks host maps of
    their own, yet each kind's keys are sorted and encoded once; the maps
    after the first of a run only fill its slots.
    """
    calls = []
    map_json = experiment._map_json
    monkeypatch.setattr(experiment, "_map_json", lambda items: calls.append(items) or map_json(items))
    report = _spiking_run(4, spike_prob, 1)
    runs = objects = 0
    for kind in ("host_cpu", "link_bw_mbps", "sfc_latency_ms"):
        maps = [getattr(frame, kind) for frame in report.frames]
        runs += 1 + sum(map(operator.ne, map(list, maps), map(list, maps[1:])))
        objects += len({id(mapping) for mapping in maps})
    assert runs == 3 and objects >= 3 + 3 + 12
    for formats in (("json",), ("csv",), ("json", "csv")):
        calls.clear()
        report_files(report, formats)
        assert len(calls) == runs, (formats, objects)


def test_a_report_read_back_equals_it_and_is_written_to_the_same_bytes(scenario_dir, tmp_path):
    reports = [_random_report(random.Random(seed)) for seed in range(150)] + [_simulated(scenario_dir)]
    assert any("-0.0" in "".join(report_files(report)["cpu.csv"]) for report in reports)
    for index, report in enumerate(reports):
        written = write_report(report, tmp_path / str(index))
        back = read_report(tmp_path / str(index) / "report.json")
        assert back == report, index
        again = {name: "".join(content) for name, content in report_files(back).items()}
        assert again == {path.name: path.read_bytes().decode("utf-8") for path in written}, index


def test_a_run_with_an_int_sample_interval_is_written_and_read_back(scenario_dir, tmp_path):
    cfg = load_config(scenario_dir / "exp1.json")
    report = run_experiment(dataclasses.replace(cfg, engine=EngineConfig(duration_s=3, sample_interval_s=1)))
    assert [frame.timestamp_s for frame in report.frames] == [0.0, 1.0, 2.0]
    assert all(type(frame.timestamp_s) is float for frame in report.frames)
    _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert read_report(tmp_path / "report.json") == report


def test_a_run_with_fraction_engine_settings_is_written_and_read_back(scenario_dir, tmp_path):
    """An EngineConfig of ints and Fractions is stored as floats, so the capped utilizations it makes are floats."""
    cfg = load_config(scenario_dir / "exp1.json")
    engine = EngineConfig(duration_s=3, sample_interval_s=Fraction(1), utilization_cap=Fraction(1, 100),
                          jitter_sigma=Fraction(1, 20), idle_spike_prob=0, idle_spike_range=(Fraction(1, 20), 1))
    assert engine == EngineConfig(duration_s=3.0, sample_interval_s=1.0, utilization_cap=0.01, jitter_sigma=0.05,
                                  idle_spike_prob=0.0, idle_spike_range=(0.05, 1.0))
    assert all(type(value) is float for value in (*dataclasses.astuple(engine)[:5], *engine.idle_spike_range))
    report = run_experiment(dataclasses.replace(cfg, engine=engine))
    assert 0.01 in report.frames[0].host_cpu.values()
    assert all(type(value) is float for frame in report.frames for value in frame.host_cpu.values())
    _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert read_report(tmp_path / "report.json") == report


def _json_dumps_calls(report: ExperimentReport, monkeypatch) -> int:
    """How often report_files calls json.dumps to write report.json: once, for the document without its frames."""
    calls = []
    dumps = json.dumps
    with monkeypatch.context() as patch:
        patch.setattr(experiment.json, "dumps", lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
        report_files(report, ("json",))
    return len(calls)


def test_zero_frames_and_no_accepted_sfc_write_headers_only(scenario_dir, tmp_path, monkeypatch):
    report = _simulated(scenario_dir)
    no_frames = dataclasses.replace(report, frames=(), mean_latency_ms=None)
    files = _assert_written_as_the_standard_library_writes(no_frames, tmp_path / "no-frames")
    assert files["latency.csv"] == "timestamp_s,sfc_id,latency_ms\n"
    assert files["cpu.csv"] == "timestamp_s,host_id,utilization\n"
    assert json.loads(files["report.json"])["frames"] == []

    nothing_accepted = _simulated(scenario_dir, duplicates=0)
    assert nothing_accepted.frames and not nothing_accepted.outcomes
    files = _assert_written_as_the_standard_library_writes(nothing_accepted, tmp_path / "none-accepted")
    assert files["latency.csv"] == "timestamp_s,sfc_id,latency_ms\n"
    assert files["cpu.csv"].count("\n") == 1 + 10 * len(nothing_accepted.frames)
    assert _json_dumps_calls(nothing_accepted, monkeypatch) == 1  # its empty latency maps are rendered too

    # one host, which is both ingress and egress: no link, so every frame's link_bw_mbps is empty
    cfg = load_config(scenario_dir / "exp1.json")
    one_host = run_experiment(dataclasses.replace(cfg, network=NetworkSpec((HostSpec("h01", 64, 65536.0),), (), (),
                                                                           "h01", "h01")))
    assert all(o.accepted for o in one_host.outcomes) and one_host.outcomes
    assert all(frame.link_bw_mbps == {} and frame.sfc_latency_ms for frame in one_host.frames)
    files = _assert_written_as_the_standard_library_writes(one_host, tmp_path / "one-host")
    assert files["latency.csv"].count("\n") == 1 + len(one_host.outcomes) * len(one_host.frames)
    assert _json_dumps_calls(one_host, monkeypatch) == 1


def test_a_frame_mutated_after_simulate_is_written_as_it_is_now(scenario_dir, tmp_path):
    report = _simulated(scenario_dir)
    # simulate's maps are read-only and shared across a traffic epoch: each frame gets copies of its own to mutate
    frames = tuple(TelemetryFrame(f.timestamp_s, dict(f.host_cpu), dict(f.link_bw_mbps), dict(f.sfc_latency_ms))
                   for f in report.frames)
    report = dataclasses.replace(report, frames=frames)
    host, link, sfc_id = next(iter(frames[0].host_cpu)), next(iter(frames[0].link_bw_mbps)), report.outcomes[0].sfcr_id
    frames[3].host_cpu[host] = 0.5
    frames[4].link_bw_mbps[link] += 1.0
    frames[5].sfc_latency_ms[sfc_id] = 1.25
    frames[6].host_cpu[host] = frames[6].host_cpu.pop(host)  # the same objects in another order
    frames[7].sfc_latency_ms["added"] = 2.5
    files = _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert f"3.0,{host},0.5\n" in files["cpu.csv"] and f"5.0,{sfc_id},1.25\n" in files["latency.csv"]
    assert f"2.0,{host},0.5\n" not in files["cpu.csv"] and f"4.0,{host},0.5\n" not in files["cpu.csv"]


def test_an_os_error_partway_through_a_chunked_write_leaves_no_temporary_file(tmp_path):
    (tmp_path / "b.csv").write_text("old\n")

    def chunks():
        yield "a.csv", "a\nb\n"
        yield "b.csv", ""
        yield "b.csv", "x" * 100_000  # beyond the text layer's buffer, so part of the file reaches the disk
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(IoError, match="No space left on device"):
        write_atomically(tmp_path, chunks())
    # the files land together: a.csv, written whole before b.csv failed, is not moved into place either
    assert sorted(path.name for path in tmp_path.iterdir()) == ["b.csv"]
    assert (tmp_path / "b.csv").read_text() == "old\n"


def test_write_report_holds_little_more_than_the_bytes_it_writes(scenario_dir, tmp_path):
    """No file's whole text is joined: the traced peak stays near the size of the files written."""
    report = _simulated(scenario_dir, duplicates=3, sample_interval_s=0.2)
    assert len(report.frames) == 300
    tracemalloc.start()
    try:
        written = write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(path.stat().st_size for path in written)
    assert peak <= 1.3 * size, (peak, size)


def test_write_report_holds_one_frame_s_text_not_the_run_s(scenario_dir, tmp_path):
    """write_report streams: its traced peak is a small share of the bytes written and does not grow with the frames."""
    peaks = []
    for sample_interval_s, count in ((0.2, 300), (0.1, 600)):
        report = _simulated(scenario_dir, duplicates=3, sample_interval_s=sample_interval_s)
        assert len(report.frames) == count
        # untraced, so the interpreter's one-time caches of the writer's code (Python 3.10's opcache) are made
        write_report(report, tmp_path / "warm")
        tracemalloc.start()
        try:
            written = write_report(report, tmp_path / str(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(path.stat().st_size for path in written)
        assert peak <= 0.15 * size, (count, peak, size)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_a_refused_frame_or_an_os_error_leaves_no_file_and_no_directory_it_made(tmp_path):
    report = _with_second_frame(**REFUSED["nan"])
    with pytest.raises(ValueError, match=r"^report\.frames\[1\]"):
        write_report(report, tmp_path / "a" / "b" / "c")
    assert not list(tmp_path.iterdir())

    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "cpu.csv").write_text("old\n")
    with pytest.raises(ValueError, match=r"^report\.frames\[1\]"):
        write_report(report, tmp_path / "kept" / "new")
    with pytest.raises(ValueError, match=r"^report\.frames\[1\]"):
        write_report(report, tmp_path / "kept")
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]
    assert [path.name for path in (tmp_path / "kept").iterdir()] == ["cpu.csv"]
    assert (tmp_path / "kept" / "cpu.csv").read_text() == "old\n"

    def chunks():
        yield "a.csv", "a\n"
        yield "b.csv", "x" * 100_000
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(IoError, match="No space left on device"):
        write_atomically(tmp_path / "x" / "y", chunks())
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]


def _bits(mapping) -> list:
    return [(key, repr(value)) for key, value in mapping.items()]


def test_the_reader_shares_a_map_that_repeats_the_last_frame_s_bit_for_bit(scenario_dir, tmp_path):
    """read_report builds FrameMaps: one key tuple per run of maps with the same keys, in order, and one map while
    the floats repeat too."""
    simulated = _simulated(scenario_dir)
    write_report(simulated, tmp_path)
    frames = [TelemetryFrame(float(tick), dict(cpu), dict(cpu), {}) for tick, cpu in enumerate(
        [{"h1": 0.0, "h2": 0.5}, {"h1": -0.0, "h2": 0.5}, {"h1": -0.0, "h2": 0.5}, {"h2": 0.5, "h1": -0.0},
         {"h2": 0.5, "h1": -0.0}, {"h1": 0.0, "h2": 0.5}, {}, {}])]
    by_hand = ExperimentReport("digest", (), None, None, tuple(frames), None)
    for report, back in ((simulated, read_report(tmp_path / "report.json")),
                         (by_hand, report_from_dict(to_json(by_hand)))):
        assert back == report
        for kind in ("host_cpu", "link_bw_mbps", "sfc_latency_ms"):
            maps = [getattr(frame, kind) for frame in back.frames]
            assert all(type(m) is FrameMap for m in maps)
            for last, now in zip(maps, maps[1:]):
                assert (now._ids is last._ids) == ([*now] == [*last]), (last, now)
                assert (now is last) == (_bits(now) == _bits(last)), (last, now)
            if kind != "sfc_latency_ms":
                assert len({id(m) for m in maps}) < len(maps)
        assert {name: "".join(content) for name, content in report_files(back).items()} == \
            {name: "".join(content) for name, content in report_files(report).items()}
    assert len({id(frame.host_cpu) for frame in back.frames}) == 5
