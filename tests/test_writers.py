"""The report writers against the standard library's writers: same text for any input."""

import csv
import dataclasses
import errno
import json
import random
import tracemalloc
from io import StringIO

import pytest

from rasesim import experiment
from rasesim.errors import IoError
from rasesim.cli import main
from rasesim.experiment import (ExperimentReport, SfcOutcome, _plain, load_config, report_files, report_to_dict,
                                run_experiment, write_atomically, write_report)
from rasesim.telemetry import TelemetryFrame
from rasesim.topology import HostSpec, NetworkSpec

# a quote, a comma, line breaks, a backslash, a control character and non-ASCII text
AWKWARD = ['plain', 'a,b', 'say "hi"', 'two\nlines', 'cr\rlf\r\n', 'back\\slash', 'tab\t\x00',
           'ünïcødé', '雪', '😀', '']

FLOATS = [0.0, -0.0, 0.1, -2.5, 1e-7, 1e16, 1e22, -1e300, 1.7976931348623157e308, 5e-324, -1e-310,
          float("nan"), float("inf"), float("-inf")]


def _csv_reference(header, rows) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _report(rng: random.Random) -> ExperimentReport:
    ids = AWKWARD + ["a,b"]  # an id repeated among the outcomes is written twice, as before
    outcomes = tuple(SfcOutcome(i, rng.random() < 0.8, "") for i in ids)
    frames = []
    for tick in range(5):
        hosts = [h for h in AWKWARD if rng.random() < 0.8]  # frames may differ in their hosts
        frames.append(TelemetryFrame(
            timestamp_s=rng.choice((tick * 0.1, tick, float(tick))),
            host_cpu={h: rng.choice(FLOATS[:11] + [rng.random(), 1]) for h in hosts},
            link_bw_mbps={},
            sfc_latency_ms={i: rng.choice(FLOATS[:11] + [rng.uniform(0, 100), 12]) for i in ids},
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


# Values equal to another but not the same object, whose texts differ or must be written afresh: a writer
# that reused a map's text on == instead of on identity would write the first one's text for the second.
# The CSV writers take numbers only; "floats" keeps the exact finite floats, which the plain path writes.
def _lookalikes(kind: str = "any"):
    numbers = [float("0.0"), float("-0.0"), 1, float("1"), True, False, 0, float("nan"), float("nan")]
    if kind == "floats":
        return [value for value in numbers if type(value) is float and value == value]
    return numbers if kind == "numbers" else numbers + [None, "1", "true"]


def _similar_maps(rng: random.Random, count: int, kind: str = "any") -> list[dict]:
    """count maps over one key list: each the last one's objects, or those with a lookalike or swap."""
    keys = [rng.choice(AWKWARD) + str(i) for i in range(rng.randrange(1, 5))]
    maps = [dict(zip(keys, (rng.choice(_lookalikes(kind)) for _ in keys)))]
    for _ in range(count - 1):
        current = dict(maps[-1])  # the same key and value objects, in a dict of its own
        change = rng.randrange(4)
        if change == 1:
            current[rng.choice(keys)] = rng.choice(_lookalikes(kind))
        elif change == 2 and len(keys) > 1:
            first, second = rng.sample(keys, 2)
            current[first], current[second] = current[second], current[first]
        elif change == 3:
            current = {key: current[key] for key in reversed(keys)}  # same objects, other order
        maps.append(current)
    return maps


def _shared_frames(rng: random.Random, count: int, kind: str = "any") -> list[TelemetryFrame]:
    cpu, links, latency = (_similar_maps(rng, count, kind) for _ in range(3))
    return [TelemetryFrame(float(tick), cpu[tick], links[tick], latency[tick]) for tick in range(count)]


def _assert_report_json_equals_json_dumps(report: ExperimentReport, note=None) -> None:
    written = "".join(report_files(report, ("json",))["report.json"])
    assert written == json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n", note


def _scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e3, 1e3)
    if kind == 1:
        return rng.choice((0, -1, 7, 2**63, -(10**30)))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    return rng.choice(AWKWARD) + rng.choice(AWKWARD)


def _document(rng: random.Random, depth: int = 0):
    """A random JSON document with string keys: dicts, lists and tuples, empty ones too."""
    if depth >= 4 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.choice((0, 1, 2, 3, 6))
    items = [_document(rng, depth + 1) for _ in range(size)]
    kind = rng.randrange(3)
    if kind == 0:
        return {rng.choice(AWKWARD) + str(i) + rng.choice(AWKWARD): item for i, item in enumerate(items)}
    return items if kind == 1 else tuple(items)


# a top-level line of the document without frames, as a string and as a key; escaped, it cannot match that line
SPLICE_LINE = '\n  "frames": []'


def test_report_json_equals_json_dumps_on_random_documents():
    """Frames whose maps hold random documents go through json.dumps and are placed into the document intact."""
    for seed in range(400):
        rng = random.Random(seed)
        frames = []
        for tick in range(rng.randrange(4)):
            # a map of random documents, or now and then a plain map between them
            maps = [{rng.choice(AWKWARD + [SPLICE_LINE]) + str(i): _document(rng) for i in range(rng.randrange(4))}
                    if rng.random() < 0.8 else {"h": rng.uniform(0, 1)} for _ in range(3)]
            frames.append(TelemetryFrame(rng.choice((float(tick), _scalar(rng))), *maps))
        digest = rng.choice(AWKWARD + [SPLICE_LINE])
        _assert_report_json_equals_json_dumps(ExperimentReport(digest, (), None, None, tuple(frames), None), seed)


def test_report_json_keeps_tuples_and_subclasses_inside_frames_indented():
    class Mapping(dict):
        pass

    latency = {"s": (1.5, 2.5), "d": {"x": Mapping(y=1.5)}, "l": [[], {}, [0.5]]}
    nested = TelemetryFrame(0.5, {"t": [1, (2, 3)]}, Mapping(y=1.5), latency)
    plain = TelemetryFrame(1.0, Mapping(h=0.25), Mapping(), {"s": 2.5})
    assert not _is_plain_frame(nested) and _is_plain_frame(plain)
    outcomes = (SfcOutcome("s", True, ""),)
    _assert_report_json_equals_json_dumps(ExperimentReport("digest", outcomes, 1.0, 2.5, (nested, plain), None))


def test_report_json_reuses_text_only_for_the_same_objects():
    plain = 0
    for seed in range(200):
        rng = random.Random(seed)
        frames = _shared_frames(rng, 8, ("floats", "numbers", "any")[seed % 3])
        shared = frames[0].host_cpu
        # one map object as another kind of map, and again after frames of other maps
        frames += [TelemetryFrame(8.0, shared, shared, {}), TelemetryFrame(9.0, {}, shared, shared)]
        plain += sum(map(_is_plain_frame, frames))
        _assert_report_json_equals_json_dumps(ExperimentReport("digest", (), None, None, tuple(frames), None), seed)
    assert plain >= 100, plain


def _frames_of(maps: list[dict]) -> ExperimentReport:
    """A report whose frame i holds maps[i]'s key and value objects in each of its three maps."""
    frames = tuple(TelemetryFrame(float(tick), dict(m), dict(m), dict(m)) for tick, m in enumerate(maps))
    return ExperimentReport("digest", (), None, None, frames, None)


def test_report_json_writes_lookalike_values_of_one_key_apart():
    zero, minus_zero, one, one_float = float("0.0"), float("-0.0"), 1, float("1")
    nan, other_nan = float("nan"), float("nan")
    for values in ([zero, minus_zero, zero], [one, one_float, True, one], [nan, other_nan]):
        _assert_report_json_equals_json_dumps(_frames_of([{"x": value, "y": zero} for value in values]), values)
    _assert_report_json_equals_json_dumps(_frames_of([{"x": zero, "y": minus_zero}, {"x": minus_zero, "y": zero}]))


def test_cpu_csv_reuses_rows_only_for_the_same_objects():
    for seed in range(200):
        frames = tuple(_shared_frames(random.Random(seed), 8, "numbers"))
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
    assert second == json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    assert [frame["link_bw_mbps"]["l1"] for frame in json.loads(second)["frames"]] == [0.25, 0.75, 0.25]
    assert (tmp_path / "second" / "cpu.csv").read_text().splitlines()[3:5] == ["1.0,h1,0.75", "1.0,h2,0.0"]


class Millis(float):
    """A float subclass with a repr of its own: csv.writer writes that repr, json float's."""

    def __repr__(self):
        return f"Millis({float.__repr__(self)})"


def _latency_values(rng: random.Random, keys) -> list:
    """Exact finite floats, which both writers write as their repr, or those mixed with values that are not."""
    values = [rng.choice((rng.uniform(0, 500), rng.random() * 1e-7, 0.0)) for _ in keys]
    if values and rng.random() < 0.4:
        awkward = (float("nan"), float("inf"), float("-inf"), -0.0, 7, True, Millis(2.5), 1e300 * 10)
        values[rng.randrange(len(values))] = rng.choice(awkward)
    return values


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


def _is_plain_frame(frame: TelemetryFrame) -> bool:
    maps = (frame.host_cpu, frame.link_bw_mbps, frame.sfc_latency_ms)
    return type(frame.timestamp_s) is float and all(map(_plain, maps))


@pytest.mark.parametrize("formats", [("json",), ("csv",), ("json", "csv")])
def test_write_report_equals_json_dumps_and_csv_writer(tmp_path, formats):
    """Plain frames rendered once for all three files, and the standard writers' path for any other frame."""
    covered = {"plain": 0, "fallback": 0}
    for seed in range(80):
        report = _latency_report(random.Random(seed))
        plain = sum(map(_is_plain_frame, report.frames))
        covered["plain"] += plain
        covered["fallback"] += len(report.frames) - plain
        written = write_report(report, tmp_path / str(seed), formats)
        files = {path.name: path.read_bytes().decode("utf-8") for path in written}
        expected = {}
        if "json" in formats:
            expected["report.json"] = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
        if "csv" in formats:
            expected.update(_csv_references(report))
        assert files == expected, seed
    assert min(covered.values()) >= 100, covered


def test_each_writer_called_alone_equals_the_standard_library():
    for seed in range(80):
        report = _latency_report(random.Random(seed))
        assert _csv_texts(report) == _csv_references(report), seed


def test_write_report_and_the_report_command_render_the_frames_once(scenario_dir, tmp_path, monkeypatch):
    """One _render_frames call per write_report, whatever the formats, and per `rasesim report`."""
    calls = []
    render_frames = experiment._render_frames

    def counted(report):
        calls.append(report)
        return render_frames(report)

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


def test_a_latency_map_with_keys_other_than_str_is_written_by_the_encoder(tmp_path):
    frames = (TelemetryFrame(0.0, {}, {}, {2: 1.5, 1: 0.25, 10: 3.0}), TelemetryFrame(1.0, {}, {}, {10: 2.0}))
    report = ExperimentReport("digest", (), None, None, frames, None)
    write_report(report, tmp_path, ("json",))
    expected = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "report.json").read_text("utf-8") == expected


def _simulated(scenario_dir, duplicates: int = 1, sample_interval_s: float = 1.0) -> ExperimentReport:
    """exp1's report: 4 SFCRs per duplicate over three traffic epochs of 20 s, sampled every sample_interval_s."""
    cfg = load_config(scenario_dir / "exp1.json")
    engine = dataclasses.replace(cfg.engine, sample_interval_s=sample_interval_s)
    return run_experiment(dataclasses.replace(cfg, duplicates=duplicates, engine=engine))


def _assert_written_as_the_standard_library_writes(report: ExperimentReport, directory) -> dict[str, str]:
    written = write_report(report, directory)
    files = {path.name: path.read_bytes().decode("utf-8") for path in written}
    assert files == {"report.json": json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n",
                     **_csv_references(report)}
    return files


def test_plain_and_fallback_frames_mixed_in_one_traffic_epoch(scenario_dir, tmp_path):
    """A frame written by the standard writers' path between frames of shared objects leaves no text behind."""
    report = _simulated(scenario_dir)
    frames = list(report.frames)
    first = frames[0]
    host, link, sfc_id = next(iter(first.host_cpu)), next(iter(first.link_bw_mbps)), next(iter(first.sfc_latency_ms))
    assert all(frame.host_cpu[host] is first.host_cpu[host] for frame in frames[:20]), "one epoch shares objects"
    variants = {
        2: {"sfc_latency_ms": {**frames[2].sfc_latency_ms, sfc_id: 7}},
        4: {"host_cpu": {**frames[4].host_cpu, host: Millis(0.5)}},
        6: {"link_bw_mbps": {**frames[6].link_bw_mbps, link: float("inf")}},
        8: {"timestamp_s": 8},
        10: {"link_bw_mbps": {}},  # plain: an empty map is written as "{}"
        12: {"host_cpu": {**frames[12].host_cpu, host: -0.0}},  # plain, but not the shared object
        13: {"sfc_latency_ms": {**frames[13].sfc_latency_ms, sfc_id: float("nan")}},
    }
    for tick, change in variants.items():
        frames[tick] = dataclasses.replace(frames[tick], **change)
    assert [_is_plain_frame(frame) for frame in frames[:14]] == [tick not in variants or tick in (10, 12)
                                                                for tick in range(14)]
    report = dataclasses.replace(report, frames=tuple(frames))
    files = _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert f"4.0,{host},Millis(0.5)\n" in files["cpu.csv"] and files["cpu.csv"].count("Millis") == 1


def _json_dumps_calls(report: ExperimentReport, monkeypatch) -> int:
    """How often report_files calls json.dumps to write report.json: once for the document, once per other frame."""
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
    assert _json_dumps_calls(nothing_accepted, monkeypatch) == 1  # its empty latency maps are plain

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
    frames = report.frames
    host, link, sfc_id = next(iter(frames[0].host_cpu)), next(iter(frames[0].link_bw_mbps)), report.outcomes[0].sfcr_id
    frames[3].host_cpu[host] = 0.5
    frames[4].link_bw_mbps[link] += 1.0
    frames[5].sfc_latency_ms[sfc_id] = 1.25
    frames[6].host_cpu[host] = frames[6].host_cpu.pop(host)  # the same objects in another order
    frames[7].sfc_latency_ms["added"] = 2.5
    files = _assert_written_as_the_standard_library_writes(report, tmp_path)
    assert f"3.0,{host},0.5\n" in files["cpu.csv"] and f"5.0,{sfc_id},1.25\n" in files["latency.csv"]


def test_an_os_error_partway_through_a_chunked_write_leaves_no_temporary_file(tmp_path):
    (tmp_path / "b.csv").write_text("old\n")

    def chunks():
        yield "x" * 100_000  # beyond the text layer's buffer, so part of the file reaches the disk
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(IoError, match="No space left on device"):
        write_atomically(tmp_path, {"a.csv": ["a\n", "b\n"], "b.csv": chunks()})
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "b.csv"]
    assert (tmp_path / "a.csv").read_text() == "a\nb\n" and (tmp_path / "b.csv").read_text() == "old\n"


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
