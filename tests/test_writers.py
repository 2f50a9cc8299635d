"""The report writers against the standard library's writers: same text for any input."""

import csv
import json
import random
from io import StringIO

from rasesim.experiment import ExperimentReport, SfcOutcome, _json_text, cpu_csv, latency_csv
from rasesim.telemetry import TelemetryFrame

# a quote, a comma, line breaks, a backslash, a control character and non-ASCII text
AWKWARD = ['plain', 'a,b', 'say "hi"', 'two\nlines', 'cr\rlf\r\n', 'back\\slash', 'tab\t\x00',
           'ünïcødé', '雪', '😀', '']

FLOATS = [0.0, -0.0, 0.1, -2.5, 1e-7, 1e16, 1e22, -1e300, 1.7976931348623157e308, 5e-324, -1e-310,
          float("nan"), float("inf"), float("-inf")]


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
    # half the containers hold scalars only, the leaves the C encoder writes
    leaf = rng.random() < 0.5
    items = [_scalar(rng) if leaf else _document(rng, depth + 1) for _ in range(size)]
    kind = rng.randrange(3)
    if kind == 0:
        return {rng.choice(AWKWARD) + str(i) + rng.choice(AWKWARD): item for i, item in enumerate(items)}
    return items if kind == 1 else tuple(items)


def test_json_text_equals_json_dumps_on_random_documents():
    for seed in range(400):
        document = _document(random.Random(seed))
        assert _json_text(document) == json.dumps(document, sort_keys=True, indent=2), seed


def test_json_text_keeps_tuples_and_subclasses_inside_leaves_indented():
    class Mapping(dict):
        pass

    document = {"t": [1, (2, 3)], "d": {"x": Mapping(y=1.5)}, "l": [[], {}, [0.5]]}
    assert _json_text(document) == json.dumps(document, sort_keys=True, indent=2)


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


def test_latency_and_cpu_csv_equal_csv_writer():
    for seed in range(20):
        report = _report(random.Random(seed))
        accepted = [o.sfcr_id for o in report.outcomes if o.accepted]
        assert latency_csv(report) == _csv_reference(
            ["timestamp_s", "sfc_id", "latency_ms"],
            [[f.timestamp_s, i, f.sfc_latency_ms[i]] for f in report.frames for i in accepted])
        assert cpu_csv(report) == _csv_reference(
            ["timestamp_s", "host_id", "utilization"],
            [[f.timestamp_s, h, f.host_cpu[h]] for f in report.frames for h in sorted(f.host_cpu)])
