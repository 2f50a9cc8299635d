import math
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest

from rasesim.telemetry import (
    LatencyMap,
    LatencyOverflowError,
    NoSamplesError,
    TelemetryFrame,
    UnknownHostError,
    UnknownSfcError,
    bin_latencies,
    cpu_series,
    latency_histograms,
    mean_latency,
)


def frame(t, cpu=None, latency=None):
    return TelemetryFrame(t, cpu or {}, {}, latency or {})


def compact(latency: dict) -> LatencyMap:
    """latency as simulate's frames hold it: an id tuple, an id -> position index and an array('d') of values."""
    ids = tuple(latency)
    return LatencyMap(ids, {sfc_id: index for index, sfc_id in enumerate(ids)}, array("d", latency.values()))


def test_bin_latencies_direct():
    frames = [frame(i, latency={"s": v}) for i, v in enumerate([10.0, 12.0, 25.0])]
    histogram = bin_latencies(frames, "s", 10.0)
    assert histogram.bins == ((10.0, 2), (20.0, 1))
    assert histogram.total == 3


def test_bin_latencies_empty_frames():
    histogram = bin_latencies([], "s", 10.0)
    assert histogram.bins == ()
    assert histogram.total == 0


def test_bin_latencies_unknown_sfc():
    with pytest.raises(UnknownSfcError):
        bin_latencies([frame(0, latency={"other": 1.0})], "s", 10.0)


def test_bin_latencies_requires_positive_width():
    with pytest.raises(ValueError):
        bin_latencies([], "s", 0.0)


@pytest.mark.parametrize("width", [-1.0, float("nan"), float("inf")])
def test_bin_latencies_requires_finite_width(width):
    with pytest.raises(ValueError, match="bin_width_ms must be a finite number > 0"):
        bin_latencies([], "s", width)


def test_bin_latencies_rejects_a_width_that_overflows_the_bin_index():
    with pytest.raises(ValueError, match="bin width 1e-320 ms is too small"):
        bin_latencies([frame(0, latency={"s": 3.5})], "s", 1e-320)


def test_bin_counts_are_conserved():
    rng = random.Random(8)
    for _ in range(50):
        values = [rng.uniform(0, 500) for _ in range(rng.randint(0, 80))]
        frames = [frame(i, latency={"s": v}) for i, v in enumerate(values)]
        width = rng.choice((1.0, 12.5, 50.0))
        histogram = bin_latencies(frames, "s", width)
        assert sum(count for _, count in histogram.bins) == histogram.total == len(values)
        for edge, _ in histogram.bins:
            assert edge == int(edge / width) * width


def test_cpu_series_projects_frames():
    frames = [frame(i, cpu={"h1": i / 10, "h2": 0.0}) for i in range(60)]
    series = cpu_series(frames, "h1")
    assert len(series) == 60
    assert series[0] == (0, 0.0)
    assert series[59] == (59, 5.9)
    assert [v for _, v in cpu_series(frames, "h2")] == [0.0] * 60


def test_cpu_series_reconstructs_frames_exactly():
    frames = [frame(i, cpu={"h1": i * 0.01, "h2": 1 - i * 0.01}) for i in range(20)]
    rebuilt = {
        host: dict(cpu_series(frames, host))
        for host in ("h1", "h2")
    }
    for f in frames:
        for host, value in f.host_cpu.items():
            assert rebuilt[host][f.timestamp_s] == value


def test_cpu_series_unknown_host():
    with pytest.raises(UnknownHostError):
        cpu_series([frame(0, cpu={"h1": 0.0})], "h9")
    with pytest.raises(UnknownHostError):
        cpu_series([], "h1")


def test_mean_latency_constant():
    frames = [frame(i, latency={"s": 100.0}) for i in range(10)]
    assert mean_latency(frames, ["s"]) == 100.0


def test_mean_latency_two_sfcs():
    frames = [frame(i, latency={"a": 100.0, "b": 200.0}) for i in range(10)]
    assert mean_latency(frames, ["a", "b"]) == 150.0


def test_mean_latency_no_samples():
    with pytest.raises(NoSamplesError):
        mean_latency([frame(0, latency={"a": 1.0})], [])
    with pytest.raises(NoSamplesError):
        mean_latency([], ["a"])


@pytest.mark.parametrize("latencies", [[float("inf"), 1.0], [1e308, 1e308]], ids=["infinite-sample", "sum-overflows"])
def test_mean_latency_past_the_float_range_is_an_engine_error(latencies):
    frames = [frame(i, latency={"s": v}) for i, v in enumerate(latencies)]
    with pytest.raises(LatencyOverflowError, match="the mean of 2 latency samples is beyond the float range") as error:
        mean_latency(frames, ["s"])
    assert error.value.stage == "engine"
    # a sum within the float range is fine, however close to its end
    assert mean_latency([frame(0, latency={"s": 1e308}), frame(1, latency={"s": 7e307})], ["s"]) == 8.5e307


def test_mean_latency_invariant_under_reordering():
    rng = random.Random(5)
    frames = [frame(i, latency={"a": rng.uniform(1, 400), "b": rng.uniform(1, 400)}) for i in range(200)]
    expected = mean_latency(frames, ["a", "b"])
    shuffled = frames[:]
    rng.shuffle(shuffled)
    assert mean_latency(shuffled, ["a", "b"]) == expected  # fsum makes this exact


def test_mean_latency_is_the_fsum_mean_of_the_present_samples():
    """Frames may lack some ids and the ids may come as a generator; NoSamplesError where no sample is present."""
    covered = {"missing": 0, "no samples": 0}
    for seed in range(200):
        rng = random.Random(seed)
        ids = [f"s{i}" for i in range(rng.randint(1, 4))]
        frames = [frame(t, latency={i: rng.uniform(0, 1e3) for i in ids if rng.random() < 0.6})
                  for t in range(rng.randint(0, 12))]
        asked = rng.choices(ids + ["absent"], k=rng.randint(0, 5))  # an id asked twice counts twice
        samples = [f.sfc_latency_ms[i] for i in asked for f in frames if i in f.sfc_latency_ms]
        covered["missing"] += len(samples) < len(asked) * len(frames)
        if not samples:
            covered["no samples"] += 1
            with pytest.raises(NoSamplesError):
                mean_latency(frames, (i for i in asked))
            continue
        assert mean_latency(frames, (i for i in asked)) == math.fsum(samples) / len(samples), seed
    assert min(covered.values()) >= 10, covered


def _random_frames(rng: random.Random, ids: list[str]) -> list[TelemetryFrame]:
    """Frames of dicts and LatencyMaps mixed: runs that share key objects, id subsets, reordered keys, missing ids."""
    frames = []
    while len(frames) < rng.randint(0, 30):
        # equal ids, but new str objects unless the run reuses the last run's
        names = ids if rng.random() < 0.5 else ["".join(["", *name]) for name in ids]
        present = [name for name in names if rng.random() < 0.7]
        rng.shuffle(present)
        shared = compact({name: 0.0 for name in present})
        for _ in range(rng.randint(1, 4)):
            values = {name: rng.choice((0.0, rng.uniform(0, 1e3), rng.uniform(0, 1e-3))) for name in present}
            if rng.random() < 0.5:
                latency = values
            else:  # a LatencyMap of this run's one id tuple and index, as simulate makes them
                latency = LatencyMap(shared._ids, shared._index, array("d", values.values()))
            frames.append(frame(len(frames), latency=latency))
    return frames


def test_mean_latency_and_latency_histograms_equal_a_per_id_reference_on_mixed_frames():
    """Whatever Mapping the frames hold, the column reads give the per-id formula: fsum over present samples, binned counts."""
    covered = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        ids = [f"s{i}" for i in range(rng.randint(1, 5))]
        frames = _random_frames(rng, ids)
        asked = rng.choices(ids + ["absent"], k=rng.randint(0, 6))  # an id asked twice counts twice
        samples = [f.sfc_latency_ms[i] for f in frames for i in asked if i in f.sfc_latency_ms]
        covered["compact"] += any(isinstance(f.sfc_latency_ms, LatencyMap) for f in frames)
        covered["dict"] += any(type(f.sfc_latency_ms) is dict for f in frames)
        covered["missing"] += len(samples) < len(asked) * len(frames)
        if not samples:
            covered["no samples"] += 1
            with pytest.raises(NoSamplesError, match="^no latency samples for the requested SFCs$"):
                mean_latency(frames, iter(asked))
        else:
            assert mean_latency(frames, iter(asked)) == math.fsum(samples) / len(samples), seed
        width = rng.choice((0.5, 7.25, 100.0))
        for sfc_id in dict.fromkeys(asked):
            values = [f.sfc_latency_ms[sfc_id] for f in frames if sfc_id in f.sfc_latency_ms]
            if frames and not values:
                covered["unknown"] += 1
                with pytest.raises(UnknownSfcError, match=f"^SFC {sfc_id!r} has no latency samples in these frames$"):
                    latency_histograms(frames, [sfc_id], width)
                continue
            counts = Counter(math.floor(value / width) for value in values)
            expected = tuple((index * width, counts[index]) for index in sorted(counts))
            (histogram,) = latency_histograms(frames, [sfc_id], width)
            assert (histogram.bins, histogram.total) == (expected, len(values)), (seed, sfc_id)
            assert bin_latencies(frames, sfc_id, width) == histogram
        known = [sfc_id for sfc_id in dict.fromkeys(asked) if any(sfc_id in f.sfc_latency_ms for f in frames)]
        # one pass over the frames for several ids gives each id's own histogram
        assert latency_histograms(frames, known, width) == [bin_latencies(frames, i, width) for i in known]
    assert min(covered.values()) >= 10, covered


@pytest.mark.parametrize("holder", [dict, compact], ids=["dict", "compact"])
def test_the_aggregation_errors_keep_their_messages(holder):
    frames = [frame(0, latency=holder({"a": 1.0})), frame(1, latency=holder({"a": 2.0, "b": 3.0}))]
    with pytest.raises(NoSamplesError, match="^no latency samples for the requested SFCs$"):
        mean_latency(frames, ["c"])
    with pytest.raises(UnknownSfcError, match="^SFC 'c' has no latency samples in these frames$"):
        latency_histograms(frames, ["a", "c"], 1.0)
    with pytest.raises(ValueError, match="^bin width 1e-320 ms is too small for a latency of 1.0 ms$"):
        bin_latencies(frames, "a", 1e-320)
    for values in ([float("inf"), 1.0], [1e308, 1e308]):
        overflowing = [frame(t, latency=holder({"s": value, "x": 1.0})) for t, value in enumerate(values)]
        with pytest.raises(LatencyOverflowError, match="^the mean of 2 latency samples is beyond the float range: a "
                           "chain's round trip, or the sum of all of them, exceeds 1.79769e[+]308 ms$"):
            mean_latency(overflowing, ["s"])
    assert mean_latency(frames, ["b", "a", "a"]) == (3.0 + 1.0 + 1.0 + 2.0 + 2.0) / 5


def test_mean_latency_builds_no_list_of_its_samples():
    """Over engine-long-sized frames (600 ticks x 48 SFCs), the traced peak is below the size of one samples list.

    A list of the samples would take sys.getsizeof(list) bytes for its
    pointers alone, and 24 bytes more for each float made from an array.
    """
    rng = random.Random(3)
    ids = tuple(f"r{i:02d}" for i in range(48))
    index = {sfc_id: position for position, sfc_id in enumerate(ids)}
    frames = [frame(t, latency=LatencyMap(ids, index, array("d", (rng.uniform(1, 50) for _ in ids))))
              for t in range(600)]
    one_list = sys.getsizeof([0.0] * (600 * 48))
    accepted = list(ids)
    # a subset in another order too, which reads each frame's values by position
    for asked in (accepted, accepted[::-2]):
        expected = math.fsum(f.sfc_latency_ms[i] for f in frames for i in asked) / (600 * len(asked))
        mean_latency(frames, asked)  # untraced first: one-time caches are not the call's memory
        tracemalloc.start()
        try:
            assert mean_latency(frames, asked) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_list * len(asked) / 48, (len(asked), peak, one_list)
