import math
import random

import pytest

from rasesim.telemetry import (
    LatencyOverflowError,
    NoSamplesError,
    TelemetryFrame,
    UnknownHostError,
    UnknownSfcError,
    bin_latencies,
    cpu_series,
    mean_latency,
)


def frame(t, cpu=None, latency=None):
    return TelemetryFrame(t, cpu or {}, {}, latency or {})


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
