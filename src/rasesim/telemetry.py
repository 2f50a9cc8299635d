"""Telemetry frames and post-hoc aggregations: histograms, series, means.

All functions here are pure; they never modify the frame list.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import RaseSimError


class TelemetryError(RaseSimError):
    stage = "telemetry"


class UnknownSfcError(TelemetryError):
    """The requested SFC id never appears in the frames."""


class UnknownHostError(TelemetryError):
    """The requested host id never appears in the frames."""


class NoSamplesError(TelemetryError):
    """An aggregate was requested over zero samples."""


class LatencyOverflowError(TelemetryError):
    """A mean latency is beyond the float range: a sample is infinite, or the samples' sum is."""

    stage = "engine"  # the engine's latencies overflowed, not the aggregation over them


@dataclass(frozen=True)
class TelemetryFrame:
    """One sampling tick: per-host CPU, per-link bandwidth, per-SFC latency.

    Read-only, maps included: the frames of one traffic epoch from
    engine.simulate share their host_cpu and link_bw_mbps dicts.
    """

    timestamp_s: float
    host_cpu: dict[str, float]
    link_bw_mbps: dict[str, float]
    sfc_latency_ms: dict[str, float]


@dataclass(frozen=True)
class LatencyHistogram:
    """Counts per fixed-width bin; bin k covers [k*width, (k+1)*width)."""

    bin_width_ms: float
    bins: tuple[tuple[float, int], ...]
    total: int


def bin_latencies(frames: Sequence[TelemetryFrame], sfc_id: str, bin_width_ms: float) -> LatencyHistogram:
    """Histogram one SFC's latency samples across all frames."""
    return latency_histograms(frames, [sfc_id], bin_width_ms)[0]


def latency_histograms(frames: Sequence[TelemetryFrame], sfc_ids, bin_width_ms: float) -> list[LatencyHistogram]:
    """bin_latencies of each SFC id, in order, from one pass over the frames."""
    if not 0 < bin_width_ms < math.inf:
        raise ValueError(f"bin_width_ms must be a finite number > 0, got {bin_width_ms}")
    samples: dict[str, list] = {sfc_id: [] for sfc_id in sfc_ids}
    for frame in frames:
        latency = frame.sfc_latency_ms
        for sfc_id, values in samples.items():
            if sfc_id in latency:
                values.append(latency[sfc_id])
    histograms = []
    for sfc_id in sfc_ids:
        values = samples[sfc_id]
        if frames and not values:
            raise UnknownSfcError(f"SFC {sfc_id!r} has no latency samples in these frames")
        scaled = [value / bin_width_ms for value in values]
        if not all(map(math.isfinite, scaled)):
            value = next(value for value, ratio in zip(values, scaled) if not math.isfinite(ratio))
            raise ValueError(f"bin width {bin_width_ms} ms is too small for a latency of {value} ms")
        counts = Counter(map(math.floor, scaled))
        bins = tuple((index * bin_width_ms, counts[index]) for index in sorted(counts))
        histograms.append(LatencyHistogram(bin_width_ms, bins, len(values)))
    return histograms


def cpu_series(frames: Sequence[TelemetryFrame], host_id: str) -> list[tuple[float, float]]:
    """(timestamp, utilization) per frame for one host, order-preserving."""
    if not any(host_id in f.host_cpu for f in frames):
        raise UnknownHostError(f"host {host_id!r} has no CPU samples in these frames")
    return [(f.timestamp_s, f.host_cpu[host_id]) for f in frames if host_id in f.host_cpu]


def mean_latency(frames: Sequence[TelemetryFrame], accepted_sfc_ids: Iterable[str]) -> float:
    """Arithmetic mean over every (frame, accepted SFC) latency sample.

    math.fsum keeps the result exact under any frame ordering.
    """
    ids = list(accepted_sfc_ids)
    samples = [latency[i] for f in frames for latency in (f.sfc_latency_ms,) for i in ids if i in latency]
    if not samples:
        raise NoSamplesError("no latency samples for the requested SFCs")
    return finite_mean(samples)


def finite_mean(samples: Sequence[float]) -> float:
    """math.fsum(samples) / len(samples) of non-negative samples; a LatencyOverflowError past the float range."""
    try:
        total = math.fsum(samples)
    except OverflowError:  # finite samples whose exact sum is beyond the float range
        total = math.inf
    if total == math.inf:
        raise LatencyOverflowError(f"the mean of {len(samples)} latency samples is beyond the float range: a "
                                   f"chain's round trip, or the sum of all of them, exceeds {sys.float_info.max:g} ms")
    return total / len(samples)
