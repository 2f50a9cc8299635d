"""Telemetry frames and post-hoc aggregations: histograms, series, means.

All functions here are pure; they never modify the frame list.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
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


class FrameMap(Mapping):
    """One frame's read-only str -> float map, stored by column.

    The key tuple and the key -> position index are shared by the maps of one
    kind in one engine.simulate run, and by the consecutive maps of one kind
    with equal key lists that experiment._frame builds, for the reader and
    for the writer, which reads a run of maps by that shared key tuple; a
    map owns only its array('d') of values, 8 bytes a value. Iteration
    yields the shared key objects, values() is the array itself (read it,
    never change it), and [] goes through the index; in, get and the rest
    are the Mapping mixins over []. Equal to a dict of the same items,
    either way round.
    """

    __slots__ = ("_ids", "_index", "_values")

    def __init__(self, ids: tuple[str, ...], index: dict[str, int], values: array):
        self._ids, self._index, self._values = ids, index, values

    def __getitem__(self, key):
        return self._values[self._index[key]]

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)

    def values(self):
        return self._values

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass(frozen=True, slots=True)
class TelemetryFrame:
    """One sampling tick: per-host CPU, per-link bandwidth, per-SFC latency.

    Read-only, maps included, and slotted, so no attribute can be added.
    The maps of engine.simulate and experiment.read_report are FrameMaps, and
    frames of one traffic epoch share their link_bw_mbps map, and their
    host_cpu map on each tick without an idle spike. A frame a caller builds
    may hold a dict, or any Mapping, in each field; the writers first build
    it as read_report does (experiment._frame).
    """

    timestamp_s: float
    host_cpu: Mapping[str, float]
    link_bw_mbps: Mapping[str, float]
    sfc_latency_ms: Mapping[str, float]


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
    """bin_latencies of each SFC id, in order, from one pass over the frames, read by column (see _runs)."""
    if not 0 < bin_width_ms < math.inf:
        raise ValueError(f"bin_width_ms must be a finite number > 0, got {bin_width_ms}")
    samples: dict[str, list] = {sfc_id: [] for sfc_id in sfc_ids}
    for position, rows in _runs(frames):
        columns = [*zip(*rows)]  # the run's samples per key position, in frame order
        for sfc_id, values in samples.items():
            if sfc_id in position:
                values += columns[position[sfc_id]]
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
    """Arithmetic mean over every (frame, accepted SFC) latency sample; an id asked twice counts twice.

    The ids' positions are looked up once per run of frames whose maps hold
    the same keys (see _runs), and the samples stream from the frames'
    values() into one math.fsum, which keeps the result exact under any
    order; no list of them is built.
    """
    ids = list(accepted_sfc_ids)
    samples, count = [], 0  # an iterator of the samples per run
    for position, rows in _runs(frames):
        picks = [position[sfc_id] for sfc_id in ids if sfc_id in position]
        count += len(picks) * len(rows)
        samples.append(_picked(rows, picks))
    if not count:
        raise NoSamplesError("no latency samples for the requested SFCs")
    return finite_mean(chain.from_iterable(samples), count)


def _picked(rows, picks: list[int]):
    """The values at picks of each row, row by row; the rows themselves where picks take each place of a row once."""
    if sorted(picks) == [*range(len(rows[0]))]:
        return chain.from_iterable(rows)
    return chain.from_iterable(map([*row].__getitem__, picks) for row in rows)


def _runs(frames: Iterable[TelemetryFrame]) -> list[tuple[dict, list]]:
    """The frames' latency values per run: consecutive frames with equal latency key lists, as the writer splits them.

    One (key -> position, [each frame's sfc_latency_ms.values()]) per run:
    a consumer looks positions up once per run and reads the values by
    column, whatever Mapping holds them. simulate's frames, like the frames
    read back from one report.json, share their key objects, so comparing
    two frames' keys compares pointers.
    """
    runs: list[tuple[dict, list]] = []
    keys = None
    for frame in frames:
        latency = frame.sfc_latency_ms
        now = [*latency]
        if now != keys:
            keys = now
            runs.append(({key: index for index, key in enumerate(keys)}, []))
        runs[-1][1].append(latency.values())
    return runs


def finite_mean(samples: Iterable[float], count: int) -> float:
    """math.fsum(samples) / count of count non-negative samples; a LatencyOverflowError past the float range."""
    try:
        total = math.fsum(samples)
    except OverflowError:  # finite samples whose exact sum is beyond the float range
        total = math.inf
    if total == math.inf:
        raise LatencyOverflowError(f"the mean of {count} latency samples is beyond the float range: a "
                                   f"chain's round trip, or the sum of all of them, exceeds {sys.float_info.max:g} ms")
    return total / count
