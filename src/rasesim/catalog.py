"""VNF catalog, SFC request model, and the request generator."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

from .errors import RaseSimError


class CatalogError(RaseSimError):
    stage = "catalog"


class ParseError(CatalogError):
    """Document is not well-formed."""


class DuplicateVnfTypeError(CatalogError):
    """Two catalog entries share a type name."""


class InvalidProfileError(CatalogError):
    """A VNF profile violates its value constraints."""


class UnknownVnfTypeError(CatalogError):
    """A chain references a VNF type missing from the catalog."""


class InvalidRequestError(CatalogError):
    """An SFC request or traffic pattern violates its constraints."""


def finite_number(value, what: str, kind=float):
    """kind(value) for a number read from a document; ValueError unless it is finite.

    json.loads accepts NaN, Infinity and integers beyond the float range, and
    none of them is a usable capacity, rate, size or duration. A bool or a
    string is not a number, and kind=int takes only a whole number (4.0 is 4).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {number}")
    if kind is int and not number.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value}")
    return kind(value)


@dataclass(frozen=True)
class VNFDescriptor:
    """Resource and service profile of one VNF type.

    cpu_per_request is CPU-seconds consumed per request; bandwidth_scale
    multiplies the per-request payload size as traffic exits this VNF.
    """

    name: str
    cpu_per_request: float
    base_service_time_ms: float
    memory_mb: float
    bandwidth_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InvalidProfileError(f"VNF name must be a non-empty string, got {self.name!r}")
        if self.cpu_per_request < 0:
            raise InvalidProfileError(f"{self.name!r}: cpu_per_request must be >= 0")
        if self.base_service_time_ms <= 0:
            raise InvalidProfileError(f"{self.name!r}: base_service_time_ms must be > 0")
        if self.memory_mb < 0:
            raise InvalidProfileError(f"{self.name!r}: memory_mb must be >= 0")
        if self.bandwidth_scale <= 0:
            raise InvalidProfileError(f"{self.name!r}: bandwidth_scale must be > 0")


@dataclass(frozen=True)
class Catalog:
    vnfs: tuple[VNFDescriptor, ...]

    def __post_init__(self):
        by_name = {}
        for vnf in self.vnfs:
            if vnf.name in by_name:
                raise DuplicateVnfTypeError(f"duplicate VNF type {vnf.name!r}")
            by_name[vnf.name] = vnf
        # a lookup table, not a field: equality, hashing and repr still see only vnfs
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.vnfs)

    def __iter__(self):
        return iter(self.vnfs)

    def get(self, name: str) -> VNFDescriptor:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name is in no catalog either
            raise UnknownVnfTypeError(f"VNF type {name!r} is not in the catalog") from None

    def names(self) -> list[str]:
        return [v.name for v in self.vnfs]


@dataclass(frozen=True)
class TrafficSegment:
    start_s: float
    end_s: float
    rps: float


@dataclass(frozen=True)
class TrafficPattern:
    """Piecewise-constant request rate: contiguous, non-overlapping segments."""

    segments: tuple[TrafficSegment, ...]

    def __post_init__(self):
        previous_end = None
        for seg in self.segments:
            if seg.start_s >= seg.end_s:
                raise InvalidRequestError(f"traffic segment [{seg.start_s}, {seg.end_s}) is empty or reversed")
            if seg.rps < 0:
                raise InvalidRequestError(f"traffic segment at {seg.start_s}s: rate must be >= 0")
            if previous_end is not None and seg.start_s != previous_end:
                raise InvalidRequestError(
                    f"traffic segments must be contiguous: gap or overlap at {seg.start_s}s"
                )
            previous_end = seg.end_s

    def rate_at(self, t: float) -> float:
        for seg in self.segments:
            if seg.start_s <= t < seg.end_s:
                return seg.rps
        return 0.0

    def peak_rate(self) -> float:
        return max((seg.rps for seg in self.segments), default=0.0)


@dataclass(frozen=True)
class SFCRequest:
    sfcr_id: str
    chain: tuple[str, ...]
    bandwidth_mbps: float
    request_size_bits: float
    offered_load: TrafficPattern

    def __post_init__(self):
        if not isinstance(self.sfcr_id, str) or not self.sfcr_id:
            raise InvalidRequestError(f"sfcr_id must be a non-empty string, got {self.sfcr_id!r}")
        if not self.chain:
            raise InvalidRequestError(f"{self.sfcr_id!r}: chain must not be empty")
        if not all(isinstance(name, str) and name for name in self.chain):
            raise InvalidRequestError(f"{self.sfcr_id!r}: chain entries must be non-empty strings")
        if self.bandwidth_mbps <= 0:
            raise InvalidRequestError(f"{self.sfcr_id!r}: bandwidth_mbps must be > 0")
        if self.request_size_bits < 0:
            raise InvalidRequestError(f"{self.sfcr_id!r}: request_size_bits must be >= 0")


def load_catalog(document) -> Catalog:
    """Parse a catalog from JSON text or an already-parsed mapping.

    The document's top level is {"vnfs": [...]} with optional "version".
    """
    data = _parse_document(document, "catalog")
    allowed = {"vnfs", "version"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError(f"catalog: unknown top-level key(s): {', '.join(sorted(unknown))}")
    if "vnfs" not in data or not isinstance(data["vnfs"], list):
        raise ParseError("catalog: missing 'vnfs' list")
    vnfs = []
    for i, entry in enumerate(data["vnfs"]):
        if not isinstance(entry, dict):
            raise ParseError(f"catalog: vnfs[{i}] is not an object")
        extra = set(entry) - {"name", "cpu_per_request", "base_service_time_ms", "memory_mb", "bandwidth_scale"}
        if extra:
            raise InvalidProfileError(f"catalog: vnfs[{i}]: unknown key(s): {', '.join(sorted(extra))}")
        try:
            vnfs.append(
                VNFDescriptor(
                    name=entry["name"],
                    cpu_per_request=finite_number(entry["cpu_per_request"], "cpu_per_request"),
                    base_service_time_ms=finite_number(entry["base_service_time_ms"], "base_service_time_ms"),
                    memory_mb=finite_number(entry["memory_mb"], "memory_mb"),
                    bandwidth_scale=finite_number(entry.get("bandwidth_scale", 1.0), "bandwidth_scale"),
                )
            )
        except KeyError as exc:
            raise InvalidProfileError(f"catalog: vnfs[{i}]: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidProfileError(f"catalog: vnfs[{i}]: {exc}") from None
    return Catalog(tuple(vnfs))


def parse_sfcr_templates(document) -> tuple[SFCRequest, ...]:
    """Parse SFCR templates from JSON text or an already-parsed mapping."""
    data = _parse_document(document, "sfcrs")
    unknown = set(data) - {"sfcrs", "version", "seed"}
    if unknown:
        raise ParseError(f"sfcrs: unknown top-level key(s): {', '.join(sorted(unknown))}")
    if "sfcrs" not in data or not isinstance(data["sfcrs"], list):
        raise ParseError("sfcrs: missing 'sfcrs' list")
    templates = []
    first_index: dict[str, int] = {}
    for i, entry in enumerate(data["sfcrs"]):
        if not isinstance(entry, dict):
            raise ParseError(f"sfcrs[{i}] is not an object")
        extra = set(entry) - {"id", "chain", "bandwidth_mbps", "request_size_bits", "traffic"}
        if extra:
            raise InvalidRequestError(f"sfcrs[{i}]: unknown key(s): {', '.join(sorted(extra))}")
        try:
            segments = tuple(
                TrafficSegment(finite_number(seg["start_s"], "start_s"), finite_number(seg["end_s"], "end_s"),
                               finite_number(seg["rps"], "rps"))
                for seg in entry["traffic"]
            )
            templates.append(
                SFCRequest(
                    sfcr_id=entry["id"],
                    chain=tuple(entry["chain"]),
                    bandwidth_mbps=finite_number(entry["bandwidth_mbps"], "bandwidth_mbps"),
                    request_size_bits=finite_number(entry["request_size_bits"], "request_size_bits"),
                    offered_load=TrafficPattern(segments),
                )
            )
        except KeyError as exc:
            raise InvalidRequestError(f"sfcrs[{i}]: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(f"sfcrs[{i}]: {exc}") from None
        # generated ids "<id>-<i>" of distinct template ids never collide, so this check suffices
        sfcr_id = templates[-1].sfcr_id
        if sfcr_id in first_index:
            raise InvalidRequestError(f"sfcrs[{i}]: id {sfcr_id!r} is already used by "
                                      f"sfcrs[{first_index[sfcr_id]}]")
        first_index[sfcr_id] = i
    return tuple(templates)


def _parse_document(document, what: str) -> dict:
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what}: invalid JSON: {exc}") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise ParseError(f"{what}: top level must be an object")
    return data


def default_catalog() -> Catalog:
    """The versioned 7-type catalog shipped with the package."""
    text = resources.files("rasesim").joinpath("data/default_catalog.json").read_text("utf-8")
    return load_catalog(text)


def default_sfcr_templates() -> tuple[SFCRequest, ...]:
    """The 4 synthetic SFCR templates shipped with the package."""
    text = resources.files("rasesim").joinpath("data/default_sfcrs.json").read_text("utf-8")
    return parse_sfcr_templates(text)


def generate_sfcrs(templates, duplicates: int) -> list[SFCRequest]:
    """Expand templates into duplicates-many copies each.

    Copy i of template t is named "<t.sfcr_id>-<i>" (1-based); output order is
    template-major, then copy index. Generation is deterministic.
    """
    templates = list(templates)
    if not templates:
        raise ValueError("templates must be non-empty")
    if duplicates < 0:
        raise ValueError("duplicates must be >= 0")
    out = []
    for template in templates:
        for i in range(1, duplicates + 1):
            out.append(replace(template, sfcr_id=f"{template.sfcr_id}-{i}"))
    return out
