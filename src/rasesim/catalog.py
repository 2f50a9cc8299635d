"""VNF catalog, SFC request model, and the request generator."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import reprlib
import sys
import types
import typing
from collections.abc import Mapping
from dataclasses import dataclass, replace
from importlib import resources

from .errors import RaseSimError
from .telemetry import TelemetryFrame


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


class _Shape(ValueError):
    """A document value of the wrong shape, or one its dataclass rejects.

    Each enclosing reader adds its step (".key", "[index]") to the path on the
    way out; the detail reads on from the path (" must be ...", ": ...").
    """

    def __init__(self, detail: str):
        super().__init__(detail)
        self.path: list[str] = []  # innermost step first

    def __str__(self) -> str:
        return "".join(reversed(self.path)) + self.args[0]

    def at(self, step: str) -> _Shape:
        self.path.append(step)
        return self


_FLOAT_MAX = sys.float_info.max


def finite_number(value, kind=float):
    """kind(value) for a number read from a document; a ValueError unless it is finite.

    The error's message reads on from the value's path (" must be ...").
    json.loads accepts NaN, Infinity and integers beyond the float range, and
    none of them is a usable capacity, rate, size or duration. A bool or a
    string is not a number, and kind=int takes only a whole number (4.0 is 4).
    """
    if type(value) is kind and -_FLOAT_MAX <= value <= _FLOAT_MAX:  # the common case: finite, nothing to convert
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Shape(f" must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise _Shape(" is beyond the float range") from None
    if not math.isfinite(number):
        raise _Shape(f" must be a finite number, got {number}")
    if kind is int and not number.is_integer():
        raise _Shape(f" must be a whole number, got {value}")
    return kind(value)


def check_keys(value, keys, required, where: str = "") -> None:
    """A ValueError naming where unless value is an object with only these keys and every required one."""
    if type(value) is not dict:
        raise _Shape(f"{where} must be an object")
    unknown = value.keys() - keys
    if unknown:
        raise _Shape(f"{where}: unknown key(s): {', '.join(sorted(unknown))}")
    missing = required - value.keys()
    if missing:
        raise _Shape(f"{where}: missing key(s): {', '.join(sorted(missing))}")


def from_json(kind, value, where: str):
    """A parsed JSON value as an instance of kind; a ValueError whose message names the JSON path.

    kind is a dataclass (an object keyed by json_fields; a field with a default
    or a "json_default" in its metadata may be left out), tuple[X, ...] or
    tuple[X, Y] (a list), X | None, str, bool, int or float. A TelemetryFrame
    is an object of its four keys, whose values are taken as they are.
    """
    try:
        return _reader(kind)(value)
    except _Shape as exc:
        raise exc.at(where)


_SCALARS = {str: "a string", bool: "true or false"}


@functools.cache
def _reader(kind):
    """The function that reads kind from a parsed JSON value, raising _Shape."""
    if kind is float:
        return finite_number
    if kind is int:
        return lambda value: finite_number(value, int)
    if kind in _SCALARS:
        def read_scalar(value):
            if type(value) is not kind:
                raise _Shape(f" must be {_SCALARS[kind]}, got {reprlib.repr(value)}")
            return value
        return read_scalar
    if kind is TrafficPattern:  # a template's traffic is the segment list itself
        read_segments = _reader(tuple[TrafficSegment, ...])
        return lambda value: _built(TrafficPattern, {"segments": read_segments(value)})
    if kind is TelemetryFrame:  # a frame's values as they are: experiment.report_from_dict checks and builds its maps
        keys = json_fields(TelemetryFrame).keys()

        def read_frame(value):
            check_keys(value, keys, keys)
            return TelemetryFrame(**value)
        return read_frame
    if dataclasses.is_dataclass(kind):
        return _object_reader(kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        read_inner = _reader(inner)
        return lambda value: None if value is None else read_inner(value)
    if origin is tuple:
        count = None if args[-1] is Ellipsis else len(args)
        readers = itertools.repeat(_reader(args[0])) if count is None else [_reader(arg) for arg in args]

        def read_list(value):
            if type(value) is not list or count not in (None, len(value)):
                raise _Shape(f" must be a list{f' of {count} items' if count else ''}, got {reprlib.repr(value)}")
            items = []
            for index, (read, item) in enumerate(zip(readers, value)):
                try:
                    items.append(read(item))
                except _Shape as exc:
                    raise exc.at(f"[{index}]")
            return tuple(items)
        return read_list
    raise TypeError(f"no JSON reader for {kind!r}")


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_json(value):
    """value as a JSON document holds it: the mirror of from_json, whose kind reads the result back as value.

    Dataclasses become dicts by json_fields key, tuples lists, a TrafficPattern its segments, any other
    Mapping (a frame's FrameMap, simulated or read back) a dict of its items; dicts are shared.
    """
    kind = type(value)
    if kind is tuple:
        return [to_json(item) for item in value]
    if kind in _JSON_SCALARS or kind is dict:
        return value
    if not dataclasses.is_dataclass(value):
        return dict(value) if isinstance(value, Mapping) else value
    if kind is TrafficPattern:  # a template's traffic is the segment list itself
        return to_json(value.segments)
    return {key: to_json(getattr(value, f.name)) for key, f in json_fields(kind).items()}


@functools.cache
def json_fields(kind) -> dict[str, dataclasses.Field]:
    """A dataclass's fields by document key, under TEMPLATE_KEYS for SFCRequest; TypeError for any other type.

    Only the compared fields: a compare=False one (the report's
    solve_seconds) describes a run, not its input or results, so it is
    neither read, written nor digested.
    """
    names = {name: key for key, name in TEMPLATE_KEYS.items()} if kind is SFCRequest else {}
    return {names.get(f.name, f.name): f for f in dataclasses.fields(kind) if f.compare}


def _object_reader(kind):
    hints = typing.get_type_hints(kind)
    keys, required, defaults = {}, set(), {}
    for key, f in json_fields(kind).items():
        keys[key] = (f.name, _reader(hints[f.name]))
        if "json_default" in f.metadata:
            defaults[f.name] = f.metadata["json_default"]
        elif f.default is dataclasses.MISSING:
            required.add(key)

    def read_object(value):
        if type(value) is not dict or not required <= value.keys() <= keys.keys():
            check_keys(value, keys, required)  # raises
        fields = dict(defaults)
        for key, item in value.items():
            name, read = keys[key]
            try:
                fields[name] = read(item)
            except _Shape as exc:
                raise exc.at("." + key)
        return _built(kind, fields)
    return read_object


def _built(kind, fields: dict):
    """kind(**fields), with a rejection by its __post_init__ as a _Shape."""
    try:
        return kind(**fields)
    except (ValueError, RaseSimError) as exc:
        raise _Shape(f": {exc}") from None


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
        # written so that NaN, which fails every comparison, fails each check too
        if not 0 <= self.cpu_per_request < math.inf:
            raise InvalidProfileError(f"{self.name!r}: cpu_per_request must be finite and >= 0")
        if not 0 < self.base_service_time_ms < math.inf:
            raise InvalidProfileError(f"{self.name!r}: base_service_time_ms must be finite and > 0")
        if not 0 <= self.memory_mb < math.inf:
            raise InvalidProfileError(f"{self.name!r}: memory_mb must be finite and >= 0")
        if not 0 < self.bandwidth_scale < math.inf:
            raise InvalidProfileError(f"{self.name!r}: bandwidth_scale must be finite and > 0")


@dataclass(frozen=True)
class Catalog:
    vnfs: tuple[VNFDescriptor, ...]

    def __post_init__(self):
        by_name = {}
        for vnf in self.vnfs:
            if vnf.name in by_name:
                raise DuplicateVnfTypeError(f"catalog: duplicate VNF type {vnf.name!r}")
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
        for seg in self.segments:
            # written so that NaN, which fails every comparison, fails each check too
            if not -math.inf < seg.start_s < seg.end_s < math.inf:
                raise InvalidRequestError(f"traffic segment [{seg.start_s}, {seg.end_s}) is not a finite, "
                                          "non-empty interval")
            if not 0 <= seg.rps < math.inf:
                raise InvalidRequestError(f"traffic segment at {seg.start_s}s: rate must be finite and >= 0")
        for before, after in zip(self.segments, self.segments[1:]):
            if after.start_s != before.end_s:
                raise InvalidRequestError(f"traffic segments must be contiguous: gap or overlap at {after.start_s}s")

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
        if not 0 < self.bandwidth_mbps < math.inf:
            raise InvalidRequestError(f"{self.sfcr_id!r}: bandwidth_mbps must be finite and > 0")
        if not 0 <= self.request_size_bits < math.inf:
            raise InvalidRequestError(f"{self.sfcr_id!r}: request_size_bits must be finite and >= 0")


# SFCR template key -> SFCRequest field, where the two names differ
TEMPLATE_KEYS = {"id": "sfcr_id", "traffic": "offered_load"}


def load_catalog(document) -> Catalog:
    """Parse a catalog from JSON text or an already-parsed mapping.

    The document's top level is {"vnfs": [...]} with optional "version".
    """
    return Catalog(_read_list(document, "catalog", "vnfs", {"version"}, VNFDescriptor, InvalidProfileError))


def parse_sfcr_templates(document) -> tuple[SFCRequest, ...]:
    """Parse SFCR templates from JSON text or an already-parsed mapping."""
    templates = _read_list(document, "sfcrs", "sfcrs", {"version", "seed"}, SFCRequest, InvalidRequestError)
    # generated ids "<id>-<i>" of distinct template ids never collide, so this check suffices
    first_index: dict[str, int] = {}
    for i, template in enumerate(templates):
        first = first_index.setdefault(template.sfcr_id, i)
        if first != i:
            raise InvalidRequestError(f"sfcrs: sfcrs[{i}]: id {template.sfcr_id!r} is already used by sfcrs[{first}]")
    return templates


def _read_list(document, what: str, key: str, optional: set[str], kind, error) -> tuple:
    """document[key] as a tuple; a ParseError for a malformed document, error for a bad entry, each naming what."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what}: invalid JSON: {exc}") from None
    try:
        check_keys(document, {key, *optional}, {key}, what)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    try:
        return from_json(tuple[kind, ...], document[key], f"{what}: {key}")
    except ValueError as exc:
        raise error(str(exc)) from None


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
