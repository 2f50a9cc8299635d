import json
import random

import pytest

from rasesim.catalog import (
    Catalog,
    DuplicateVnfTypeError,
    InvalidProfileError,
    InvalidRequestError,
    ParseError,
    SFCRequest,
    TrafficPattern,
    TrafficSegment,
    UnknownVnfTypeError,
    VNFDescriptor,
    default_catalog,
    default_sfcr_templates,
    generate_sfcrs,
    load_catalog,
    parse_sfcr_templates,
)

from helpers import constant_pattern, sfcr


def test_default_catalog_has_seven_distinct_types():
    catalog = default_catalog()
    assert len(catalog) == 7
    costs = [v.cpu_per_request for v in catalog]
    assert len(set(costs)) == 7
    assert all(0.01 <= c <= 0.1 for c in costs)
    assert all(1.0 <= v.base_service_time_ms <= 10.0 for v in catalog)


def test_empty_document_gives_empty_catalog():
    catalog = load_catalog('{"vnfs": []}')
    assert len(catalog) == 0
    with pytest.raises(UnknownVnfTypeError):
        catalog.get("firewall")


def test_duplicate_vnf_type():
    doc = {"vnfs": [
        {"name": "firewall", "cpu_per_request": 0.01, "base_service_time_ms": 1, "memory_mb": 1},
        {"name": "firewall", "cpu_per_request": 0.02, "base_service_time_ms": 2, "memory_mb": 1},
    ]}
    with pytest.raises(DuplicateVnfTypeError, match="firewall"):
        load_catalog(doc)


@pytest.mark.parametrize(
    "patch",
    [
        {"cpu_per_request": -0.1},
        {"base_service_time_ms": 0},
        {"memory_mb": -1},
        {"bandwidth_scale": 0},
        {"name": ""},
        {"surprise": 1},
        {"cpu_per_request": float("nan")},
        {"memory_mb": float("inf")},
        {"bandwidth_scale": "wide"},
    ],
)
def test_invalid_profiles(patch):
    entry = {"name": "x", "cpu_per_request": 0.01, "base_service_time_ms": 1.0, "memory_mb": 8}
    entry.update(patch)
    with pytest.raises(InvalidProfileError):
        load_catalog({"vnfs": [entry]})


@pytest.mark.parametrize("field", ["cpu_per_request", "base_service_time_ms", "memory_mb", "bandwidth_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_vnf_descriptor_rejects_nonfinite_numbers(field, value):
    numbers = {"cpu_per_request": 0.01, "base_service_time_ms": 1.0, "memory_mb": 8.0, "bandwidth_scale": 1.0}
    with pytest.raises(InvalidProfileError, match=field):
        VNFDescriptor("x", **{**numbers, field: value})


def test_parse_errors():
    with pytest.raises(ParseError):
        load_catalog("{not json")
    with pytest.raises(ParseError):
        load_catalog("[]")
    with pytest.raises(ParseError):
        load_catalog('{"vnfs": [], "oops": 1}')
    with pytest.raises(ParseError):
        load_catalog('{"wrong": []}')


def test_catalog_lookup_and_default_scale():
    catalog = load_catalog(
        '{"vnfs": [{"name": "a", "cpu_per_request": 0.05, "base_service_time_ms": 2, "memory_mb": 16}]}'
    )
    vnf = catalog.get("a")
    assert vnf.bandwidth_scale == 1.0
    assert vnf.cpu_per_request == 0.05


def test_catalog_lookup_table_leaves_equality_unchanged():
    def build():
        return Catalog((VNFDescriptor("a", 0.05, 2.0, 16.0), VNFDescriptor("b", 0.1, 1.0, 8.0)))

    first, second = build(), build()
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "Catalog(vnfs=" + repr(first.vnfs) + ")"
    assert first != Catalog(tuple(reversed(first.vnfs)))
    assert first.get("b") is first.vnfs[1]
    with pytest.raises(UnknownVnfTypeError):
        first.get("c")


@pytest.mark.parametrize(
    "segments",
    [
        ((0.0, 10.0, 5.0), (11.0, 20.0, 1.0)),   # gap
        ((0.0, 10.0, 5.0), (5.0, 20.0, 1.0)),    # overlap
        ((10.0, 10.0, 5.0),),                    # empty interval
        ((10.0, 5.0, 5.0),),                     # reversed
        ((0.0, 10.0, -1.0),),                    # negative rate
        ((0.0, 10.0, float("nan")),),            # NaN fails every comparison
        ((float("nan"), 10.0, 1.0),),
        ((0.0, float("nan"), 1.0),),
        ((0.0, float("inf"), 1.0),),
        ((0.0, 10.0, float("inf")),),
    ],
)
def test_traffic_pattern_validation(segments):
    with pytest.raises(InvalidRequestError):
        TrafficPattern(tuple(TrafficSegment(*s) for s in segments))


def test_traffic_lookup_and_peak():
    pattern = TrafficPattern((TrafficSegment(0, 20, 4.0), TrafficSegment(20, 40, 9.0)))
    assert pattern.rate_at(0) == 4.0
    assert pattern.rate_at(19.999) == 4.0
    assert pattern.rate_at(20) == 9.0
    assert pattern.rate_at(40) == 0.0
    assert pattern.rate_at(-1) == 0.0
    assert pattern.peak_rate() == 9.0
    assert TrafficPattern(()).peak_rate() == 0.0


def test_sfcr_validation():
    with pytest.raises(InvalidRequestError):
        SFCRequest("", ("a",), 1.0, 100.0, constant_pattern(1))
    with pytest.raises(InvalidRequestError):
        SFCRequest("r", (), 1.0, 100.0, constant_pattern(1))
    with pytest.raises(InvalidRequestError):
        SFCRequest("r", ("a",), 0.0, 100.0, constant_pattern(1))
    with pytest.raises(InvalidRequestError):
        SFCRequest("r", ("a",), 1.0, -5.0, constant_pattern(1))
    for bandwidth, size in [(float("nan"), 100.0), (float("inf"), 100.0), (1.0, float("nan")), (1.0, float("inf"))]:
        with pytest.raises(InvalidRequestError):
            SFCRequest("r", ("a",), bandwidth, size, constant_pattern(1))


def test_default_templates_resolve_against_default_catalog():
    catalog = default_catalog()
    templates = default_sfcr_templates()
    assert len(templates) == 4
    assert all(2 <= len(t.chain) <= 4 for t in templates)
    for template in templates:
        for name in template.chain:
            catalog.get(name)


def test_parse_sfcr_templates_errors():
    with pytest.raises(ParseError):
        parse_sfcr_templates("nope")
    with pytest.raises(ParseError):
        parse_sfcr_templates('{"sfcrs": [], "oops": 1}')
    with pytest.raises(InvalidRequestError):
        parse_sfcr_templates('{"sfcrs": [{"id": "a"}]}')
    with pytest.raises(InvalidRequestError):
        parse_sfcr_templates(json.dumps({"sfcrs": [{
            "id": "a", "chain": ["x"], "bandwidth_mbps": 1, "request_size_bits": 1,
            "traffic": [], "bogus": 2,
        }]}))


def test_parse_sfcr_templates_rejects_a_repeated_id():
    entry = {"id": "a", "chain": ["x"], "bandwidth_mbps": 1, "request_size_bits": 1,
             "traffic": [{"start_s": 0, "end_s": 1, "rps": 1}]}
    document = {"sfcrs": [entry, {**entry, "id": "b"}, entry]}
    with pytest.raises(InvalidRequestError, match=r"sfcrs\[2\]: id 'a' is already used by sfcrs\[0\]"):
        parse_sfcr_templates(document)


def test_generate_counts_match_duplication_table():
    templates = [sfcr(f"t{i}", ["x"]) for i in range(4)]
    assert len(generate_sfcrs(templates, 1)) == 4
    assert len(generate_sfcrs(templates, 8)) == 32
    assert generate_sfcrs(templates, 0) == []


def test_generate_ordering_is_template_major():
    templates = [sfcr("a", ["x"]), sfcr("b", ["x"])]
    ids = [s.sfcr_id for s in generate_sfcrs(templates, 3)]
    assert ids == ["a-1", "a-2", "a-3", "b-1", "b-2", "b-3"]


def test_generate_is_deterministic_and_ids_unique():
    templates = [sfcr("a", ["x", "y"]), sfcr("b", ["z"])]
    first = generate_sfcrs(templates, 5)
    second = generate_sfcrs(templates, 5)
    assert first == second
    ids = [s.sfcr_id for s in first]
    assert len(set(ids)) == len(ids)


def test_generate_size_property():
    rng = random.Random(7)
    for _ in range(50):
        template_count = rng.randint(1, 6)
        duplicates = rng.randint(0, 9)
        templates = [sfcr(f"t{i}", ["x"]) for i in range(template_count)]
        generated = generate_sfcrs(templates, duplicates)
        assert len(generated) == template_count * duplicates


def test_generate_rejects_empty_templates():
    with pytest.raises(ValueError):
        generate_sfcrs([], 1)
    with pytest.raises(ValueError):
        generate_sfcrs([sfcr("a", ["x"])], -1)


def test_direct_catalog_construction_checks_duplicates():
    with pytest.raises(DuplicateVnfTypeError):
        Catalog((VNFDescriptor("a", 0.01, 1.0, 1.0), VNFDescriptor("a", 0.02, 1.0, 1.0)))
