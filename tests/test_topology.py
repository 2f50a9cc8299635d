import random
from fractions import Fraction

import pytest

from rasesim.topology import (
    DanglingEndpointError,
    DisconnectedError,
    DuplicateIdError,
    InsufficientBandwidthError,
    InsufficientCpuError,
    InsufficientMemoryError,
    NonPositiveCapacityError,
    OverReleaseError,
    UnknownHostError,
    UnknownLinkError,
    build_network,
)

from helpers import spec_of


def test_build_trivial_network():
    net = build_network(spec_of([("h1", 2, 512)], [("h1", "s1", 100, 1.0)],
                                switches=("s1",), ingress="s1", egress="h1"))
    assert net.node_ids() == ["h1", "s1"]
    assert net.residual_cpu["h1"] == Fraction(2)
    assert net.residual_memory["h1"] == Fraction(512)
    assert net.residual_bandwidth["h1--s1"] == Fraction(100)


def test_duplicate_host_id_names_offender():
    with pytest.raises(DuplicateIdError, match="h1"):
        spec_of([("h1", 2, 512), ("h1", 4, 512)], [("h1", "h1", 10, 0.0)])


def test_duplicate_switch_and_host_id():
    with pytest.raises(DuplicateIdError, match="'n'"):
        spec_of([("n", 2, 512)], [("n", "s", 10, 0.0)], switches=("s", "n"), egress="n")


def test_dangling_endpoint_names_offender():
    with pytest.raises(DanglingEndpointError, match="'x'"):
        spec_of([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0), ("h1", "x", 10, 0.0)])


def test_unknown_ingress_and_egress():
    with pytest.raises(DanglingEndpointError, match="ingress"):
        spec_of([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)], ingress="nope")
    # a switch cannot be the egress host
    with pytest.raises(DanglingEndpointError, match="egress"):
        spec_of([("h1", 2, 512)], [("h1", "s1", 10, 0.0)], switches=("s1",), ingress="s1", egress="s1")


def test_disconnected_names_unreachable_node():
    with pytest.raises(DisconnectedError, match="lonely"):
        spec_of([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)], switches=("lonely",))


@pytest.mark.parametrize(
    "hosts,links",
    [
        ([("h1", 0, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)]),
        ([("h1", 2, 0), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 0, 0.0)]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, -1.0)]),
        # NaN fails every comparison, and an infinite capacity has no exact value
        ([("h1", 2, float("nan")), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)]),
        ([("h1", 2, float("inf")), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)]),
        ([("h1", float("nan"), 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0)]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", float("nan"), 0.0)]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", float("inf"), 0.0)]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, float("nan"))]),
        ([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, float("inf"))]),
    ],
)
def test_nonpositive_capacities_rejected(hosts, links):
    with pytest.raises(NonPositiveCapacityError):
        spec_of(hosts, links)


def test_self_loop_and_parallel_links_rejected():
    with pytest.raises(DanglingEndpointError, match="itself"):
        spec_of([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0), ("h1", "h1", 10, 0.0)])
    with pytest.raises(DuplicateIdError, match="h1--h2"):
        spec_of([("h1", 2, 512), ("h2", 2, 512)], [("h1", "h2", 10, 0.0), ("h2", "h1", 10, 0.0)])


@pytest.fixture
def two_host_net():
    return build_network(spec_of([("h1", 2, 512), ("h2", 4, 1024)], [("h1", "h2", 100, 1.0)]))


def test_allocate_cpu_arithmetic(two_host_net):
    two_host_net.allocate_cpu("h1", 1.0)
    assert two_host_net.residual_cpu["h1"] == Fraction(1)


def test_failed_allocation_leaves_network_bit_identical(two_host_net):
    before = two_host_net.residual_snapshot()
    with pytest.raises(InsufficientCpuError):
        two_host_net.allocate_cpu("h1", 3.0)
    assert two_host_net.residual_snapshot() == before


def test_allocate_then_release_is_exact_noop(two_host_net):
    before = two_host_net.residual_snapshot()
    # 0.1 and 0.3 are not exactly representable; Fractions keep this exact
    two_host_net.allocate_cpu("h1", 0.1)
    two_host_net.allocate_cpu("h1", 0.3)
    two_host_net.release_cpu("h1", 0.3)
    two_host_net.release_cpu("h1", 0.1)
    assert two_host_net.residual_snapshot() == before


def test_release_on_untouched_host_over_release(two_host_net):
    with pytest.raises(OverReleaseError):
        two_host_net.release_cpu("h1", 0.5)


def test_demand_beyond_the_float_range_is_an_insufficiency_not_an_overflow(two_host_net):
    before = two_host_net.residual_snapshot()
    with pytest.raises(InsufficientCpuError, match="requested inf CPU"):
        two_host_net.allocate_cpu("h1", 10**400)
    with pytest.raises(OverReleaseError, match="releasing inf CPU"):
        two_host_net.release_cpu("h1", 10**400)
    assert two_host_net.residual_snapshot() == before


def test_bandwidth_allocate_release(two_host_net):
    two_host_net.allocate_bandwidth("h1--h2", 10)
    assert two_host_net.residual_bandwidth["h1--h2"] == Fraction(90)
    two_host_net.release_bandwidth("h1--h2", 10)
    assert two_host_net.residual_bandwidth["h1--h2"] == Fraction(100)
    with pytest.raises(InsufficientBandwidthError):
        two_host_net.allocate_bandwidth("h1--h2", 100.5)


def test_memory_allocate_release(two_host_net):
    two_host_net.allocate_memory("h2", 1000)
    assert two_host_net.residual_memory["h2"] == Fraction(24)
    with pytest.raises(InsufficientMemoryError):
        two_host_net.allocate_memory("h2", 25)
    two_host_net.release_memory("h2", 1000)
    assert two_host_net.residual_memory["h2"] == Fraction(1024)


def test_unknown_targets(two_host_net):
    with pytest.raises(UnknownHostError):
        two_host_net.allocate_cpu("nope", 1)
    with pytest.raises(UnknownLinkError):
        two_host_net.allocate_bandwidth("nope", 1)


def test_nonpositive_amounts_rejected(two_host_net):
    with pytest.raises(ValueError):
        two_host_net.allocate_cpu("h1", 0)
    with pytest.raises(ValueError):
        two_host_net.release_cpu("h1", -1)


def test_a_third_allocated_and_released_keeps_every_value(two_host_net):
    """1/3 has no finite binary form; the CPU units rescale to thirds and every value stays exact."""
    before = two_host_net.residual_snapshot()
    capacities = two_host_net.cpu_capacity, two_host_net.memory_capacity, two_host_net.bandwidth_capacity
    two_host_net.allocate_cpu("h1", Fraction(1, 3))
    assert two_host_net.residual_cpu == {"h1": Fraction(5, 3), "h2": Fraction(4)}
    assert two_host_net.residual_snapshot()[1:] == before[1:]
    two_host_net.release_cpu("h1", Fraction(1, 3))
    assert two_host_net.residual_snapshot() == before
    assert (two_host_net.cpu_capacity, two_host_net.memory_capacity, two_host_net.bandwidth_capacity) == capacities
    assert all(type(v) is Fraction for view in before for v in view.values())


def test_rescaling_a_copy_leaves_the_original_capacities(two_host_net):
    clone = two_host_net.copy()
    clone.allocate_cpu("h1", Fraction(1, 3))
    assert two_host_net.cpu.scale == 1 and two_host_net.cpu.capacity == {"h1": 2, "h2": 4}
    assert clone.cpu.scale == 3 and clone.cpu.capacity == {"h1": 6, "h2": 12}
    assert clone.cpu_capacity == two_host_net.cpu_capacity == {"h1": Fraction(2), "h2": Fraction(4)}
    # and the other way round: rescaling the original leaves the copy's capacities
    two_host_net.allocate_cpu("h2", Fraction(1, 7))
    assert clone.cpu.scale == 3 and clone.cpu.capacity == {"h1": 6, "h2": 12}
    assert two_host_net.residual_cpu == {"h1": Fraction(2), "h2": Fraction(27, 7)}
    assert clone.residual_cpu == {"h1": Fraction(5, 3), "h2": Fraction(4)}


def test_link_bandwidth_is_the_spec_capacity(two_host_net):
    two_host_net.allocate_bandwidth("h1--h2", 30)
    assert two_host_net.link_bandwidth_mbps("h1--h2") == 100.0
    assert type(two_host_net.link_bandwidth_mbps("h1--h2")) is float


def test_copy_is_independent(two_host_net):
    clone = two_host_net.copy()
    clone.allocate_cpu("h1", 1.5)
    assert two_host_net.residual_cpu["h1"] == Fraction(2)
    assert clone.residual_cpu["h1"] == Fraction(1, 2)


def test_random_interleavings_respect_bounds_and_restore():
    """Any allocate/release interleaving with matched releases keeps residuals
    in [0, capacity], keeps the public view equal to an independent Fraction
    ledger, also in copies, and ends exactly where it started."""
    rng = random.Random(20240917)
    capacities = {"cpu": {"h1": Fraction(3), "h2": Fraction(2)}, "memory": {"h1": Fraction(256), "h2": Fraction(128)},
                  "bandwidth": {"h1--h2": Fraction(50)}}

    def assert_matches(net, ledger):
        assert (net.residual_cpu, net.residual_memory, net.residual_bandwidth) == (
            ledger["cpu"], ledger["memory"], ledger["bandwidth"])
        assert (net.cpu_capacity, net.memory_capacity, net.bandwidth_capacity) == (
            capacities["cpu"], capacities["memory"], capacities["bandwidth"])

    for _ in range(300):
        net = build_network(spec_of([("h1", 3, 256), ("h2", 2, 128)], [("h1", "h2", 50, 0.5)]))
        initial = net.residual_snapshot()
        ledger = {kind: dict(values) for kind, values in capacities.items()}
        outstanding = []
        for _ in range(rng.randint(1, 40)):
            if outstanding and rng.random() < 0.4:
                kind, key, amount = outstanding.pop(rng.randrange(len(outstanding)))
                getattr(net, f"release_{kind}")(key, amount)
                ledger[kind][key] += amount
            else:
                kind, key, cap = rng.choice(
                    [("cpu", "h1", 3), ("cpu", "h2", 2), ("memory", "h1", 256), ("bandwidth", "h1--h2", 50)]
                )
                amount = Fraction(rng.randint(1, 100), 100) * cap / 10
                try:
                    getattr(net, f"allocate_{kind}")(key, amount)
                except (InsufficientCpuError, InsufficientMemoryError, InsufficientBandwidthError):
                    assert ledger[kind][key] < amount
                    continue
                ledger[kind][key] -= amount
                outstanding.append((kind, key, amount))
            for residuals, capacity in (
                (net.residual_cpu, net.cpu_capacity),
                (net.residual_memory, net.memory_capacity),
                (net.residual_bandwidth, net.bandwidth_capacity),
            ):
                for key, value in residuals.items():
                    assert 0 <= value <= capacity[key]
            assert_matches(net, ledger)
        clone, at_copy = net.copy(), {kind: dict(values) for kind, values in ledger.items()}
        assert_matches(clone, at_copy)
        for kind, key, amount in outstanding:
            getattr(net, f"release_{kind}")(key, amount)
            ledger[kind][key] += amount
        assert net.residual_snapshot() == initial
        assert_matches(net, ledger)
        assert_matches(clone, at_copy)
        for kind, key, amount in reversed(outstanding):
            getattr(clone, f"release_{kind}")(key, amount)
        assert clone.residual_snapshot() == initial
