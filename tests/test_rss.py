"""RSS hash, indirection table, and steering-policy tests.

The Toeplitz implementation is checked against the published IPv4-with-TCP
test vectors of the RSS specification, then for the properties the
multi-queue subsystem relies on: determinism (same flow, same queue —
always) and reasonable uniformity over the indirection table.
"""

import random

import pytest

from repro.mq.rss import (
    INDIRECTION_SLOTS,
    RSS_DEFAULT_KEY,
    IndirectionTable,
    RssHasher,
    flow_input_bytes,
    toeplitz_hash,
)
from repro.mq.steering import FlowSteering, StaticRssSteering, make_policy
from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey

#: Published IPv4-with-TCP test vectors from the RSS specification
#: (source ip:port -> destination ip:port => expected 32-bit hash).
SPEC_VECTORS = [
    (("66.9.149.187", 2794), ("161.142.100.80", 1766), 0x51CCC178),
    (("199.92.111.2", 14230), ("65.69.140.83", 4739), 0xC626B0EA),
]


@pytest.mark.parametrize("src, dst, expected", SPEC_VECTORS)
def test_toeplitz_matches_spec_vectors(src, dst, expected):
    data = flow_input_bytes(
        ip_from_str(src[0]), src[1], ip_from_str(dst[0]), dst[1]
    )
    assert toeplitz_hash(data, RSS_DEFAULT_KEY) == expected


def test_toeplitz_rejects_short_key():
    with pytest.raises(ValueError):
        toeplitz_hash(b"\x01" * 12, key=b"\x02" * 12)


def test_hasher_deterministic_and_cached():
    key = FlowKey(ip_from_str("10.0.1.1"), 40000, ip_from_str("10.0.0.1"), 5001)
    a, b = RssHasher(), RssHasher()
    assert a.hash_flow(key) == b.hash_flow(key)  # independent instances agree
    assert a.hash_flow(key) == a.hash_flow(key)  # cache returns the same value
    direct = toeplitz_hash(flow_input_bytes(*key))
    assert a.hash_flow(key) == direct


def _random_flows(n, seed=20080805):
    rng = random.Random(seed)
    flows = set()
    while len(flows) < n:
        flows.add(
            FlowKey(
                rng.getrandbits(32), rng.randrange(1024, 65536),
                rng.getrandbits(32), rng.randrange(1024, 65536),
            )
        )
    return sorted(flows)


def test_indirection_uniform_within_2x_for_400_random_flows():
    """400 random flows over the 128-slot table: per-queue load within 2x of
    the fair share, and the hash exercises nearly the whole table."""
    n_queues = 4
    hasher = RssHasher()
    table = IndirectionTable(n_queues)
    flows = _random_flows(400)
    hashes = [hasher.hash_flow(f) for f in flows]

    per_queue = [0] * n_queues
    for h in hashes:
        per_queue[table.queue_for(h)] += 1
    fair = len(flows) / n_queues
    for queue, count in enumerate(per_queue):
        assert fair / 2 <= count <= fair * 2, (
            f"queue {queue} got {count} of {len(flows)} flows (fair {fair:.0f})"
        )

    slot_counts = table.occupancy(hashes)
    assert len(slot_counts) == INDIRECTION_SLOTS
    assert sum(slot_counts) == len(flows)
    # ~5-6 empty slots expected from a uniform hash at 400/128; dozens empty
    # would mean the low bits are biased.
    assert sum(1 for c in slot_counts if c > 0) >= 100


def test_indirection_table_validation_and_programming():
    with pytest.raises(ValueError):
        IndirectionTable(0)
    with pytest.raises(ValueError):
        IndirectionTable(2, n_slots=100)  # not a power of two
    table = IndirectionTable(2)
    assert table.slots == [i % 2 for i in range(INDIRECTION_SLOTS)]
    table.program(3, 1)
    assert table.slots[3] == 1
    with pytest.raises(ValueError):
        table.program(0, 5)


def test_static_rss_steering_deterministic():
    policy_a, policy_b = StaticRssSteering(4), StaticRssSteering(4)
    flows = _random_flows(50, seed=7)
    for flow in flows:
        queue = policy_a.select(flow)
        assert 0 <= queue < 4
        assert policy_b.select(flow) == queue   # independent instances agree
        assert policy_a.select(flow) == queue   # stable across calls
        assert policy_a.peek(flow) == queue     # peek matches select
        assert policy_a.generation(flow) == 0   # static RSS never re-steers
    policy_a.note_consumer(flows[0], 3)         # no-op for static RSS
    assert policy_a.peek(flows[0]) == policy_b.peek(flows[0])


def test_flow_steering_overrides_rss_and_bumps_generation():
    policy = FlowSteering(4)
    flow = FlowKey(ip_from_str("10.0.1.1"), 40000, ip_from_str("10.0.0.1"), 5001)
    rss_queue = policy.select(flow)
    assert policy.generation(flow) == 0

    policy.note_consumer(flow, cpu_index=(rss_queue + 1) % 4)
    steered = (rss_queue + 1) % 4
    assert policy.select(flow) == steered
    assert policy.peek(flow) == steered
    assert policy.generation(flow) == 1
    assert policy.stats.filters_installed == 1

    policy.note_consumer(flow, cpu_index=steered)  # same CPU: no re-steer
    assert policy.generation(flow) == 1
    policy.note_consumer(flow, cpu_index=(steered + 1) % 4)
    assert policy.generation(flow) == 2
    assert policy.stats.filters_reprogrammed == 1


def test_make_policy():
    assert isinstance(make_policy("rss", 2), StaticRssSteering)
    assert isinstance(make_policy("arfs", 2), FlowSteering)
    with pytest.raises(ValueError):
        make_policy("hash-of-the-day", 2)


def test_queues1_reproduces_figure12_quick_rows():
    """The q=1 column of the RSS scaling sweep runs the Figure 12 rig
    itself — the classic ReceiverMachine, not MqReceiverMachine(queues=1),
    whose lock model and per-NIC aggregation engines differ — hence
    bit-identical numbers."""
    from repro.experiments import extension_rss_scaling, figure12_scalability
    from repro.experiments.base import QUICK_DURATION, QUICK_WARMUP

    fig12_row = figure12_scalability._measure_point((5, QUICK_DURATION, QUICK_WARMUP))
    rss_row = extension_rss_scaling._measure_point((1, 5, QUICK_DURATION, QUICK_WARMUP))
    for col in ("Original Mb/s", "Optimized Mb/s", "gain %", "aggregation degree"):
        assert rss_row[col] == fig12_row[col]  # bit-identical, not approx
