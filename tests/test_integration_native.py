"""End-to-end integration tests on the costed native machine.

The central correctness claim (paper §3.6): with Receive Aggregation and
Acknowledgment Offload enabled, the application receives byte-for-byte the
same stream it would have received from the baseline stack — under clean
links, loss, and reordering alike.
"""

import pytest

from repro.core.config import OptimizationConfig
from repro.host.client import ClientHost
from repro.host.machine import ReceiverMachine
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource

from tests.conftest import fast_config

SERVER = ip_from_str("10.0.0.1")


def run_transfer(opt, nbytes=400_000, drop=0.0, reorder=0.0, dup=0.0, seed=11,
                 until=20.0, close_after=False):
    """One materialized transfer through the costed machine; returns
    (server socket, machine, client socket)."""
    sim = Simulator()
    machine = ReceiverMachine(sim, fast_config(n_nics=1), opt, ip=SERVER)
    received = []
    machine.listen(5001, lambda sock: setattr(sock, "on_data_cb",
                                              lambda s, payload, length: received.append(payload)))
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    rng = SeededRng(seed, "impair")
    machine.add_client(client, drop_prob=drop, reorder_prob=reorder, dup_prob=dup, rng=rng)
    sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True))
    sock.conn.attach_source(InfiniteSource(materialize=True, seed=seed, limit_bytes=nbytes))
    if close_after:
        sock.close()
    sim.run(until=until)
    server_sock = next(iter(machine.kernel.sockets.values()))
    return server_sock, machine, sock, b"".join(p for p in received if p)


@pytest.mark.parametrize("opt_name", ["baseline", "optimized", "aggregation_only"])
def test_clean_transfer_integrity(opt_name):
    opt = getattr(OptimizationConfig, opt_name)()
    server_sock, machine, _, payload = run_transfer(opt, nbytes=300_000, until=5.0)
    assert server_sock.bytes_received == 300_000
    assert payload == InfiniteSource.pattern(0, 300_000, seed=11)
    machine.pool.assert_balanced()


@pytest.mark.parametrize("opt_name", ["baseline", "optimized"])
def test_transfer_integrity_under_loss(opt_name):
    opt = getattr(OptimizationConfig, opt_name)()
    server_sock, machine, client_sock, payload = run_transfer(
        opt, nbytes=200_000, drop=0.02, until=30.0
    )
    assert server_sock.bytes_received == 200_000
    assert payload == InfiniteSource.pattern(0, 200_000, seed=11)
    assert client_sock.conn.stats.retransmits > 0
    machine.pool.assert_balanced()


@pytest.mark.parametrize("opt_name", ["baseline", "optimized"])
def test_transfer_integrity_under_reordering(opt_name):
    opt = getattr(OptimizationConfig, opt_name)()
    server_sock, machine, _, payload = run_transfer(
        opt, nbytes=200_000, reorder=0.05, until=30.0
    )
    assert server_sock.bytes_received == 200_000
    assert payload == InfiniteSource.pattern(0, 200_000, seed=11)
    machine.pool.assert_balanced()
    if opt.receive_aggregation:
        # Reordered packets must have bypassed aggregation or broken chains,
        # never been coalesced out of order (§3.6 case 1).
        stats = machine.kernel.aggregators[0].stats
        assert stats.flush_mismatch > 0 or stats.bypassed > 0


def test_optimized_fewer_host_packets_same_bytes():
    base_sock, base_m, _, base_payload = run_transfer(OptimizationConfig.baseline(), until=5.0)
    opt_sock, opt_m, _, opt_payload = run_transfer(OptimizationConfig.optimized(), until=5.0)
    assert base_payload == opt_payload
    assert opt_m.profiler.host_packets < base_m.profiler.host_packets
    assert opt_m.profiler.network_packets == pytest.approx(base_m.profiler.network_packets, rel=0.05)


def test_optimized_sends_same_number_of_wire_acks():
    """ACK offload changes WHERE ACKs are built, not HOW MANY reach the wire."""
    _, base_m, _, _ = run_transfer(OptimizationConfig.baseline(), until=5.0)
    _, opt_m, _, _ = run_transfer(OptimizationConfig.optimized(), until=5.0)
    assert opt_m.profiler.acks_sent == pytest.approx(base_m.profiler.acks_sent, rel=0.05)


def test_connection_teardown_through_costed_machine():
    server_sock, machine, client_sock, payload = run_transfer(
        OptimizationConfig.optimized(), nbytes=50_000, until=10.0, close_after=True
    )
    assert payload == InfiniteSource.pattern(0, 50_000, seed=11)
    assert server_sock.remote_closed
    machine.pool.assert_balanced()


def test_multiple_connections_per_nic_keep_streams_separate():
    sim = Simulator()
    machine = ReceiverMachine(sim, fast_config(n_nics=1), OptimizationConfig.optimized(), ip=SERVER)
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    socks = []
    for j in range(4):
        sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True))
        sock.conn.attach_source(InfiniteSource(materialize=True, seed=100 + j, limit_bytes=60_000))
        socks.append(sock)
    sim.run(until=5.0)
    assert len(machine.kernel.sockets) == 4
    for j, (key, srv_sock) in enumerate(sorted(machine.kernel.sockets.items(),
                                               key=lambda kv: kv[0].dst_port)):
        assert srv_sock.bytes_received == 60_000
    machine.pool.assert_balanced()


def test_cpu_time_is_conserved():
    """Total profiled cycles must equal the CPU's busy-cycle count."""
    _, machine, _, _ = run_transfer(OptimizationConfig.optimized(), until=5.0)
    assert sum(machine.profiler.cycles.values()) == pytest.approx(machine.cpu.busy_cycles, rel=1e-9)


def test_rtt_estimates_unaffected_by_aggregation():
    """Paper §3.6: using only the last fragment's timestamp loses no RTT
    precision — sender RTT estimates must match the baseline's.

    The transfer is an exact multiple of the MSS so no trailing delayed-ACK
    fires: RTTM legitimately includes delayed-ACK time, and a 40 ms tail
    sample would skew whichever variant drew the odd segment count.
    """
    nbytes = 200 * 1448
    _, base_m, base_sock, _ = run_transfer(OptimizationConfig.baseline(), nbytes=nbytes, until=5.0)
    _, opt_m, opt_sock, _ = run_transfer(OptimizationConfig.optimized(), nbytes=nbytes, until=5.0)
    base_rtt = base_sock.conn.rtt.srtt
    opt_rtt = opt_sock.conn.rtt.srtt
    assert base_rtt is not None and opt_rtt is not None
    # Timestamp granularity is 1 ms (the paper's own argument): estimates
    # must agree within one tick.
    assert abs(base_rtt - opt_rtt) <= 1e-3
