"""Client host, machine assembly, and kernel-timer tests."""

import pytest

from repro.core.config import OptimizationConfig, RepairConfig
from repro.cpu.cpu import Cpu
from repro.host.client import ClientHost
from repro.host.kernel import Kernel
from repro.host.machine import ReceiverMachine
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.tcp.socket import TcpSocket

from tests.conftest import fast_config

SERVER = ip_from_str("10.0.0.1")


# ---------------------------------------------------------------- ClientHost
def test_client_hosts_talk_over_links(sim):
    a = ClientHost(sim, ip_from_str("10.0.0.10"), "a")
    b = ClientHost(sim, ip_from_str("10.0.0.20"), "b")
    ab = Link(sim, 1e9, 10e-6, sink=b.rx)
    ba = Link(sim, 1e9, 10e-6, sink=a.rx)
    a.attach_tx(ab)
    b.attach_tx(ba)
    accepted = []
    b.listen(80, lambda conn: accepted.append(TcpSocket(conn)) or accepted[-1])
    sock = a.connect(b.ip, 80)
    sim.run(until=0.1)
    assert sock.established
    assert len(accepted) == 1


def test_client_ephemeral_ports_unique(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    ports = {host.allocate_port() for _ in range(100)}
    assert len(ports) == 100


def test_client_ignores_foreign_destination(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    from repro.net.packet import make_data_segment

    pkt = make_data_segment(ip_from_str("1.1.1.1"), ip_from_str("9.9.9.9"), 1, 2, seq=0, ack=0)
    host.rx(pkt)  # must not raise or create state
    assert not host.connections


def test_client_drops_packets_for_unlistened_port(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    from repro.net.packet import make_data_segment
    from repro.net.tcp_header import TcpFlags

    syn = make_data_segment(ip_from_str("1.1.1.1"), host.ip, 5, 999, seq=0, ack=0, flags=TcpFlags.SYN)
    host.rx(syn)
    assert not host.connections


def test_client_send_without_link_raises(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    with pytest.raises(RuntimeError):
        host.connect(ip_from_str("10.0.0.20"), 80)


# ---------------------------------------------------------------- machine assembly
def test_machine_wires_one_nic_per_client(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=3), OptimizationConfig.baseline(), ip=SERVER)
    for i in range(3):
        machine.add_client(ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}")))
    assert len(machine.nics) == 3
    assert len(machine.drivers) == 3
    assert len(machine.kernel.routes) == 3


def test_machine_aggregator_only_when_enabled(sim):
    base = ReceiverMachine(sim, fast_config(), OptimizationConfig.baseline(), ip=SERVER)
    assert base.kernel.aggregators == []
    opt = ReceiverMachine(sim, fast_config(), OptimizationConfig.optimized(), ip=SERVER)
    assert len(opt.kernel.aggregators) == 1


@pytest.mark.parametrize(
    "queues, opt",
    [
        (0, OptimizationConfig.optimized()),
        (1, OptimizationConfig(receive_aggregation=False, repair=RepairConfig())),
        (4, OptimizationConfig(receive_aggregation=False, repair=RepairConfig())),
    ],
    ids=["no-queue", "repair-without-aggregation-q1", "repair-without-aggregation-q4"],
)
def test_machine_rejects_invalid_layout(sim, queues, opt):
    with pytest.raises(ValueError):
        ReceiverMachine(sim, fast_config(), opt, queues=queues, ip=SERVER)


def test_machine_routes_acks_back_through_arrival_nic(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=2), OptimizationConfig.baseline(), ip=SERVER)
    machine.listen(5001)
    clients = [ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}")) for i in range(2)]
    for c in clients:
        machine.add_client(c)
    socks = [c.connect(SERVER, 5001) for c in clients]
    for s in socks:
        s.send(b"x" * 5000)
    sim.run(until=0.2)
    # Each client's traffic produced tx on its own NIC only.
    assert machine.nics[0].stats.tx_frames > 0
    assert machine.nics[1].stats.tx_frames > 0


def test_kernel_send_without_route_raises(sim):
    machine = ReceiverMachine(sim, fast_config(), OptimizationConfig.baseline(), ip=SERVER)
    from repro.net.flow import FlowKey
    from repro.tcp.connection import TcpConnection

    conn = TcpConnection(
        FlowKey(SERVER, 5001, ip_from_str("10.9.9.9"), 2),
        machine.kernel.default_tcp_config(),
        lambda: sim.now, machine.kernel.timers, machine.kernel, iss=7,
    )
    from repro.tcp.connection import AckEvent

    pkt = conn.build_ack_packet(1, AckEvent(acks=[1], window=100, timestamp=None))
    with pytest.raises(RuntimeError):
        machine.kernel.send_packet(conn, pkt)


# ---------------------------------------------------------------- kernel timers
def on_each_timer_kernel(case):
    """Run ``case(sim, kernel)`` on a 1-CPU and on a 2-CPU kernel (fresh
    simulator each).  The 2-CPU kernel arms from CPU 1, so a timer that
    fired on CPU 0 would miss the busy-CPU delays the cases set up."""
    for n_cpus in (1, 2):
        sim = Simulator()
        cpus = [Cpu(sim, freq_hz=1e9, name=f"k-cpu{i}") for i in range(n_cpus)]
        kernel = Kernel(sim, cpus, fast_config(), OptimizationConfig.baseline())
        kernel.enter_cpu(n_cpus - 1)
        case(sim, kernel)


def test_kernel_timer_runs_as_cpu_task():
    def case(sim, kernel):
        cpu, timers = kernel.cpu, kernel.timers
        fired = []
        # Occupy the CPU so the timer callback is delayed behind packet work.
        cpu.submit(lambda: cpu.consume(5000, "misc"))
        timers.schedule(1e-6, lambda: fired.append(sim.now))
        sim.run(until=1e-3)
        assert fired and fired[0] == pytest.approx(5e-6)

    on_each_timer_kernel(case)


def test_kernel_timer_cancel_before_fire():
    def case(sim, kernel):
        fired = []
        handle = kernel.timers.schedule(1e-3, lambda: fired.append(1))
        handle.cancel()
        sim.run(until=0.01)
        assert not fired

    on_each_timer_kernel(case)


def test_kernel_timer_cancel_between_fire_and_run():
    """Cancelling after the sim event fired but before the CPU task ran
    must still suppress the callback."""

    def case(sim, kernel):
        cpu, timers = kernel.cpu, kernel.timers
        fired = []
        cpu.submit(lambda: cpu.consume(10000, "misc"))  # cpu busy 10 us
        handle = timers.schedule(1e-6, lambda: fired.append(1))
        sim.schedule(2e-6, handle.cancel)  # after fire, before task start
        sim.run(until=0.01)
        assert not fired

    on_each_timer_kernel(case)


def test_kernel_timer_restart_pending_moves_in_place():
    def case(sim, kernel):
        timers = kernel.timers
        fired = []
        handle = timers.schedule(1e-3, lambda: fired.append(sim.now))
        assert timers.restart(handle, 2e-3) is handle
        sim.run(until=0.01)
        assert fired == [pytest.approx(2e-3)]

    on_each_timer_kernel(case)


def test_kernel_timer_restart_after_fire_while_task_queued():
    """The event fired but its CPU task still waits behind packet work:
    restart must cancel that task and arm a new timer, not resurrect the
    old handle (which would run the callback twice)."""

    def case(sim, kernel):
        cpu, timers = kernel.cpu, kernel.timers
        fired = []
        cpu.submit(lambda: cpu.consume(10000, "misc"))  # cpu busy 10 us
        handle = timers.schedule(1e-6, lambda: fired.append(sim.now))
        restarted = []
        sim.schedule(2e-6, lambda: restarted.append(timers.restart(handle, 1e-3)))
        sim.run(until=0.01)
        new = restarted[0]
        assert new is not handle and handle.cancelled and not new.cancelled
        assert fired == [pytest.approx(2e-6 + 1e-3)]

    on_each_timer_kernel(case)


def test_kernel_timer_restart_cancelled_arms_new_handle():
    def case(sim, kernel):
        timers = kernel.timers
        fired = []
        handle = timers.schedule(1e-3, lambda: fired.append(sim.now))
        handle.cancel()
        new = timers.restart(handle, 2e-3)
        assert new is not handle
        sim.run(until=0.01)
        assert fired == [pytest.approx(2e-3)]

    on_each_timer_kernel(case)


def test_kernel_timer_runs_on_arming_cpu_and_restores():
    """The callback runs with the arming CPU current and charges it; the
    kernel's current CPU is restored afterwards."""

    def case(sim, kernel):
        armed_on = kernel._current_idx
        ran_on = []

        def callback():
            ran_on.append(kernel._current_idx)
            kernel.cpu.consume(100, "misc")

        kernel.timers.schedule(1e-6, callback)
        kernel.enter_cpu(0)
        sim.run(until=1e-3)
        assert ran_on == [armed_on]
        assert kernel.cpus[armed_on].busy_cycles == 100
        assert kernel._current_idx == 0 and kernel.cpu is kernel.cpus[0]

    on_each_timer_kernel(case)


def test_kernel_timer_restart_moves_to_rearming_cpu():
    """Like cancel + schedule, an in-place restart moves the timer to the
    CPU that re-arms it."""

    def case(sim, kernel):
        timers = kernel.timers
        last = len(kernel.cpus) - 1
        ran_on = []
        prev = kernel.enter_cpu(0)
        handle = timers.schedule(1e-3, lambda: ran_on.append(kernel._current_idx))
        kernel.enter_cpu(last)
        assert timers.restart(handle, 2e-3) is handle
        kernel.enter_cpu(prev)
        sim.run(until=0.01)
        assert ran_on == [last]

    on_each_timer_kernel(case)


def test_tcp_overrides_applied_to_accepted_connections(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=1), OptimizationConfig.baseline(), ip=SERVER)
    machine.kernel.tcp_overrides = {"rcv_buf": 1 << 20, "window_scale": 6}
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    client.connect(SERVER, 5001)
    sim.run(until=0.05)
    conn = next(iter(machine.kernel.connections.values()))
    assert conn.config.rcv_buf == 1 << 20
    assert conn.config.window_scale == 6
