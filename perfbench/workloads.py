"""The benchmark's three workloads, and one measured repetition of each.

A repetition builds a rig through the program's public entry points, runs
the simulated warm-up, then advances the measurement window one simulated
millisecond at a time, timing every slice on a ``hostclock.HostClock``.  It returns
the host timings, the exact simulated outputs of the window, the per-layer
model counters, and the list of output checks that failed.

Workloads (the reasons are recorded in ``spec.json``):

* ``bulk-up``       Figure 7's Linux UP point with both optimizations: five
                    ACK-clocked streams, one per NIC, over a clean wire.  No
                    random input: the seed is ignored.
* ``rpc-churn-10k`` the many-connection generator: 10,000 resident
                    connections (5% bulk, 95% RPC mice) plus open-loop
                    Poisson churn at 2,000 connections/s, 4 transactions
                    each, all drawn from the seed.
* ``reorder-mq4``   the Linux SMP 4-queue RSS rig with sort-and-coalesce
                    repair, under 5% uniform inbound reorder drawn from
                    per-link streams of the seed.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from typing import Dict, List, Optional

from hostclock import HostClock

WORKLOADS = ("bulk-up", "rpc-churn-10k", "reorder-mq4")

#: Simulated warm-up before the window: handshakes, slow start and, on
#: ``rpc-churn-10k``, the staggered opens of the resident population.
WARMUP_S = 0.05
#: One host-timed slice of the window, in simulated seconds.
SLICE_S = 1e-3
#: Slices per window: 100, so the 90th percentile has ten slices above it.
SLICES = 100
WINDOW_S = SLICE_S * SLICES

#: The paper's Figure 7 Linux UP optimized goodput (Mb/s).
PAPER_GOODPUT_MBPS = 4660.0
#: ``bulk-up`` goodput must be within this share of the paper's.
PAPER_TOLERANCE = 0.05
#: The program's pinned UP optimized quick point: events fired by t = 0.1 s
#: and the goodput over [0.05 s, 0.1 s].  A change that only speeds up the
#: simulator leaves both bit-identical.
PIN_TIME_S = 0.1
PIN_EVENTS = 84998
PIN_GOODPUT_MBPS = 4707.7376

#: Profiler categories reported as ``cpu.cycles_per_pkt.<category>``.
CATEGORIES = ("per-byte", "rx", "tx", "buffer", "non-proto", "driver", "misc", "aggr", "xcpu", "repair")

RPC_CONNECTIONS = 10_000
RPC_ARRIVALS_HZ = 2000.0
RPC_CHURN_TRANSACTIONS = 4
MQ_QUEUES = 4
MQ_REORDER_PROB = 0.05


@dataclass
class Rig:
    sim: object
    machine: object
    clients: list
    #: The many-connection population driver (``rpc-churn-10k`` only).
    population: Optional[object] = None


def build(workload: str, seed: int) -> Rig:
    """Assemble the workload's rig, unstarted."""
    from repro import OptimizationConfig, linux_smp_config, linux_up_config

    if workload == "bulk-up":
        from repro.workloads.stream import build_stream_rig

        sim, machine, clients, _ = build_stream_rig(linux_up_config(), OptimizationConfig.optimized())
        return Rig(sim, machine, clients)
    if workload == "rpc-churn-10k":
        from repro.workloads.many import ManyConnWorkload, build_many_connection_rig

        wl = ManyConnWorkload(
            n_connections=RPC_CONNECTIONS,
            arrival_rate_hz=RPC_ARRIVALS_HZ,
            churn_transactions=RPC_CHURN_TRANSACTIONS,
            seed=seed,
        )
        sim, machine, clients, population = build_many_connection_rig(
            linux_up_config(), OptimizationConfig.optimized(), wl
        )
        population.start()
        return Rig(sim, machine, clients, population)
    if workload == "reorder-mq4":
        from repro.host.client import ClientHost
        from repro.mq.machine import MqReceiverMachine
        from repro.net.addresses import ip_from_str
        from repro.sim.engine import Simulator
        from repro.sim.rng import SeededRng
        from repro.tcp.connection import TcpConfig
        from repro.tcp.source import InfiniteSource
        from repro.workloads.stream import SERVER_PORT

        config = linux_smp_config()
        sim = Simulator()
        machine = MqReceiverMachine(
            sim, config, OptimizationConfig.resilient(repair=True),
            queues=MQ_QUEUES, steering="rss", ip=ip_from_str("10.0.0.1"),
        )
        machine.listen(SERVER_PORT)
        clients = []
        for i in range(config.n_nics):
            client = ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}"), name=f"client{i}", iss_base=1000 + i)
            machine.add_client(client, reorder_prob=MQ_REORDER_PROB, rng=SeededRng(seed, f"link{i}"))
            clients.append(client)
        for j, client in enumerate(clients):
            sock = client.connect(machine.ip, SERVER_PORT, config=TcpConfig(mss=config.mss))
            sock.conn.attach_source(InfiniteSource(seed=j))
        return Rig(sim, machine, clients)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# counters read from the program's public stats objects
# ----------------------------------------------------------------------
def _cpus(machine) -> list:
    return list(getattr(machine, "cpus", None) or [machine.cpu])


def _pools(machine) -> list:
    return list(getattr(machine, "pools", None) or [machine.pool])


def _governors(machine) -> list:
    govs = list(getattr(machine, "governors", None) or [])
    single = getattr(machine, "governor", None)
    return govs + ([single] if single is not None else [])


def _profile(machine):
    if hasattr(machine, "merged_profile"):
        return machine.merged_profile()
    return machine.profiler.snapshot(0.0)


def _client_conns(rig: Rig) -> list:
    return [conn for client in rig.clients for conn in client.connections.values()]


def snapshot(rig: Rig) -> Dict[str, float]:
    """Cumulative model counters; a window's outputs are two snapshots' difference."""
    sim, machine = rig.sim, rig.machine
    prof = _profile(machine)
    slab = machine.packet_slab
    wheel = sim.wheel
    snap: Dict[str, float] = {
        "events": sim.events_fired,
        "wheel_inserts": wheel.inserts if wheel is not None else 0,
        "wire_pkts": sum(nic.stats.rx_frames for nic in machine.nics),
        "interrupts": sum(nic.stats.interrupts for nic in machine.nics),
        "ring_drops": machine.total_ring_drops(),
        "network_packets": prof.network_packets,
        "host_packets": prof.host_packets,
        "acks_sent": prof.acks_sent,
        "busy_cycles": sum(cpu.busy_cycles for cpu in _cpus(machine)),
        "bytes": sum(sock.bytes_received for sock in machine.kernel.sockets.values()),
        "sender_retransmits": sum(conn.stats.retransmits for conn in _client_conns(rig)),
        "repair_holds": sum(r.stats.holds for r in machine.repairs),
        "governor_transitions": sum(g.stats.mode_transitions for g in _governors(machine)),
        "slab_released": slab.released if slab is not None else 0,
        "slab_recycled": slab.recycled if slab is not None else 0,
        "frames_reordered": sum(link.stats.frames_reordered for link in machine.links),
    }
    for cat in CATEGORIES:
        snap["cycles." + cat] = prof.cycles.get(cat, 0.0)
    snap["cycles.total"] = prof.total_cycles
    if rig.population is not None:
        snap["transactions"] = rig.population.transactions
        snap["connections_closed"] = rig.population.connections_closed
    return snap


def sim_metrics(workload: str, window: Dict[str, float]) -> Dict[str, float]:
    """The simulated end-to-end metrics of one window."""
    goodput = window["bytes"] * 8 / WINDOW_S / 1e6
    out = {
        "sim_goodput_mbps": goodput,
        "sim_cycles_per_pkt": window["cycles.total"] / max(1, window["network_packets"]),
    }
    if workload == "rpc-churn-10k":
        out["sim_rpcs_per_s"] = window["transactions"] / WINDOW_S
    if workload == "bulk-up":
        out["paper_err_pct"] = abs(goodput - PAPER_GOODPUT_MBPS) / PAPER_GOODPUT_MBPS * 100
    return out


def layer_counters(rig: Rig, window: Dict[str, float]) -> Dict[str, float]:
    """The exact per-layer model counters of one window."""
    pkts = max(1, window["wire_pkts"])
    net = max(1, window["network_packets"])
    capacity = WINDOW_S * _cpus(rig.machine)[0].freq_hz * len(_cpus(rig.machine))
    out = {
        "sim.events_per_pkt": window["events"] / pkts,
        "sim.wheel_inserts_per_pkt": window["wheel_inserts"] / pkts,
        "nic.ring_drop_share": window["ring_drops"] / pkts,
        "nic.pkts_per_interrupt": window["wire_pkts"] / max(1, window["interrupts"]),
        "core.aggregation_degree": window["network_packets"] / max(1, window["host_packets"]),
        "core.acks_per_pkt": window["acks_sent"] / net,
        "faults.repair_holds_per_kpkt": window["repair_holds"] * 1000 / pkts,
        "faults.governor_transitions": window["governor_transitions"],
        "buffers.slab_recycle_share": window["slab_recycled"] / max(1, window["slab_released"]),
        "tcp.retransmits_per_kpkt": window["sender_retransmits"] * 1000 / pkts,
        "cpu.utilization": window["busy_cycles"] / capacity,
    }
    for cat in CATEGORIES:
        out["cpu.cycles_per_pkt." + cat] = window["cycles." + cat] / net
    return out


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def check_outputs(rig: Rig) -> List[str]:
    """Invariants of the rig's state at the end of the window; one message
    per violation."""
    failures = []
    machine = rig.machine
    for pool in _pools(machine):
        st = pool.stats
        if st.allocs - st.frees != st.outstanding or not 0 <= st.outstanding <= st.peak_outstanding:
            failures.append(
                f"pool {pool.name}: {st.allocs} allocs - {st.frees} frees != "
                f"{st.outstanding} outstanding (peak {st.peak_outstanding})"
            )
    for repair in machine.repairs:
        st = repair.stats
        if st.frames_in != st.frames_out + repair.occupancy:
            failures.append(
                f"repair {repair.name}: {st.frames_in} frames in != "
                f"{st.frames_out} out + {repair.occupancy} held"
            )
    if rig.population is None:
        failures.extend(_check_byte_ranges(rig))
    return failures


def check_exercised(workload: str, window: Dict[str, float]) -> List[str]:
    """The window did the work its workload exists for."""
    required = {
        "bulk-up": ("network_packets",),
        "rpc-churn-10k": ("transactions", "connections_closed", "ring_drops"),
        "reorder-mq4": ("frames_reordered", "repair_holds"),
    }[workload]
    return [f"{workload}: no {name} in the window" for name in required if window[name] <= 0]


def _check_byte_ranges(rig: Rig) -> List[str]:
    """Each stream's receiver delivered exactly its in-order sequence range,
    once, and the range the sender saw acknowledged is a prefix of it."""
    from repro.tcp.seqmath import seq_diff

    failures = []
    sockets = rig.machine.kernel.sockets
    for sender in _client_conns(rig):
        sock = sockets.get(sender.key.reverse())
        if sock is None:
            failures.append(f"{sender.name}: no receiver socket")
            continue
        recv = sock.conn
        in_order = seq_diff(recv.rcv_nxt, recv.irs + 1)
        acked = seq_diff(sender.snd_una, sender.iss + 1)
        sent = seq_diff(sender.snd_nxt, sender.iss + 1)
        delivered = recv.stats.bytes_delivered
        if delivered != in_order or sock.bytes_received + sock.pending_bytes != delivered:
            failures.append(
                f"{sender.name}: receiver delivered {delivered} bytes, socket holds "
                f"{sock.bytes_received}+{sock.pending_bytes}, in-order range is {in_order}"
            )
        if not 0 < acked <= delivered <= sent:
            failures.append(
                f"{sender.name}: acked {acked} <= delivered {delivered} <= sent {sent} fails"
            )
    return failures


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, tracer=None, clock: Optional[HostClock] = None,
            t_start: Optional[float] = None) -> dict:
    """Build, warm up and measure one window; see the module docstring.

    Host times are reference seconds of ``clock`` (see ``hostclock``); the
    warm-up runs in slices too, so that each slice is timed right after a
    probe.  ``t_start`` is ``clock.start()`` taken when the repetition began
    (before the program was imported); both default to now.
    """
    if clock is None:
        clock = HostClock()
    if t_start is None:
        t_start = clock.start()
    rig = build(workload, seed)
    sim = rig.sim
    setup_s = clock.stop(t_start)
    warmup_slices = round(WARMUP_S / SLICE_S)
    for i in range(warmup_slices):
        t0 = clock.start()
        sim.run(until=(i + 1) * SLICE_S)
        setup_s += clock.stop(t0)
    before = snapshot(rig)
    failures: List[str] = []
    if tracer is not None:
        tracer.reset()
    slices = []
    raw_before = clock.raw_s
    for i in range(SLICES):
        until = (warmup_slices + i + 1) * SLICE_S
        t0 = clock.start()
        sim.run(until=until)
        slices.append(clock.stop(t0))
        if workload == "bulk-up" and until == PIN_TIME_S:
            failures.extend(_check_pin(rig, before))
    window_raw_s = clock.raw_s - raw_before
    after = snapshot(rig)
    window = {key: after[key] - before[key] for key in after}
    window["events_total"] = sim.events_fired
    failures.extend(check_outputs(rig))
    failures.extend(check_exercised(workload, window))
    sim_out = sim_metrics(workload, window)
    if workload == "bulk-up":
        err = abs(sim_out["sim_goodput_mbps"] - PAPER_GOODPUT_MBPS) / PAPER_GOODPUT_MBPS
        if err > PAPER_TOLERANCE:
            failures.append(f"goodput {sim_out['sim_goodput_mbps']:.1f} Mb/s is {err:.1%} off the paper")
    window_s = sum(slices)
    rep = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "host": {
            "setup_s": setup_s,
            "window_s": window_s,
            "window_raw_s": window_raw_s,
            "wall_s": setup_s + window_s,
            "slices_ms": [t * 1e3 for t in slices],
            "slowdown": clock.slowdown(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "window": window,
        "sim": sim_out,
        "counters": layer_counters(rig, window),
        "failures": failures,
    }
    if tracer is not None:
        rep["layers"] = tracer.layer_totals()
        rep["edges"] = tracer.edge_rows()
        rep["missing_entry_points"] = list(tracer.missing)
    return rep


def _check_pin(rig: Rig, before: Dict[str, float]) -> List[str]:
    sim = rig.sim
    goodput = (snapshot(rig)["bytes"] - before["bytes"]) * 8 / (PIN_TIME_S - WARMUP_S) / 1e6
    if sim.events_fired != PIN_EVENTS or round(goodput, 4) != PIN_GOODPUT_MBPS:
        return [
            f"pin: {sim.events_fired} events / {goodput:.4f} Mb/s at t={PIN_TIME_S}, "
            f"expected {PIN_EVENTS} / {PIN_GOODPUT_MBPS}"
        ]
    return []
