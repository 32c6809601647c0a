"""Fault-injection subsystem: plans, the injector, recovery, degradation.

Covers the resilience acceptance criteria end to end:

* fault plans are plain data — JSON round-trippable, validated, hashable;
* every fault kind injects at its scheduled window, restores the targeted
  state afterwards, and the rig *recovers* (goodput resumes, streams stay
  intact);
* the driver watchdog recovers a hung NIC without leaking or
  double-counting a single packet;
* the coalescing governor degrades/restores with real hysteresis, pays off
  under the hardware-LRO reorder pathology, and leaves the clean-wire fast
  path bit-identical;
* armed plans replay bit-identically run after run.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core.config import OptimizationConfig
from repro.faults.degradation import CoalesceGovernor
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ImpairmentConfig,
    sample_plan,
    storm_plan,
)
from repro.host.configs import linux_up_config
from repro.tcp.seqmath import seq_diff
from repro.tcp.source import InfiniteSource
from repro.workloads.stream import SERVER_PORT, build_stream_rig, run_stream_experiment

import sys

sys.path.insert(0, "tests")
from conftest import fast_config  # noqa: E402


def _server_bytes(machine) -> int:
    return sum(s.bytes_received for s in machine.kernel.sockets.values())


def _flat_drivers(machine):
    flat = []
    for entry in machine.drivers:
        flat.extend(entry if isinstance(entry, (list, tuple)) else [entry])
    return flat


def _assert_streams_intact(machine, senders) -> None:
    """Length-accounting form of §3.2 equivalence (byte-exact content is
    covered by the materialized tests below)."""
    kernel = machine.kernel
    for sender in senders:
        key = sender.conn.key.reverse()
        sock, conn = kernel.sockets[key], kernel.connections[key]
        assert sock.bytes_received == seq_diff(conn.rcv_nxt, conn.irs) - 1
        assert seq_diff(sender.conn.snd_una, sender.conn.iss) - 1 <= \
            seq_diff(conn.rcv_nxt, conn.irs) - 1


# ----------------------------------------------------------------------
# plans: validation, JSON, hashing
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = sample_plan()
        doc = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(doc) == plan

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "plan.json")
        plan = sample_plan()
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("cosmic_ray", start=0.0, duration=0.1)

    @pytest.mark.parametrize("start,duration", [(-0.1, 0.1), (0.0, 0.0), (0.0, -1.0)])
    def test_bad_window_rejected(self, start, duration):
        with pytest.raises(ValueError, match="fault window"):
            FaultSpec("corrupt", start=start, duration=duration)

    @pytest.mark.parametrize("intensity", [-0.1, 1.5])
    def test_bad_intensity_rejected(self, intensity):
        with pytest.raises(ValueError, match="intensity"):
            FaultSpec("corrupt", start=0.0, duration=0.1, intensity=intensity)

    @pytest.mark.parametrize("field,value", [("drop", 1.0), ("reorder", -0.1), ("dup", 2.0)])
    def test_bad_probability_rejected(self, field, value):
        with pytest.raises(ValueError, match="probability"):
            ImpairmentConfig(**{field: value})

    def test_horizon(self):
        assert FaultPlan().horizon == 0.0
        assert storm_plan("corrupt", 0.2, start=0.02, duration=0.05).horizon == \
            pytest.approx(0.07)

    def test_targeting(self):
        spec = FaultSpec("link_flap", start=0.0, duration=0.1, target="1")
        assert not spec.hits(0) and spec.hits(1)
        assert FaultSpec("link_flap", start=0.0, duration=0.1).hits(7)

    def test_plans_are_picklable(self):
        plan = FaultPlan(specs=[FaultSpec("corrupt", start=0.0, duration=0.1)])
        assert isinstance(plan.specs, tuple)  # list input normalized
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_any_active(self):
        assert not ImpairmentConfig().any_active
        assert ImpairmentConfig(drop=0.1).any_active
        assert ImpairmentConfig(plan=sample_plan()).any_active


# ----------------------------------------------------------------------
# every fault kind, end to end: inject -> restore -> recover
# ----------------------------------------------------------------------
_INTENSITY = {
    "loss_burst": 0.3,
    "corrupt": 0.3,
    "reorder_storm": 0.5,
    "dup_storm": 0.3,
    "ring_storm": 0.9,
    "pool_exhaust": 0.9,
    "link_flap": 1.0,
    "nic_hang": 1.0,
}


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_kind_injects_restores_and_recovers(kind):
    plan = storm_plan(kind, _INTENSITY[kind], start=0.02, duration=0.02)
    sim, machine, _clients, senders = build_stream_rig(
        fast_config(), OptimizationConfig.optimized(),
        impairments=ImpairmentConfig(plan=plan),
    )
    ring_caps = [q.ring.capacity for nic in machine.nics for q in nic.queues]
    pool_cap = machine.pool.capacity

    sim.run(until=0.05)  # past the fault window
    bytes_mid = _server_bytes(machine)
    injector = machine.fault_injector
    assert injector.stats.faults_begun == 1
    assert injector.stats.faults_ended == 1
    assert injector.stats.active == 0
    assert injector.windows[0].kind == kind

    # Injected state fully restored.
    for link in machine.links:
        assert link.up
        assert link.loss_model is None
        for attr in ("drop_prob", "reorder_prob", "dup_prob", "corrupt_prob"):
            assert getattr(link, attr) == 0.0
    assert [q.ring.capacity for nic in machine.nics for q in nic.queues] == ring_caps
    assert machine.pool.capacity == pool_cap
    assert not any(nic.hung for nic in machine.nics)

    # The rig recovers: goodput resumes after the window (run past the
    # 200 ms minimum RTO so even timeout-driven recovery completes).
    sim.run(until=0.35)
    assert _server_bytes(machine) > bytes_mid
    _assert_streams_intact(machine, senders)

    # Wire-frame conservation held through the storm.
    for link in machine.links:
        st = link.stats
        assert st.frames_sent + st.frames_duplicated == \
            st.frames_delivered + st.frames_dropped + link.in_flight
        assert link.in_flight >= 0


def test_pool_exhaust_tightens_every_numa_pool():
    """pool_exhaust starves every node-local sk_buff pool of a NUMA
    multi-queue rig, not only node 0's, and restores them all."""
    from repro.mem.hierarchy import MemConfig

    plan = storm_plan("pool_exhaust", _INTENSITY["pool_exhaust"], start=0.01, duration=0.01)
    sim, machine, _clients, _senders = build_stream_rig(
        fast_config(mem=MemConfig(nodes=2)), OptimizationConfig.optimized(), queues=2,
        impairments=ImpairmentConfig(plan=plan),
    )
    assert len(machine.pools) == 2
    caps = [pool.capacity for pool in machine.pools]
    sim.run(until=0.015)
    during = [pool.capacity for pool in machine.pools]
    assert during[0] is not None and during == [during[0]] * 2
    sim.run(until=0.03)
    assert [pool.capacity for pool in machine.pools] == caps


def test_target_selects_a_single_link():
    plan = FaultPlan(specs=(
        FaultSpec("link_flap", start=0.01, duration=0.01, target="1"),
    ))
    sim, machine, _clients, _senders = build_stream_rig(
        fast_config(), OptimizationConfig.optimized(),
        impairments=ImpairmentConfig(plan=plan),
    )
    sim.run(until=0.015)
    assert machine.links[0].up
    assert not machine.links[1].up
    sim.run(until=0.03)
    assert machine.links[1].up
    assert machine.links[1].stats.frames_dropped_link_down > 0
    assert machine.links[0].stats.frames_dropped_link_down == 0


def test_arm_is_idempotent():
    plan = storm_plan("corrupt", 0.2, start=0.01, duration=0.01)
    sim, machine, _clients, _senders = build_stream_rig(
        fast_config(), OptimizationConfig.optimized(),
        impairments=ImpairmentConfig(plan=plan),
    )
    machine.fault_injector.arm()  # second arm must not double-schedule
    sim.run(until=0.03)
    assert machine.fault_injector.stats.faults_begun == 1
    assert machine.fault_injector.stats.faults_ended == 1


# ----------------------------------------------------------------------
# driver watchdog: hung NIC detected, reset conserves every packet
# ----------------------------------------------------------------------
def test_watchdog_reset_recovers_hung_nic_without_leaking():
    plan = storm_plan("nic_hang", 1.0, start=0.02, duration=0.02)
    sim, machine, _clients, senders = build_stream_rig(
        fast_config(), OptimizationConfig.optimized(),
        impairments=ImpairmentConfig(plan=plan),
    )
    sim.run(until=0.35)

    drivers = _flat_drivers(machine)
    assert sum(d.stats.resets for d in drivers) >= 1
    assert all(d.stats.watchdog_ticks > 0 for d in drivers)
    assert not any(nic.hung for nic in machine.nics)
    for driver in drivers:
        ring = driver.queue.ring
        # Ring conservation: nothing materialized, nothing vanished.
        assert ring.posted == ring.drained + len(ring)
        # Reset conservation: every drained descriptor was either handed to
        # the stack or flushed by the reset — never both, never neither.
        assert ring.drained == driver.stats.rx_packets + driver.stats.rx_dropped_reset

    # And the connections came back.
    assert _server_bytes(machine) > 0
    _assert_streams_intact(machine, senders)


# ----------------------------------------------------------------------
# degradation governor: hysteresis unit behavior
# ----------------------------------------------------------------------
class TestCoalesceGovernor:
    def test_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            CoalesceGovernor(enter_threshold=0.1, exit_threshold=0.2)
        with pytest.raises(ValueError, match="alpha"):
            CoalesceGovernor(alpha=0.0)

    def test_enters_only_after_warmup(self):
        gov = CoalesceGovernor()
        now = 0.0
        for _ in range(gov.min_packets - 1):
            now += 1e-5
            assert not gov.observe(True, now)  # rate high, warmup gate holds
        assert gov.rate > gov.enter_threshold
        assert gov.stats.enters == 0
        now += 1e-5
        assert gov.observe(True, now)  # warmup satisfied -> degrade
        assert gov.degraded
        assert gov.stats.enters == 1

    def test_exit_requires_low_rate_and_quiet_period(self):
        gov = CoalesceGovernor()
        now = 0.0
        for _ in range(gov.min_packets):
            now += 1e-5
            gov.observe(True, now)
        assert gov.degraded
        last_disorder = now
        # Clean packets arrive fast: the EWMA decays below exit_threshold
        # long before quiet_period_s elapses -> must stay degraded.
        while gov.rate >= gov.exit_threshold:
            now += 1e-5
            assert gov.observe(False, now)
        assert now - last_disorder < gov.quiet_period_s
        # Still inside the quiet window: no exit.
        assert gov.observe(False, last_disorder + gov.quiet_period_s - 1e-6)
        # Quiet period over AND rate low: restore.
        assert not gov.observe(False, last_disorder + gov.quiet_period_s + 1e-6)
        assert not gov.degraded
        assert gov.stats.exits == 1

    def test_no_flapping_inside_a_storm(self):
        """Alternating disorder holds the EWMA between the thresholds:
        exactly one enter, zero exits — the hysteresis gap absorbs it."""
        gov = CoalesceGovernor()
        now = 0.0
        for i in range(2000):
            now += 1e-5
            gov.observe(i % 2 == 0, now)
        assert gov.stats.enters == 1
        assert gov.stats.exits == 0
        assert gov.degraded

    def test_reenters_on_second_storm(self):
        gov = CoalesceGovernor()
        now = 0.0
        for _ in range(gov.min_packets):
            now += 1e-5
            gov.observe(True, now)
        while gov.degraded:
            now += 5e-4
            gov.observe(False, now)
        for _ in range(2 * gov.min_packets):
            now += 1e-5
            gov.observe(True, now)
        assert gov.stats.enters == 2
        assert gov.stats.exits == 1
        assert gov.degraded


# ----------------------------------------------------------------------
# acceptance criterion: degradation demonstrably helps, clean wire unchanged
# ----------------------------------------------------------------------
def test_degradation_beats_forced_coalescing_under_lro_reorder():
    """Hardware LRO under a sustained reorder storm is the Wu et al.
    pathology: sessions park in-flight packets, so every out-of-order
    arrival becomes a burst plus late dupACKs.  The governor's auto-disable
    must win over coalescing forced on (measured margin is ~6x; assert a
    conservative 1.5x so the test stays robust to cost-model tuning)."""
    config = dataclasses.replace(linux_up_config(), nic_lro=True, name="Linux UP/LRO")
    imp = ImpairmentConfig(reorder=0.2, seed=971)
    opt = run_stream_experiment(
        config, OptimizationConfig.optimized(),
        duration=0.05, warmup=0.05, impairments=imp,
    )
    resil = run_stream_experiment(
        config, OptimizationConfig.resilient(),
        duration=0.05, warmup=0.05, impairments=imp,
    )
    assert resil.throughput_mbps >= 1.5 * opt.throughput_mbps


@pytest.mark.parametrize("lro", [False, True], ids=["softagg", "hw-lro"])
def test_clean_wire_resilient_is_bit_identical_to_optimized(lro):
    """With no storm the governor never trips: the resilient build must be
    indistinguishable from the optimized one — same events, same bytes."""
    config = fast_config()
    if lro:
        config = dataclasses.replace(config, nic_lro=True)
    opt = run_stream_experiment(
        config, OptimizationConfig.optimized(), duration=0.03, warmup=0.02)
    resil = run_stream_experiment(
        config, OptimizationConfig.resilient(), duration=0.03, warmup=0.02)
    assert resil.events_fired == opt.events_fired
    assert resil.throughput_mbps == opt.throughput_mbps
    assert resil.bytes_received == opt.bytes_received


# ----------------------------------------------------------------------
# byte-exact stream content through a storm (materialized payloads)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind,intensity", [("corrupt", 0.3), ("loss_burst", 0.3)])
def test_delivered_bytes_equal_sent_bytes_through_storm(kind, intensity):
    plan = storm_plan(kind, intensity, start=0.005, duration=0.01)
    sim, machine, _clients, senders = build_stream_rig(
        fast_config(), OptimizationConfig.optimized(),
        impairments=ImpairmentConfig(plan=plan), materialize=True,
    )
    received = {}

    def on_accept(sock):
        chunks = received.setdefault(sock.conn.key, [])
        sock.on_data_cb = lambda _s, payload, _n: chunks.append(payload)

    machine.listen(SERVER_PORT, on_accept=on_accept)  # install collectors
    sim.run(until=0.04)

    for j, sender in enumerate(senders):
        key = sender.conn.key.reverse()
        got = b"".join(received[key])
        sock = machine.kernel.sockets[key]
        assert len(got) == sock.bytes_received > 0
        # Source j sends pattern(seed=j); the delivered prefix must match
        # byte for byte — no corruption leaked past the checksum, no
        # retransmit delivered twice.
        assert got == InfiniteSource.pattern(0, len(got), seed=j)


# ----------------------------------------------------------------------
# determinism: an armed plan replays bit-identically
# ----------------------------------------------------------------------
def test_armed_plan_replays_bit_identically():
    def one_run():
        imp = ImpairmentConfig(drop=0.01, reorder=0.02, dup=0.01, plan=sample_plan())
        sim, machine, _clients, senders = build_stream_rig(
            fast_config(), OptimizationConfig.optimized(), impairments=imp)
        sim.run(until=0.18)
        link = machine.links[0].stats
        return (
            sim.events_fired,
            _server_bytes(machine),
            sum(s.conn.stats.retransmits for s in senders),
            link.frames_sent, link.frames_dropped, link.frames_corrupted,
            link.frames_reordered, link.frames_duplicated,
            link.frames_dropped_burst, link.frames_dropped_link_down,
        )

    assert one_run() == one_run()


# ----------------------------------------------------------------------
# plumbing: experiments that cannot honor impairments reject them
# ----------------------------------------------------------------------
def test_experiments_without_impairment_support_reject_loudly():
    from repro.experiments.runner import run_experiment

    with pytest.raises(ValueError, match="does not take wire impairments"):
        run_experiment("figure3", quick=True,
                       impairments=ImpairmentConfig(drop=0.01))


# ----------------------------------------------------------------------
# plan validation: semantic lint + the `repro.faults validate` CLI
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_sample_plan_is_clean(self):
        from repro.faults.plan import validate_plan

        assert validate_plan(sample_plan()) == []

    def test_empty_plan_flagged(self):
        from repro.faults.plan import validate_plan

        assert any("no fault windows" in p for p in validate_plan(FaultPlan()))

    def test_overlapping_same_kind_windows_flagged(self):
        from repro.faults.plan import validate_plan

        plan = FaultPlan(specs=(
            FaultSpec("corrupt", start=0.00, duration=0.10),
            FaultSpec("corrupt", start=0.05, duration=0.10),
        ))
        assert any("overlapping" in p for p in validate_plan(plan))

    def test_overlapping_different_targets_ok(self):
        from repro.faults.plan import validate_plan

        plan = FaultPlan(specs=(
            FaultSpec("corrupt", start=0.00, duration=0.10, target="0"),
            FaultSpec("corrupt", start=0.05, duration=0.10, target="1"),
        ))
        assert validate_plan(plan) == []

    def test_bad_target_flagged(self):
        from repro.faults.plan import validate_plan

        plan = FaultPlan(specs=(
            FaultSpec("link_flap", start=0.0, duration=0.1, target="eth0"),
        ))
        assert any("target" in p for p in validate_plan(plan))

    def test_noop_intensity_flagged(self):
        from repro.faults.plan import validate_plan

        plan = FaultPlan(specs=(
            FaultSpec("corrupt", start=0.0, duration=0.1, intensity=0.0),
        ))
        assert any("inject nothing" in p for p in validate_plan(plan))

    def test_load_plan_file_names_offending_entry(self, tmp_path):
        from repro.faults.plan import PlanFileError, load_plan_file

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "corrupt", "start": 0.0, "duration": 0.1},
            {"kind": "cosmic_ray", "start": 0.0, "duration": 0.1},
        ]}))
        with pytest.raises(PlanFileError, match="fault #1"):
            load_plan_file(str(path))
        path.write_text("{not json")
        with pytest.raises(PlanFileError, match="not valid JSON"):
            load_plan_file(str(path))
        path.write_text(json.dumps({"faults": [{"kind": "corrupt"}]}))
        with pytest.raises(PlanFileError, match="missing start, duration"):
            load_plan_file(str(path))

    def test_validate_cli_exit_codes(self, tmp_path):
        from repro.faults.__main__ import main

        clean = tmp_path / "clean.json"
        sample_plan().dump(str(clean))
        assert main(["validate", str(clean)]) == 0

        problems = tmp_path / "problems.json"
        problems.write_text('{"faults": []}')
        assert main(["validate", str(problems)]) == 1

        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["validate", str(broken)]) == 2

    def test_checked_in_sample_plan_is_clean(self):
        from repro.faults.plan import load_plan_file, validate_plan

        plan = load_plan_file("examples/fault_plan.json")
        assert plan == sample_plan()
        assert validate_plan(plan) == []


# ----------------------------------------------------------------------
# three-mode governor: coalesce -> sort-and-coalesce -> disable
# ----------------------------------------------------------------------
class TestThreeModeGovernor:
    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError, match="sort-tier hysteresis"):
            CoalesceGovernor(disable_threshold=0.2)  # below enter_threshold

    def test_full_transition_cycle(self):
        from repro.faults.degradation import (
            MODE_COALESCE,
            MODE_DISABLE,
            MODE_SORT,
        )

        gov = CoalesceGovernor(min_packets=1)
        gov.enable_sort()
        now = 0.0
        # Storm begins: first tier is the sort stage, not disable.
        while gov.mode == MODE_COALESCE:
            now += 1e-5
            gov.observe(True, now)
        assert gov.mode == MODE_SORT and not gov.degraded
        assert gov.stats.sort_enters == 1 and gov.stats.enters == 0
        # Disorder keeps saturating: sorting can't help, fall back.
        while gov.mode == MODE_SORT:
            now += 1e-5
            gov.observe(True, now)
        assert gov.mode == MODE_DISABLE and gov.degraded
        assert gov.stats.enters == 1
        # Calms below disable_exit (plus dwell): resume sorting.
        while gov.mode == MODE_DISABLE:
            now += 1e-4
            gov.observe(False, now)
        assert gov.mode == MODE_SORT and not gov.degraded
        assert gov.stats.exits == 1
        # Fully quiet: back to plain coalescing.
        while gov.mode == MODE_SORT:
            now += 1e-3
            gov.observe(False, now)
        assert gov.mode == MODE_COALESCE
        assert gov.stats.sort_exits == 1
        assert gov.stats.mode_transitions == 4

    def test_two_mode_policy_counters_cross_both_boundaries(self):
        gov = CoalesceGovernor(min_packets=1)  # no enable_sort: two-mode
        now = 0.0
        while not gov.degraded:
            now += 1e-5
            gov.observe(True, now)
        assert gov.mode == 2
        assert gov.stats.enters == 1 and gov.stats.sort_enters == 1
        assert gov.stats.mode_transitions == 1


# ----------------------------------------------------------------------
# reorder-repair buffer: unit behavior of every release rule
# ----------------------------------------------------------------------
class TestReorderRepairBuffer:
    def _rig(self, depth=4, hold_window_s=1e-3):
        from repro.core.config import RepairConfig
        from repro.cpu.cpu import Cpu
        from repro.faults.degradation import MODE_SORT
        from repro.faults.repair import ReorderRepairBuffer
        from repro.sim.engine import Simulator

        cfg = linux_up_config()
        sim = Simulator()
        cpu = Cpu(sim, cfg.cpu_freq_hz, costs=cfg.costs, name="repair-cpu")
        governor = CoalesceGovernor()
        released = []
        repair = ReorderRepairBuffer(
            cpu=cpu,
            config=RepairConfig(depth=depth, hold_window_s=hold_window_s),
            governor=governor,
            sink=lambda pkts: released.extend(pkts),
            name="unit-repair",
        )
        # Pin the governor mid-sort: rate well inside the hysteresis band so
        # a handful of clean observes can't transition it out.
        governor.mode = MODE_SORT
        governor.rate = 0.5
        return sim, cpu, repair, governor, released

    @staticmethod
    def _seg(seq, payload_len=100, flags=None):
        from repro.net.packet import make_data_segment
        from repro.net.tcp_header import TcpFlags

        pkt = make_data_segment(
            src_ip=0x0A000002, dst_ip=0x0A000001,
            src_port=40000, dst_port=SERVER_PORT,
            seq=seq, ack=1, payload_len=payload_len,
            flags=flags if flags is not None else TcpFlags.ACK,
        )
        pkt.csum_verified = True
        return pkt

    def test_in_order_frames_pass_through_unheld(self):
        sim, _cpu, repair, _gov, _released = self._rig()
        out = repair.process([self._seg(0), self._seg(100)], sim.now)
        assert [p.tcp.seq for p in out] == [0, 100]
        assert repair.occupancy == 0 and repair.stats.holds == 0
        assert repair.stats.frames_in == repair.stats.frames_out == 2

    def test_gap_fill_releases_held_run_in_sequence(self):
        sim, _cpu, repair, _gov, _released = self._rig()
        assert [p.tcp.seq for p in repair.process([self._seg(0)], sim.now)] == [0]
        # Two future frames arrive scrambled while seq 100 is missing.
        assert repair.process([self._seg(300)], sim.now) == []
        assert repair.process([self._seg(200)], sim.now) == []
        assert repair.occupancy == 2
        out = repair.process([self._seg(100)], sim.now)
        assert [p.tcp.seq for p in out] == [100, 200, 300]
        assert repair.stats.releases_in_order == 2
        assert repair.occupancy == 0
        assert repair.stats.frames_in == repair.stats.frames_out == 4

    def test_repair_work_is_charged_to_the_repair_category(self):
        from repro.cpu.categories import Category

        sim, cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(200)], sim.now)  # held
        repair.process([self._seg(100)], sim.now)  # gap fill + release
        assert cpu.profiler.cycles[Category.REPAIR] > 0

    def test_overflow_drains_whole_run_in_sequence(self):
        sim, _cpu, repair, _gov, _released = self._rig(depth=2)
        repair.process([self._seg(0)], sim.now)
        assert repair.process([self._seg(400), self._seg(300)], sim.now) == []
        # Third hold exceeds depth=2: the gap is declared lost, the whole
        # run releases in sequence order.
        out = repair.process([self._seg(200)], sim.now)
        assert [p.tcp.seq for p in out] == [200, 300, 400]
        assert repair.stats.releases_overflow == 3
        assert repair.occupancy == 0
        # The run's end was adopted: the next contiguous frame passes.
        assert [p.tcp.seq for p in repair.process([self._seg(500)], sim.now)] == [500]

    def test_deadline_releases_parked_frames_through_the_sink(self):
        sim, _cpu, repair, _gov, released = self._rig(hold_window_s=1e-4)
        repair.process([self._seg(0)], sim.now)
        assert repair.process([self._seg(200)], sim.now) == []
        assert repair.occupancy == 1
        sim.run(until=0.01)  # the hold window matures on the timer
        assert [p.tcp.seq for p in released] == [200]
        assert repair.stats.deadline_fires == 1
        assert repair.stats.releases_deadline == 1
        assert repair.occupancy == 0
        assert repair.stats.frames_in == repair.stats.frames_out == 2
        assert repair.stats.max_hold_ns >= int(1e-4 * 1e9)

    def test_gap_fill_cancels_the_deadline(self):
        sim, _cpu, repair, _gov, released = self._rig(hold_window_s=1e-4)
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(200)], sim.now)
        repair.process([self._seg(100)], sim.now)  # fills the gap
        sim.run(until=0.01)  # matured timer must be a stale-episode no-op
        assert released == []
        assert repair.stats.deadline_fires == 0
        assert repair.stats.releases_deadline == 0

    def test_control_frame_flushes_held_data_ahead_of_itself(self):
        from repro.net.tcp_header import TcpFlags

        sim, _cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(200)], sim.now)
        fin = self._seg(100, flags=TcpFlags.ACK | TcpFlags.FIN)
        out = repair.process([fin], sim.now)
        # Held data first (ordering), then the control frame.
        assert [p.tcp.seq for p in out] == [200, 100]
        assert repair.stats.releases_flush == 1
        assert repair.occupancy == 0

    def test_pure_ack_flushes_and_passes(self):
        sim, _cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(200)], sim.now)
        out = repair.process([self._seg(100, payload_len=0)], sim.now)
        assert [p.tcp.seq for p in out] == [200, 100]
        assert repair.stats.releases_flush == 1

    def test_old_duplicate_passes_without_holding(self):
        sim, _cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0), self._seg(100)], sim.now)
        out = repair.process([self._seg(0)], sim.now)  # retransmit overlap
        assert [p.tcp.seq for p in out] == [0]
        assert repair.occupancy == 0 and repair.stats.holds == 0

    def test_duplicate_of_held_frame_passes_without_double_parking(self):
        """An RTO retransmit of a frame already parked behind the gap must
        pass through, not occupy a second slot: the buffer holds at most
        one copy of any segment (strictly increasing sequence order is a
        sanitizer invariant), and releasing two copies of the same bytes
        from one buffer would be a conservation lie."""
        sim, _cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)          # release point at 100
        repair.process([self._seg(300)], sim.now)        # parked behind the gap
        assert repair.occupancy == 1
        out = repair.process([self._seg(300)], sim.now)  # RTO fires: same frame again
        assert [p.tcp.seq for p in out] == [300]         # dup passes, original stays
        assert repair.occupancy == 1 and repair.stats.holds == 1
        # The gap fill releases the single parked copy exactly once.
        out = repair.process([self._seg(100), self._seg(200)], sim.now)
        assert [p.tcp.seq for p in out] == [100, 200, 300]
        assert repair.occupancy == 0
        assert repair.stats.frames_in == repair.stats.frames_out == 5

    def test_mode_change_flushes_parked_frames(self):
        from repro.faults.degradation import MODE_COALESCE

        sim, _cpu, repair, gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(200)], sim.now)
        gov.mode = MODE_COALESCE  # e.g. another queue's signal on a shared governor
        out = repair.process([self._seg(300)], sim.now)
        assert [p.tcp.seq for p in out] == [200, 300]
        assert repair.occupancy == 0

    def test_flush_returns_everything_for_driver_reset(self):
        sim, _cpu, repair, _gov, _released = self._rig()
        repair.process([self._seg(0)], sim.now)
        repair.process([self._seg(300), self._seg(200)], sim.now)
        out = repair.flush()
        assert [p.tcp.seq for p in out] == [200, 300]
        assert repair.occupancy == 0
        assert repair.stats.frames_in == repair.stats.frames_out == 3


# ----------------------------------------------------------------------
# sort-and-coalesce end to end: exact bytes through every fault kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_repair_delivers_exact_bytes_through_every_fault_kind(kind):
    """§3.2 equivalence with the repair stage in the path: whatever the
    storm, every byte the application sees is the byte the sender sent —
    no duplicate, scrambled, or corrupted delivery."""
    plan = storm_plan(kind, _INTENSITY[kind], start=0.005, duration=0.01)
    sim, machine, _clients, senders = build_stream_rig(
        fast_config(), OptimizationConfig.resilient(repair=True),
        impairments=ImpairmentConfig(plan=plan), materialize=True,
    )
    received = {}

    def on_accept(sock):
        chunks = received.setdefault(sock.conn.key, [])
        sock.on_data_cb = lambda _s, payload, _n: chunks.append(payload)

    machine.listen(SERVER_PORT, on_accept=on_accept)
    sim.run(until=0.1)

    for j, sender in enumerate(senders):
        key = sender.conn.key.reverse()
        got = b"".join(received[key])
        sock = machine.kernel.sockets[key]
        assert len(got) == sock.bytes_received > 0
        assert got == InfiniteSource.pattern(0, len(got), seed=j)
    _assert_streams_intact(machine, senders)
    # Repair conservation held end to end.
    for repair in machine.repairs:
        assert repair.stats.frames_in == repair.stats.frames_out + repair.occupancy


def test_armed_plan_with_repair_replays_bit_identically():
    def one_run():
        imp = ImpairmentConfig(drop=0.01, reorder=0.02, dup=0.01, plan=sample_plan())
        sim, machine, _clients, senders = build_stream_rig(
            fast_config(), OptimizationConfig.resilient(repair=True),
            impairments=imp,
        )
        sim.run(until=0.18)
        stats = machine.repairs[0].stats
        return (
            sim.events_fired,
            _server_bytes(machine),
            sum(s.conn.stats.retransmits for s in senders),
            stats.frames_in, stats.frames_out, stats.holds,
            stats.releases_in_order, stats.releases_deadline,
            stats.releases_overflow, stats.releases_flush,
            stats.deadline_fires, stats.max_hold_ns,
            machine.governors[0].stats.mode_transitions,
        )

    assert one_run() == one_run()


@pytest.mark.parametrize("lro", [False, True], ids=["softagg", "hw-lro"])
def test_clean_wire_repair_is_bit_identical_to_optimized(lro):
    """With no storm the repair stage is a free observe-only pass-through:
    the sort-and-coalesce build must be indistinguishable from the
    optimized one — same events, same bytes."""
    config = fast_config()
    if lro:
        config = dataclasses.replace(config, nic_lro=True)
    opt = run_stream_experiment(
        config, OptimizationConfig.optimized(), duration=0.03, warmup=0.02)
    rep = run_stream_experiment(
        config, OptimizationConfig.resilient(repair=True),
        duration=0.03, warmup=0.02)
    assert rep.events_fired == opt.events_fired
    assert rep.throughput_mbps == opt.throughput_mbps
    assert rep.bytes_received == opt.bytes_received


def test_sort_and_coalesce_beats_auto_disable_under_reorder_storm():
    """The tentpole claim: under the LRO reorder pathology, sorting frames
    back into sequence inside the coalescing window beats switching
    coalescing off (measured margin is ~3x; assert a conservative 1.8x)."""
    config = dataclasses.replace(linux_up_config(), nic_lro=True, name="Linux UP/LRO")
    imp = ImpairmentConfig(reorder=0.3, seed=971)
    disable = run_stream_experiment(
        config, OptimizationConfig.resilient(),
        duration=0.05, warmup=0.05, impairments=imp,
    )
    sort = run_stream_experiment(
        config, OptimizationConfig.resilient(repair=True),
        duration=0.05, warmup=0.05, impairments=imp,
    )
    assert sort.throughput_mbps >= 1.8 * disable.throughput_mbps
