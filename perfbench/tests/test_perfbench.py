"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import ENTRY_POINTS, LAYERS, Tracer  # noqa: E402

#: The workload each layer is meant to be exercised by.
EXERCISED_BY = {layer: "bulk-up" for layer in LAYERS}
EXERCISED_BY.update(faults="reorder-mq4", mq="reorder-mq4")


def traced_rep(workload, seed=1):
    tracer = Tracer()
    tracer.install()
    try:
        return workloads.run_rep(workload, seed, tracer=tracer)
    finally:
        tracer.uninstall()


def calls(rep):
    return {layer: totals["calls"] for layer, totals in rep["layers"].items()}


@pytest.fixture(scope="module")
def bulk_reps():
    untraced = workloads.run_rep("bulk-up", 1)
    return untraced, traced_rep("bulk-up"), traced_rep("bulk-up")


@pytest.fixture(scope="module")
def mq_rep():
    return traced_rep("reorder-mq4")


def test_every_entry_point_exists():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
    assert {layer for layer, *_ in ENTRY_POINTS} | {"tcp.sender", "tcp.receiver"} >= set(LAYERS)


def test_uninstall_restores_the_classes():
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["call_at"]
    tracer = Tracer()
    tracer.install()
    assert Simulator.__dict__["call_at"] is not original
    tracer.uninstall()
    assert Simulator.__dict__["call_at"] is original


def test_exact_counts_repeat_across_traced_runs(bulk_reps):
    _, first, second = bulk_reps
    assert calls(first) == calls(second)
    assert first["counters"] == second["counters"]
    assert first["window"] == second["window"]


def test_tracing_does_not_change_simulated_outputs(bulk_reps):
    untraced, traced, _ = bulk_reps
    assert traced["window"] == untraced["window"]
    assert traced["sim"] == untraced["sim"]
    assert untraced["failures"] == [] and traced["failures"] == []


def test_reorder_run_is_checked_and_traced_neutrally(mq_rep):
    assert mq_rep["failures"] == []
    assert mq_rep["window"] == workloads.run_rep("reorder-mq4", 1)["window"]


def test_every_layer_records_calls_where_it_is_exercised(bulk_reps, mq_rep):
    reps = {"bulk-up": bulk_reps[1], "reorder-mq4": mq_rep}
    for layer, workload in EXERCISED_BY.items():
        totals = reps[workload]["layers"][layer]
        assert totals["calls"] > 0 and totals["self_s"] > 0, (layer, workload)


def test_faults_and_mq_are_never_called_on_bulk_up(bulk_reps):
    layers = bulk_reps[1]["layers"]
    for layer in ("faults", "mq"):
        assert layers[layer] == {"calls": 0, "self_s": 0.0}
    counters = bulk_reps[1]["counters"]
    assert counters["faults.repair_holds_per_kpkt"] == 0
    assert counters["faults.governor_transitions"] == 0


def test_self_times_cover_the_traced_window(bulk_reps):
    traced = bulk_reps[1]
    total_self = sum(t["self_s"] for t in traced["layers"].values())
    assert 0.9 * traced["host"]["window_raw_s"] < total_self <= traced["host"]["window_raw_s"]


def test_tcp_split_follows_the_connection_owner(bulk_reps):
    edges = bulk_reps[1]["edges"]
    callers = {(e["caller"], e["callee"]) for e in edges}
    assert ("client", "tcp.sender") in callers
    assert ("client", "tcp.receiver") not in callers
    assert ("host", "tcp.receiver") in callers
    assert ("host", "tcp.sender") not in callers


def test_output_checks_can_fail():
    rig = workloads.build("bulk-up", 1)
    rig.sim.run(until=0.02)
    assert workloads.check_outputs(rig) == []
    rig.machine.pool.stats.frees += 1
    assert any("pool" in f for f in workloads.check_outputs(rig))
    rig.machine.pool.stats.frees -= 1
    sock = next(iter(rig.machine.kernel.sockets.values()))
    sock.bytes_received += 1
    assert any("delivered" in f for f in workloads.check_outputs(rig))


def test_runs_of_one_seed_must_agree():
    rep = {"seed": 6, "failures": [], "window": {"events": 1}, "sim": {"x": 1.0}, "traced": False}
    other_seed = dict(rep, seed=7, window={"events": 2})
    rerun = dict(rep, window={"events": 2})
    problems = run.mismatches([rep, other_seed, rerun])
    assert len(problems) == 1 and rerun["failed"]
    assert not rep["failed"] and not other_seed["failed"]


def test_seed_sets_are_disjoint():
    sets = [set(run.workload_seeds(seed)) for seed in range(20)]
    assert all(len(s) == run.SEEDS_PER_RUN for s in sets)
    assert len(set().union(*sets)) == 20 * run.SEEDS_PER_RUN


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    spec = json.loads((HERE / "spec.json").read_text())
    assert list(spec["workloads"]) == list(workloads.WORKLOADS)
    assert spec["seeds"]["default"] != spec["seeds"]["held_out"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-up", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_reports_every_metric_of_its_section(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-up", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench[section]
    }
    assert "failed_share" in proc.stdout


def test_host_clock_scales_segments_by_the_probe(monkeypatch):
    import hostclock

    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_PROBE_S
    # A probe at twice the reference time, a 1 s segment, a probe at four
    # times the reference time: the segment ran at a third of the speed.
    ticks = iter([0.0, 2 * ref, 10.0, 11.0, 20.0, 20.0 + 4 * ref])
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: next(ticks))
    start = clock.start()
    assert clock.stop(start) == pytest.approx(1 / 3)
    assert clock.slowdown() == pytest.approx(3.0)
