"""The simulator's benchmark: one workload, several fresh-process repetitions.

Usage::

    python3 perfbench/run.py --workload bulk-up --seed 1 --seconds 15 --trace 0

A run's ``--seed`` names a set of SEEDS_PER_RUN workload seeds.  On
``rpc-churn-10k`` the simulated outputs of one seed differ from another's
by about 5%, and the difference persists however long the window runs; a
run therefore averages its simulated metrics over the whole set, so that
runs with different ``--seed`` agree closely.

``--trace 0`` starts repetitions one after another (never in parallel), each
in a fresh process, cycling through the seed set until every seed has run,
the first has run twice, and ``--seconds`` have passed, and reports the
end-to-end metrics (see ``end_to_end``).  ``--trace 1`` runs the set's
first seed once untraced and twice traced, and reports the per-layer
metrics; its aggregated span tree is written to ``.perfbench/``.  Host
times are in reference seconds of ``hostclock.HostClock``.

Every repetition's outputs are checked (see ``workloads.check_outputs``);
repetitions of one workload seed must also agree exactly on every simulated
output and, when traced, on every call count.  Human-readable lines come first;
the last line of standard output is the JSON result.  Exit status 2 means
the program could not be found or run: no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import LAYERS  # noqa: E402
from workloads import CATEGORIES, WORKLOADS  # noqa: E402

#: Every run ends within this many host seconds.
DEADLINE_S = 170.0
SEEDS_PER_RUN = 4
MAX_REPS = 40


def workload_seeds(seed: int) -> List[int]:
    """The workload seeds a run's ``--seed`` names; disjoint across seeds."""
    return [seed * SEEDS_PER_RUN + i for i in range(SEEDS_PER_RUN)]


#: End-to-end metric -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_pkts_per_s": "1/s",
    "slice_ms.p50": "ms",
    "slice_ms.p90": "ms",
    "peak_rss_mib": "MiB",
    "sim_goodput_mbps": "Mb/s",
    "sim_cycles_per_pkt": "cycles",
}
#: Reported only on the workloads named, and on the human-readable lines.
WORKLOAD_ONLY = {"sim_rpcs_per_s": ("1/s", "rpc-churn-10k"), "paper_err_pct": ("%", "bulk-up")}

COUNTER_UNITS = {
    "sim.events_per_pkt": "events/pkt",
    "sim.wheel_inserts_per_pkt": "inserts/pkt",
    "nic.ring_drop_share": "ratio",
    "nic.pkts_per_interrupt": "pkts/irq",
    "core.aggregation_degree": "pkts/hostpkt",
    "core.acks_per_pkt": "acks/pkt",
    "faults.repair_holds_per_kpkt": "holds/kpkt",
    "faults.governor_transitions": "count",
    "buffers.slab_recycle_share": "ratio",
    "tcp.retransmits_per_kpkt": "rtx/kpkt",
    "cpu.utilization": "ratio",
}
COUNTER_UNITS.update({"cpu.cycles_per_pkt." + cat: "cycles/pkt" for cat in CATEGORIES})


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[layer + ".calls_per_pkt"] = "calls/pkt"
        units[layer + ".self_us_per_pkt"] = "us/pkt"
    units.update(COUNTER_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class ProgramError(RuntimeError):
    """The program under test could not be run."""


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh process; raises ProgramError if it fails."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"repetition exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise ProgramError(f"repetition exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mismatches(reps: List[dict]) -> List[str]:
    """Per-repetition failures: its own checks, plus exact agreement of its
    simulated outputs with the first repetition of its workload seed and,
    when traced, of its call counts with the first traced repetition.
    Marks each repetition's ``failed``."""
    first: Dict[int, dict] = {}
    first_traced = None
    out = []
    for i, rep in enumerate(reps):
        problems = list(rep["failures"])
        ref = first.setdefault(rep["seed"], rep)
        if rep["window"] != ref["window"] or rep["sim"] != ref["sim"]:
            problems.append(f"simulated outputs differ from the first repetition of seed {rep['seed']}")
        if rep["traced"]:
            first_traced = first_traced or rep
            calls = {k: v["calls"] for k, v in rep["layers"].items()}
            if calls != {k: v["calls"] for k, v in first_traced["layers"].items()}:
                problems.append("call counts differ from the first traced repetition")
        out.extend(f"repetition {i} (seed {rep['seed']}): {p}" for p in problems)
        rep["failed"] = bool(problems)
    return out


def end_to_end(workload: str, reps: List[dict]) -> Dict[str, Tuple[float, str, int]]:
    """name -> (value, unit, samples).

    Per-repetition host times are medians over the repetitions; slice
    percentiles and the packet rate pool the windows of all repetitions;
    simulated metrics are means over the distinct workload seeds.
    """
    n = len(reps)
    by_seed = list({rep["seed"]: rep for rep in reversed(reps)}.values())
    slices = [t for rep in reps for t in rep["host"]["slices_ms"]]
    values = {
        name: (statistics.median(rep["host"][name] for rep in reps), n)
        for name in ("wall_s", "setup_s", "peak_rss_mib")
    }
    values["sim_pkts_per_s"] = (
        sum(rep["window"]["wire_pkts"] for rep in reps) / sum(rep["host"]["window_s"] for rep in reps), n
    )
    values["slice_ms.p50"] = (statistics.median(slices), len(slices))
    values["slice_ms.p90"] = (percentile(slices, 0.9), len(slices))
    names = list(END_TO_END) + [name for name, (_, only) in WORKLOAD_ONLY.items() if only == workload]
    for name in names:
        if name not in values:
            values[name] = (statistics.fmean(rep["sim"][name] for rep in by_seed), len(by_seed))
    units = dict(END_TO_END, **{name: unit for name, (unit, _) in WORKLOAD_ONLY.items()})
    return {name: (values[name][0], units[name], values[name][1]) for name in names}


def per_layer(untraced: dict, traced: List[dict]) -> Dict[str, Tuple[float, str, int]]:
    units = per_layer_units()
    pkts = max(1, traced[0]["window"]["wire_pkts"])
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls_per_pkt"] = traced[0]["layers"][layer]["calls"] / pkts
        # Span times are raw; scale them like the window they fall in.
        metrics[layer + ".self_us_per_pkt"] = statistics.median(
            rep["layers"][layer]["self_s"] * rep["host"]["window_s"] / rep["host"]["window_raw_s"]
            for rep in traced
        ) / pkts * 1e6
    metrics.update(untraced["counters"])
    metrics["trace.overhead_ratio"] = (
        statistics.median(rep["host"]["window_s"] for rep in traced) / untraced["host"]["window_s"]
    )
    return {name: (metrics[name], units[name], len(traced)) for name in units}


def write_trace(workload: str, seed: int, traced: List[dict]) -> Path:
    """Write the traced repetitions' span aggregates, once, at the end."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    body = [
        {"layers": rep["layers"], "edges": rep["edges"], "window": rep["window"],
         "missing_entry_points": rep["missing_entry_points"]}
        for rep in traced
    ]
    path.write_text(json.dumps(body, indent=1))
    return path


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seeds = workload_seeds(args.seed)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            reps = [run_rep(args.workload, seeds[0], traced, deadline) for traced in (False, True, True)]
        else:
            reps = []
            stop = time.monotonic() + args.seconds
            while len(reps) <= len(seeds) or (time.monotonic() < stop and len(reps) < MAX_REPS):
                reps.append(run_rep(args.workload, seeds[len(reps) % len(seeds)], False, deadline))
    except ProgramError as exc:
        print(exc, file=sys.stderr)
        return 2

    traced = [rep for rep in reps if rep["traced"]]
    problems = mismatches(reps)
    failed = sum(rep["failed"] for rep in reps)
    for line in problems:
        print(f"FAILED {line}")

    if args.trace:
        metrics = per_layer(reps[0], traced)
        path = write_trace(args.workload, args.seed, traced)
        for missing in traced[0]["missing_entry_points"]:
            print(f"warning: entry point {missing} not found; its layer is under-counted", file=sys.stderr)
        print(f"{args.workload} seed {args.seed} (workload seed {seeds[0]}): per-layer metrics from "
              f"{len(traced)} traced repetitions (span tree in {path.relative_to(ROOT)})")
    else:
        metrics = end_to_end(args.workload, reps)
        print(f"{args.workload} seed {args.seed} (workload seeds {seeds[0]}..{seeds[-1]}): "
              f"{len(reps)} fresh-process repetitions")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit:13s} n={samples}")
    print(f"  {'failed_share':34s} {failed / len(reps):16.6f} {'ratio':13s} n={len(reps)}")
    slowdown = statistics.median(rep["host"]["slowdown"] for rep in reps)
    print(f"  host ran {slowdown:.3f}x slower than the reference speed; times above are scaled to it")

    reported = set(END_TO_END) if not args.trace else set(per_layer_units())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items() if name in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
