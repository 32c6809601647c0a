"""One measured repetition in a fresh process; prints its result as JSON.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N [--trace]``

``run.py`` starts one of these per repetition, so no run inherits another's
heap, garbage-collector state or peak resident memory.
"""

from hostclock import HostClock

CLOCK = HostClock()
T_START = CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    rep = workloads.run_rep(args.workload, args.seed, tracer=tracer, clock=CLOCK, t_start=T_START)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
