"""Host time scaled to a reference host speed.

On a shared machine the same code can run half as fast for minutes at a
time, while another tenant loads the core this one shares hardware with;
raw host timings of a run then say more about the neighbours than about
the simulator.  The clock therefore times a fixed pure-Python probe around
every timed segment and scales the segment by ``REFERENCE_PROBE_S`` over
the probe's time: a segment's reference time is what it would have taken
at the speed the probe had on an idle core.  On an idle host the scale is
about 1.

The probe does the kind of work the simulator does (method calls, slot
attribute updates, dict reads and writes, integer arithmetic) and, like it,
allocates nothing the garbage collector tracks.  It does not touch the
program, so a faster or slower simulator moves the scaled times exactly as
it moves the raw ones.
"""

from __future__ import annotations

import time

#: The probe's time on an idle core of the 2-vCPU x86-64 container the
#: benchmark was written on (Python 3.11).
REFERENCE_PROBE_S = 140e-6
_PROBE_STEPS = 600


class _Probe:
    __slots__ = ("table", "total")

    def __init__(self) -> None:
        self.table = {key: 0 for key in range(16)}
        self.total = 0

    def step(self, i: int) -> int:
        table = self.table
        key = i & 15
        table[key] = (table[key] + i) & 0xFFFF
        self.total = (self.total + (i ^ (i >> 3))) & 0xFFFF
        return self.total & 1

    def run(self) -> int:
        acc = 0
        step = self.step
        for i in range(_PROBE_STEPS):
            acc += step(i)
        return acc


class HostClock:
    """Times segments of host work in reference seconds.

    A segment is scaled by the reference over the mean of the probe times
    just before and just after it, so a slowdown that starts or ends inside
    the segment is half seen; the probe after one segment is the probe
    before the next.
    """

    def __init__(self) -> None:
        self._probe = _Probe()
        self._probe.run()  # let the interpreter specialise the probe first
        self._before = None
        #: Raw and scaled seconds of every segment timed so far.
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _probe_s(self) -> float:
        t0 = time.perf_counter()
        self._probe.run()
        return time.perf_counter() - t0

    def start(self) -> float:
        """Probe (unless the last ``stop`` just did), then return the
        segment's start time."""
        if self._before is None:
            self._before = self._probe_s()
        return time.perf_counter()

    def stop(self, start: float) -> float:
        """Reference seconds since ``start``."""
        raw = time.perf_counter() - start
        after = self._probe_s()
        scaled = raw * 2 * REFERENCE_PROBE_S / (self._before + after)
        self._before = after
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled

    def slowdown(self) -> float:
        """Raw over scaled seconds: how much slower than the reference the
        host ran while the segments were timed."""
        return self.raw_s / self.scaled_s if self.scaled_s else 1.0
