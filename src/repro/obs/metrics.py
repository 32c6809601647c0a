"""Central metrics registry: counters, gauges, and log2-bucket histograms.

The paper's evidence base is counters — ``ethtool -S`` rings, ``/proc/net/snmp``
protocol totals, OProfile samples.  This module is the simulation's analogue:
one enumerable registry that every subsystem (NIC rings, LRO, aggregation,
steering, TCP connections) registers into, replacing grep-for-the-stat-field
with a single exportable surface.

Metric kinds
------------
* :class:`Counter` — monotonically increasing total, incremented on the hot
  path (``c.inc()`` is one attribute add).
* :class:`Gauge` — a point-in-time value.  A gauge may wrap a *callback*
  (``fn``), in which case reading it pulls the value from the owning object
  lazily — this is how existing stat fields (``ring.posted``,
  ``stats.rx_frames``, ``reno.cwnd``) join the registry with zero hot-path
  cost: nothing is written twice, the registry reads the field at
  collection/sampling time.
* :class:`Log2Histogram` — power-of-two bucketed distribution (merge sizes,
  span latencies in nanoseconds), the classic kernel ``histogram:log2``.

Naming convention (see DESIGN.md §8): dotted lowercase path
``<subsystem>.<instance>.<field>`` — e.g. ``nic.server-eth0.q0.ring.posted``,
``aggr.server-aggr.merge_size``, ``tcp.10.0.1.1:33000.cwnd``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def read(self):
        return self.value


class Gauge:
    """A point-in-time value, either set directly or read via callback."""

    __slots__ = ("name", "value", "fn")
    kind = "gauge"

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def read(self):
        if self.fn is not None:
            return self.fn()
        return self.value


class Log2Histogram:
    """Power-of-two bucketed histogram of non-negative values.

    Bucket ``i`` holds values ``v`` with ``2**(i-1) <= v < 2**i`` (bucket 0
    holds zeros), i.e. the bucket index is ``int(v).bit_length()``.
    """

    __slots__ = ("name", "counts", "total", "sum")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.counts: List[int] = []
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        iv = int(value)
        if iv < 0:
            iv = 0
        idx = iv.bit_length()
        counts = self.counts
        if idx >= len(counts):
            counts.extend([0] * (idx + 1 - len(counts)))
        counts[idx] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        if self.total == 0:
            return 0.0
        return self.sum / self.total

    def quantile(self, q: float) -> float:
        """Deterministic q-quantile estimate (0 <= q <= 1).

        Finds the bucket holding the ceil(q * total)-th sample and
        interpolates linearly within its [lo, hi) range by the sample's
        rank inside the bucket — pure integer bucket math plus one
        division, so seeded reruns reproduce the value bit-exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.total == 0:
            return 0.0
        # 1-based rank of the target sample under the nearest-rank rule.
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for idx, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                lo = 0.0 if idx == 0 else float(2 ** (idx - 1))
                hi = 1.0 if idx == 0 else float(2 ** idx)
                within = rank - seen  # 1..count
                return lo + (hi - lo) * (within / count)
            seen += count
        return float(2 ** (len(self.counts) - 1))  # pragma: no cover

    def buckets(self) -> List[Dict[str, float]]:
        """Non-empty buckets as ``{lo, hi, count}`` rows (hi exclusive)."""
        rows = []
        for idx, count in enumerate(self.counts):
            if count == 0:
                continue
            lo = 0 if idx == 0 else 2 ** (idx - 1)
            hi = 1 if idx == 0 else 2 ** idx
            rows.append({"lo": lo, "hi": hi, "count": count})
        return rows

    def read(self):
        return {
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": self.buckets(),
        }


class MetricsRegistry:
    """The central, enumerable registry of every metric in one run."""

    def __init__(self) -> None:
        #: Insertion-ordered (dicts preserve order) name -> metric.
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as {existing.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._register(Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._register(Gauge(name, fn))
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str) -> Log2Histogram:
        return self._register(Log2Histogram(name))

    # ------------------------------------------------------------------
    # enumeration / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def collect(self) -> List[Dict[str, object]]:
        """Every metric as a ``{name, kind, value}`` row, sorted by name."""
        return [
            {"name": name, "kind": self._metrics[name].kind, "value": self._metrics[name].read()}
            for name in sorted(self._metrics)
        ]

    def to_json(self) -> Dict[str, Dict[str, object]]:
        """``name -> {kind, value}`` mapping (stable order via sorted keys)."""
        return {
            row["name"]: {"kind": row["kind"], "value": row["value"]}
            for row in self.collect()
        }

    def render_text(self, title: str = "metrics") -> str:
        """``ethtool -S`` style listing: one ``name: value`` line per metric."""
        lines = [f"{title}: {len(self._metrics)} metrics"]
        for row in self.collect():
            value = row["value"]
            if isinstance(value, dict):  # histogram
                value = f"n={value['total']} mean={value['mean']:.1f}"
            elif isinstance(value, float):
                value = f"{value:.6g}"
            lines.append(f"  {row['name']}: {value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# binding existing subsystem stat fields into a registry
# ----------------------------------------------------------------------
def bind_machine(registry: MetricsRegistry, machine) -> None:
    """Register a receiver machine's scattered stat fields as callback gauges.

    Works on the native machine at any queue count and on the Xen machine,
    which share one shape: ``nics``, a flat ``drivers`` list,
    ``kernel.aggregators`` and ``governors``.  Reading happens lazily at
    collection/sampling time, so binding costs the hot path nothing.
    """
    for nic in getattr(machine, "nics", ()):
        stats = nic.stats
        base = f"nic.{nic.name}"
        registry.gauge(f"{base}.rx_frames", lambda s=stats: s.rx_frames)
        registry.gauge(f"{base}.tx_frames", lambda s=stats: s.tx_frames)
        registry.gauge(f"{base}.interrupts", lambda s=stats: s.interrupts)
        registry.gauge(f"{base}.rx_csum_offloaded", lambda s=stats: s.rx_csum_offloaded)
        registry.gauge(f"{base}.rx_csum_errors", lambda s=stats: s.rx_csum_errors)
        registry.gauge(
            f"{base}.rx_dropped_ring_full", lambda s=stats: s.rx_dropped_ring_full
        )
        for queue in nic.queues:
            ring = queue.ring
            qbase = f"{base}.q{queue.index}"
            registry.gauge(f"{qbase}.ring.posted", lambda r=ring: r.posted)
            registry.gauge(f"{qbase}.ring.drained", lambda r=ring: r.drained)
            registry.gauge(f"{qbase}.ring.dropped", lambda r=ring: r.dropped)
            registry.gauge(f"{qbase}.ring.occupancy", lambda r=ring: len(r))
            registry.gauge(f"{qbase}.ring.peak_occupancy", lambda r=ring: r.peak_occupancy)
            registry.gauge(f"{qbase}.interrupts", lambda q=queue: q.interrupts)
            if queue.lro is not None:
                registry.gauge(
                    f"{qbase}.lro.merged_segments",
                    lambda e=queue.lro: e.merged_segments,
                )
                registry.gauge(f"{qbase}.lro.flushes", lambda e=queue.lro: e.flushes)

    for driver in machine.drivers:
        stats = driver.stats
        base = f"driver.{driver.name}"
        registry.gauge(f"{base}.isr_runs", lambda s=stats: s.isr_runs)
        registry.gauge(f"{base}.rx_packets", lambda s=stats: s.rx_packets)
        registry.gauge(f"{base}.tx_packets", lambda s=stats: s.tx_packets)
        registry.gauge(f"{base}.tx_templates", lambda s=stats: s.tx_templates)
        registry.gauge(f"{base}.tx_expanded_acks", lambda s=stats: s.tx_expanded_acks)
        registry.gauge(f"{base}.rx_csum_discards", lambda s=stats: s.rx_csum_discards)
        registry.gauge(
            f"{base}.rx_dropped_no_buffer", lambda s=stats: s.rx_dropped_no_buffer
        )
        registry.gauge(f"{base}.rx_dropped_reset", lambda s=stats: s.rx_dropped_reset)
        registry.gauge(f"{base}.watchdog_ticks", lambda s=stats: s.watchdog_ticks)
        registry.gauge(f"{base}.resets", lambda s=stats: s.resets)

    for aggr in machine.kernel.aggregators:
        stats = aggr.stats
        base = f"aggr.{aggr.name}"
        registry.gauge(f"{base}.packets_in", lambda s=stats: s.packets_in)
        registry.gauge(f"{base}.eligible", lambda s=stats: s.eligible)
        registry.gauge(f"{base}.bypassed", lambda s=stats: s.bypassed)
        registry.gauge(
            f"{base}.aggregates_delivered", lambda s=stats: s.aggregates_delivered
        )
        registry.gauge(f"{base}.singles_delivered", lambda s=stats: s.singles_delivered)
        registry.gauge(f"{base}.fragments_chained", lambda s=stats: s.fragments_chained)
        registry.gauge(f"{base}.queue_depth", lambda a=aggr: len(a.queue))
        registry.gauge(
            f"{base}.peak_table_occupancy", lambda s=stats: s.peak_table_occupancy
        )
        registry.gauge(f"{base}.flush_degrade", lambda s=stats: s.flush_degrade)
        registry.gauge(f"{base}.dropped_no_buffer", lambda s=stats: s.dropped_no_buffer)
        registry.gauge(f"{base}.packets_degraded", lambda s=stats: s.packets_degraded)

    for governor in machine.governors:
        stats = governor.stats
        base = f"governor.{governor.name}"
        registry.gauge(f"{base}.degraded", lambda g=governor: int(g.degraded))
        registry.gauge(f"{base}.disorder_rate", lambda g=governor: g.rate)
        registry.gauge(f"{base}.enters", lambda s=stats: s.enters)
        registry.gauge(f"{base}.exits", lambda s=stats: s.exits)
        registry.gauge(f"{base}.disorder_events", lambda s=stats: s.disorder_events)
        registry.gauge(f"{base}.packets_degraded", lambda s=stats: s.packets_degraded)
        registry.gauge(f"{base}.mode", lambda g=governor: g.mode)
        registry.gauge(f"{base}.sort_enters", lambda s=stats: s.sort_enters)
        registry.gauge(f"{base}.sort_exits", lambda s=stats: s.sort_exits)
        registry.gauge(
            f"{base}.mode_transitions", lambda s=stats: s.mode_transitions
        )

    for repair in getattr(machine, "repairs", ()):
        stats = repair.stats
        base = f"repair.{repair.name}"
        registry.gauge(f"{base}.occupancy", lambda r=repair: r.occupancy)
        registry.gauge(f"{base}.frames_in", lambda s=stats: s.frames_in)
        registry.gauge(f"{base}.frames_out", lambda s=stats: s.frames_out)
        registry.gauge(f"{base}.holds", lambda s=stats: s.holds)
        registry.gauge(
            f"{base}.releases_in_order", lambda s=stats: s.releases_in_order
        )
        registry.gauge(
            f"{base}.releases_deadline", lambda s=stats: s.releases_deadline
        )
        registry.gauge(
            f"{base}.releases_overflow", lambda s=stats: s.releases_overflow
        )
        registry.gauge(f"{base}.releases_flush", lambda s=stats: s.releases_flush)
        registry.gauge(f"{base}.deadline_fires", lambda s=stats: s.deadline_fires)
        registry.gauge(f"{base}.max_hold_ns", lambda s=stats: s.max_hold_ns)
        registry.gauge(f"{base}.peak_occupancy", lambda s=stats: s.peak_occupancy)

    for link in getattr(machine, "links", ()):
        stats = link.stats
        base = f"link.{link.name}"
        registry.gauge(f"{base}.frames_sent", lambda s=stats: s.frames_sent)
        registry.gauge(f"{base}.frames_delivered", lambda s=stats: s.frames_delivered)
        registry.gauge(f"{base}.frames_dropped", lambda s=stats: s.frames_dropped)
        registry.gauge(f"{base}.frames_reordered", lambda s=stats: s.frames_reordered)
        registry.gauge(f"{base}.frames_duplicated", lambda s=stats: s.frames_duplicated)
        registry.gauge(f"{base}.frames_corrupted", lambda s=stats: s.frames_corrupted)
        registry.gauge(f"{base}.up", lambda l=link: int(l.up))

    injector = getattr(machine, "fault_injector", None)
    if injector is not None:
        stats = injector.stats
        registry.gauge("faults.begun", lambda s=stats: s.faults_begun)
        registry.gauge("faults.ended", lambda s=stats: s.faults_ended)
        registry.gauge("faults.active", lambda s=stats: s.active)

    for index, cpu in enumerate(machine.cpus):
        base = f"cpu.{index}"
        registry.gauge(f"{base}.busy_cycles", lambda c=cpu: c.busy_cycles)
        registry.gauge(
            f"{base}.network_packets", lambda c=cpu: c.profiler.network_packets
        )
        registry.gauge(f"{base}.host_packets", lambda c=cpu: c.profiler.host_packets)
        registry.gauge(f"{base}.acks_sent", lambda c=cpu: c.profiler.acks_sent)

    mem = getattr(machine, "mem", None)
    if mem is not None:
        registry.gauge("mem.llc_hits", lambda m=mem: m.llc_hits)
        registry.gauge("mem.ddio_placements", lambda m=mem: m.ddio_placements)
        registry.gauge("mem.ddio_evictions", lambda m=mem: m.io_evictions)
        registry.gauge(
            "mem.remote_line_fetches", lambda m=mem: m.remote_line_fetches
        )
        registry.gauge("mem.dram_line_fetches", lambda m=mem: m.dram_line_fetches)
        for node in mem.nodes:
            base = f"mem.node{node.index}"
            registry.gauge(
                f"{base}.io_occupancy_lines", lambda n=node: n.io_occupancy
            )
            registry.gauge(
                f"{base}.ddio_placements", lambda n=node: n.ddio_placements
            )
            registry.gauge(f"{base}.ddio_evictions", lambda n=node: n.io_evictions)
            registry.gauge(f"{base}.llc_hits", lambda n=node: n.llc_hits)

    kernel = getattr(machine, "kernel", None)
    if kernel is not None:
        registry.gauge("kernel.connections", lambda k=kernel: len(k.connections))
        registry.gauge(
            "kernel.bytes_received",
            lambda k=kernel: sum(s.bytes_received for s in k.sockets.values()),
        )
        if hasattr(kernel, "rx_csum_drops"):
            registry.gauge("kernel.rx_csum_drops", lambda k=kernel: k.rx_csum_drops)
        if hasattr(kernel, "ack_template_alloc_fails"):
            registry.gauge(
                "kernel.ack_template_alloc_fails",
                lambda k=kernel: k.ack_template_alloc_fails,
            )
        if hasattr(kernel, "zcrx"):
            zcrx = kernel.zcrx
            registry.gauge("kernel.zcrx.skbs", lambda z=zcrx: z.skbs)
            registry.gauge("kernel.zcrx.pages_mapped", lambda z=zcrx: z.pages_mapped)
            registry.gauge("kernel.zcrx.cold_pages", lambda z=zcrx: z.cold_pages)
        if hasattr(kernel, "copy_charged_items"):
            registry.gauge(
                "kernel.copy_charged_items", lambda k=kernel: k.copy_charged_items
            )

    slab = getattr(machine, "packet_slab", None)
    if slab is not None:
        registry.gauge("slab.recycled", lambda s=slab: s.recycled)
        registry.gauge("slab.misses", lambda s=slab: s.misses)
        registry.gauge("slab.free_len", lambda s=slab: len(s.free))


def bind_connections(registry: MetricsRegistry, connections: Iterable) -> None:
    """Per-connection protocol-state gauges (cwnd, rcv_nxt, advertised window).

    Typically bound on the *sender* sockets of a streaming rig, where the
    congestion window lives.
    """
    for conn in connections:
        base = f"tcp.{conn.name}"
        registry.gauge(f"{base}.cwnd", lambda c=conn: c.reno.cwnd)
        registry.gauge(f"{base}.ssthresh", lambda c=conn: c.reno.ssthresh)
        registry.gauge(f"{base}.rcv_nxt", lambda c=conn: c.rcv_nxt)
        registry.gauge(f"{base}.retransmits", lambda c=conn: c.stats.retransmits)
