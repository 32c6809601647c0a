"""Per-layer call counts and host self-time for the traced benchmark run.

The tracer installs class-level wrappers around each layer's entry points
*before* a rig is built: links, NICs and drivers capture bound methods
(``sink=nic.rx_frame``, ``self._consume = cpu.consume``) when they are
constructed, so a wrapper installed afterwards would never be called.

Besides the listed entry points, every callable handed to the event engine
(``Simulator.at`` / ``call_at``) or to a CPU task queue (``Cpu.submit``) is
wrapped when it runs code of a known layer.  The driver ISR, link delivery
and CPU task drains are such deferred callbacks; without this their time
would land in whichever span happened to dispatch them (the engine loop).
A deferred callable's layer comes from the module that defines it.

Self time is a span's duration minus the time its child spans cover.  A
``tcp`` span is ``tcp.sender`` when its connection belongs to a client host
and ``tcp.receiver`` otherwise.  For calls made inside ``ClientHost`` this
is the same as "a ``client`` span is among its ancestors"; deciding by the
connection also places TCP timer callbacks, whose ancestors the wrappers
cannot see, on the right side.

Work inlined into an entry point stays in that entry point's layer: the
timer-wheel insert inlined into ``Simulator.at`` / ``call_at`` is ``sim``
self time, never a separate span.

Spans are aggregated in memory as (caller layer, callee layer) edges rather
than kept one by one, so the trace costs bounded memory on long windows.
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Callable, Dict, List, Tuple

#: The layers reported by the benchmark, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "link", "nic", "driver", "faults", "core", "host", "client",
    "tcp.sender", "tcp.receiver", "cpu", "buffers", "mq",
)

#: (layer, module, class, methods).  ``tcp`` is split per connection.
#: The TCP timer handlers are listed so that their time is ``tcp`` time
#: rather than the time of the timer object that calls them.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run", "at", "call_at")),
    ("link", "repro.sim.link", "Link", ("send",)),
    ("nic", "repro.nic.nic", "Nic", ("rx_frame", "poll_ring", "transmit")),
    ("nic", "repro.nic.lro", "LroEngine", ("accept", "flush")),
    ("driver", "repro.driver.e1000", "E1000Driver", ("on_interrupt", "tx", "tx_template")),
    ("faults", "repro.faults.repair", "ReorderRepairBuffer", ("process", "flush")),
    ("core", "repro.core.aggregation", "AggregationEngine", ("enqueue", "run")),
    ("host", "repro.host.kernel", "Kernel", (
        "softirq_baseline", "softirq_aggregated", "deliver_host_skb",
        "app_drain", "send_packet", "send_acks",
    )),
    ("host", "repro.mq.kernel", "MqKernel", (
        "softirq_baseline", "softirq_aggregated", "deliver_host_skb",
        "app_drain", "send_packet", "send_acks",
    )),
    ("host", "repro.mq.kernel", "SoftirqPort", ("softirq_baseline", "softirq_aggregated")),
    ("client", "repro.host.client", "ClientHost", ("rx", "send_packet", "send_acks")),
    ("tcp", "repro.tcp.connection", "TcpConnection", (
        "on_segment", "build_ack_packet", "_delack_fire", "_rto_fire", "_persist_fire",
    )),
    ("cpu", "repro.cpu.cpu", "Cpu", ("consume", "submit", "defer")),
    ("buffers", "repro.buffers.pool", "BufferPool", ("alloc", "note_free")),
    ("buffers", "repro.buffers.slab", "PacketSlab", ("acquire", "release")),
    ("mq", "repro.mq.steering", "SteeringPolicy", ("select",)),
    ("mq", "repro.mq.steering", "FlowSteering", ("select",)),
)

#: Module prefix -> layer for deferred callables; the longest prefix wins.
#: ``repro.workloads`` holds the traffic generators' application code (the
#: RPC mice), which runs on the client hosts.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.link", "link"),
    ("repro.sim", "sim"),
    ("repro.nic", "nic"),
    ("repro.driver", "driver"),
    ("repro.faults", "faults"),
    ("repro.core", "core"),
    ("repro.host.client", "client"),
    ("repro.workloads", "client"),
    ("repro.host", "host"),
    ("repro.mq.steering", "mq"),
    ("repro.mq.rss", "mq"),
    ("repro.mq", "host"),
    ("repro.tcp", "tcp"),
    ("repro.cpu", "cpu"),
    ("repro.buffers", "buffers"),
)

_INDEX = {name: i for i, name in enumerate(LAYERS)}
_SENDER = _INDEX["tcp.sender"]
_RECEIVER = _INDEX["tcp.receiver"]
_ROOT = len(LAYERS)  # caller index of spans opened outside any span
_TCP = -2  # placeholder layer: resolved per connection at call time
_UNTRACED = -1


def _layer_of_module(module: str) -> int:
    best = ""
    layer = _UNTRACED
    for prefix, name in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
            layer = _TCP if name == "tcp" else _INDEX[name]
    return layer


class Tracer:
    """Span accounting for one process; see the module docstring."""

    def __init__(self) -> None:
        from repro.host.client import ClientHost

        self._client_cls = ClientHost
        self._stack: List[list] = []
        self._code_layer: Dict[object, int] = {}
        self._installed: List[Tuple[type, str, object]] = []
        #: Entry points listed in ENTRY_POINTS that this build lacks.
        self.missing: List[str] = []
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the accumulators (call between ``Simulator.run`` calls)."""
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        #: (caller, callee) -> [calls, total seconds, self seconds].
        self.edges: Dict[Tuple[int, int], list] = {}

    def install(self) -> None:
        """Wrap every entry point that exists in this build."""
        for layer, module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(import_module(module), cls_name, None)
            for method in methods:
                orig = cls.__dict__.get(method) if cls is not None else None
                if orig is None:
                    # An inherited method is wrapped on the class defining it.
                    if cls is None or not hasattr(cls, method):
                        self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                index = _TCP if layer == "tcp" else _INDEX[layer]
                if method in ("at", "call_at"):
                    wrapper = self._wrap_scheduler(orig, index)
                elif cls_name == "Cpu" and method == "submit":
                    wrapper = self._wrap_submit(orig, index)
                else:
                    wrapper = self._wrap(orig, index)
                setattr(cls, method, wrapper)
                self._installed.append((cls, method, orig))

    def uninstall(self) -> None:
        for cls, method, orig in reversed(self._installed):
            setattr(cls, method, orig)
        self._installed.clear()

    # ------------------------------------------------------------------
    def _tcp_key(self, obj) -> int:
        """``tcp.sender`` for a client host's connection (or socket)."""
        conn = getattr(obj, "conn", obj)
        if isinstance(getattr(conn, "transport", None), self._client_cls):
            return _SENDER
        return _RECEIVER

    def _span(self, key: int, fn: Callable, args, kwargs):
        stack = self._stack
        caller = stack[-1][0] if stack else _ROOT
        frame = [key, 0.0]
        stack.append(frame)
        self.calls[key] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            own = dur - frame[1]
            self.self_s[key] += own
            if stack:
                stack[-1][1] += dur
            edge = self.edges.get((caller, key))
            if edge is None:
                self.edges[(caller, key)] = [1, dur, own]
            else:
                edge[0] += 1
                edge[1] += dur
                edge[2] += own

    def _wrap(self, orig: Callable, index: int) -> Callable:
        span = self._span
        if index == _TCP:
            tcp_key = self._tcp_key

            def traced_tcp(obj, *args, **kwargs):
                return span(tcp_key(obj), orig, (obj,) + args, kwargs)

            return traced_tcp

        def traced(obj, *args, **kwargs):
            return span(index, orig, (obj,) + args, kwargs)

        return traced

    def _wrap_scheduler(self, orig: Callable, index: int) -> Callable:
        span = self._span
        deferred = self._deferred

        def traced(sim, when, fn, *args):
            return span(index, orig, (sim, when, deferred(fn)) + args, {})

        return traced

    def _wrap_submit(self, orig: Callable, index: int) -> Callable:
        span = self._span
        deferred = self._deferred

        def traced(cpu, fn, *args):
            return span(index, orig, (cpu, deferred(fn)) + args, {})

        return traced

    def _deferred(self, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of its defining module's layer, or
        ``fn`` itself when it is untraced or already a traced entry point."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is None:
            return fn
        index = self._code_layer.get(code)
        if index is None:
            index = _layer_of_module(getattr(func, "__module__", None) or "")
            self._code_layer[code] = index
        if index == _UNTRACED:
            return fn
        key = self._tcp_key(getattr(fn, "__self__", None)) if index == _TCP else index
        span = self._span

        def deferred(*args):
            return span(key, fn, args, {})

        return deferred

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """{layer: {"calls": n, "self_s": seconds}} since the last reset."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(LAYERS)
        }

    def edge_rows(self) -> List[Dict[str, object]]:
        """The aggregated span tree: one row per (caller, callee) pair."""
        names = LAYERS + ("(root)",)
        return [
            {"caller": names[caller], "callee": names[callee], "calls": row[0],
             "total_s": row[1], "self_s": row[2]}
            for (caller, callee), row in sorted(self.edges.items())
        ]
