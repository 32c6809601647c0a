"""Event-heap simulator core.

The simulator keeps one priority queue of plain tuples ordered by
(time, sequence-number).  The sequence number makes ordering deterministic for
events scheduled at the same instant: they fire in scheduling order.

Heap entries are ``(time, seq, fn, args, handle)`` tuples, so ordering is
resolved by the C tuple comparison in ``heapq`` without ever calling back
into Python.  ``handle`` is ``None`` on the fast path
(:meth:`Simulator.call_at` / :meth:`Simulator.post`); a per-event
:class:`Event` cancellation token is only allocated when the caller needs
one (:meth:`Simulator.schedule` / :meth:`Simulator.at`).

Cancellation is lazy: a cancelled entry stays in the heap and is skipped
when it surfaces, and the heap is compacted in place whenever cancelled
entries outnumber live ones, so the arm/cancel churn of TCP RTO and
delayed-ACK timers cannot grow it without bound.

Re-arming is lazy too.  :meth:`Simulator.restart` moves a pending event to
a later deadline without touching the heap: it takes the sequence number a
fresh schedule would have taken and records the new ``(time, seq)`` on the
:class:`Event`.  The old entry stays where it is; when it surfaces, the run
loop sees that its seq no longer matches the handle's and pushes it back
under the handle's key instead of firing it.  The stale key is never later
than the new one, so the entry always surfaces before the moment it must
fire, and every event fires under exactly the key that eager cancel +
schedule would have given it.

Time is a float in *seconds*.  All subsystems (links, NICs, CPUs, TCP timers)
schedule callbacks through one shared simulator instance.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Compact the heap when it holds more than this many cancelled entries and
#: they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A cancellation token for a scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`Simulator.at`), may be cancelled with :meth:`cancel` and moved
    with :meth:`Simulator.restart`.  Cancellation is lazy — the heap entry
    stays in place and is skipped when it surfaces (subject to periodic
    compaction).  ``time``/``seq`` are the key the event fires under; after
    an in-place restart they are later than its heap entry's key.
    ``fn``/``args`` are kept for a restart that has to schedule afresh.
    """

    __slots__ = ("time", "seq", "cancelled", "_fired", "_sim", "fn", "args")

    def __init__(self, time: float, seq: int, sim: "Simulator",
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._fired = False
        self._sim = sim
        self.fn = fn
        self.args = args

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent.

        The simulator's bookkeeping is inlined here — TCP arms and cancels
        a timer per segment, so this runs millions of times per long
        simulation.
        """
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        sim = self._sim
        sim._pending -= 1
        cancelled = sim._cancelled + 1
        sim._cancelled = cancelled
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 > len(sim._heap):
            sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else ("cancelled" if self.cancelled else "pending")
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


class Simulator:
    """A deterministic discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(1e-3, print, "one millisecond elapsed")
        sim.run()
        assert sim.now == 1e-3
    """

    #: There is no timer-wheel tier.  The attribute stays, always ``None``,
    #: because ``perfbench/workloads.py`` reads ``sim.wheel`` and counts
    #: wheel inserts only when it is not ``None``.
    wheel = None

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any], tuple, Optional[Event]]] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._pending: int = 0
        self._cancelled: int = 0
        self._running: bool = False
        #: Registered after-event observers, in installation order (see
        #: :meth:`push_after_event_hook`).
        self._after_event_hooks: List[Callable[[], None]] = []
        #: Compiled dispatch for the hot loop: ``None`` when no observers
        #: are registered (the normal fast path), the hook itself for one,
        #: a closure looping over a tuple for several.
        self._after_event: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellation token; use :meth:`post` when you will never
        cancel, to skip allocating one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        serial = self._seq
        self._seq = serial + 1
        ev = Event(time, serial, self, fn, args)
        self._pending += 1
        heapq.heappush(self._heap, (time, serial, fn, args, ev))
        return ev

    def restart(self, ev: Event, delay: float) -> Event:
        """Re-arm ``ev`` to fire ``delay`` seconds from now; return the
        handle to keep.

        Equivalent to ``ev.cancel()`` followed by
        ``schedule(delay, ev.fn, *ev.args)`` — it consumes one sequence
        number, so firing order is the same — but a pending event moving
        to a deadline no earlier than its current one is updated in place
        (no allocation, no heap push; see the module docstring) and ``ev``
        itself is returned.  A fired or cancelled event, or an earlier
        deadline, takes the cancel + schedule path and returns a new event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if ev.cancelled or ev._fired or time < ev.time:
            ev.cancel()
            return self.at(time, ev.fn, *ev.args)
        serial = self._seq
        self._seq = serial + 1
        ev.time = time
        ev.seq = serial
        return ev

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation token is built."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no cancellation token is built.

        This is the hot path for wire deliveries and CPU task drains, which
        are never cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        serial = self._seq
        self._seq = serial + 1
        self._pending += 1
        heapq.heappush(self._heap, (time, serial, fn, args, None))

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (ordering is unaffected).

        Compaction is in place: ``run()`` holds a reference to the heap list
        while firing events, so the list object must never be replaced.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when nothing is pending."""
        heap = self._heap
        while heap:
            time, seq, fn, args, handle = heapq.heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                if handle.seq != seq:
                    # Restarted in place: re-key, do not fire.
                    heapq.heappush(heap, (handle.time, handle.seq, fn, args, handle))
                    continue
                handle._fired = True
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap time went backwards")
            self.now = time
            self._pending -= 1
            self._events_fired += 1
            fn(*args)
            if self._after_event is not None:
                self._after_event()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until everything pending drains, ``until`` is reached,
        or ``max_events`` have fired.

        ``max_events`` and :attr:`events_fired` count only real firings —
        cancelled entries skipped and restarted entries re-keyed on the way
        count in neither, exactly as in :meth:`step`.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations over the
        window are well defined.
        """
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        fired = 0
        # Hoist the None checks out of the loop: comparisons against +inf
        # behave identically to "no bound".
        time_bound = _INF if until is None else until
        event_bound = _INF if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                handle = entry[4]
                if handle is not None:
                    if handle.cancelled:
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    if handle.seq != entry[1]:
                        # Restarted in place: re-key, do not fire.
                        heapreplace(heap, (handle.time, handle.seq, entry[2], entry[3], handle))
                        continue
                time = entry[0]
                if time > time_bound:
                    break
                if fired >= event_bound:
                    return
                heappop(heap)
                if handle is not None:
                    handle._fired = True
                self.now = time
                self._pending -= 1
                self._events_fired += 1
                fired += 1
                entry[2](*entry[3])
                if self._after_event is not None:
                    self._after_event()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def push_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Register an observer called after every fired event.

        Used by the runtime sanitizer (:mod:`repro.analysis.sanitizer`) and
        the race checker (:mod:`repro.analysis.racecheck`); they chain in
        installation order.  The hot loop stays a single None-check: with
        no observers the compiled ``_after_event`` slot is ``None``, with
        one it is the hook itself, and only with several does dispatch go
        through a loop.  Re-pushing an already-registered hook is a no-op.
        """
        if hook in self._after_event_hooks:
            return
        self._after_event_hooks.append(hook)
        self._rebuild_after_event()

    def remove_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Unregister one observer; unknown hooks are ignored."""
        if hook in self._after_event_hooks:
            self._after_event_hooks.remove(hook)
            self._rebuild_after_event()

    def clear_after_event_hook(self) -> None:
        """Unregister every observer."""
        self._after_event_hooks.clear()
        self._after_event = None

    def _rebuild_after_event(self) -> None:
        hooks = tuple(self._after_event_hooks)
        if not hooks:
            self._after_event = None
        elif len(hooks) == 1:
            self._after_event = hooks[0]
        else:

            def dispatch() -> None:
                for hook in hooks:
                    hook()

            self._after_event = dispatch

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.9f}, pending={self.pending})"
