"""Protocol-facing timer interfaces.

Protocol objects schedule timers through a small interface
(``schedule(delay, fn) -> handle`` with ``handle.cancel()``, and
``restart(handle, delay) -> handle``, which re-arms a timer exactly as
``handle.cancel()`` + ``schedule(delay, fn)`` would but may reuse the
handle).  Client
machines use :class:`SimTimers`, which fires callbacks directly on the event
loop.  The receive host under test uses
:class:`~repro.host.kernel.KernelTimers`, which runs callbacks as tasks on
the CPU that armed them, so timer work is serialized with (and delayed by)
that CPU's packet processing.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Event, Simulator


class SimTimers:
    """Direct pass-through to the simulator (cost-free hosts)."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> "Event":
        return self.sim.schedule(delay, fn, *args)

    def restart(self, handle: "Event", delay: float) -> "Event":
        return self.sim.restart(handle, delay)
