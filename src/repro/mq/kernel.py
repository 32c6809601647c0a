"""The multi-queue host's kernel.

The costed stack is :class:`repro.host.kernel.Kernel`, which runs natively
over N CPUs: per-queue :class:`SoftirqPort` contexts, round-robin socket
pinning with flow-steering feedback, timers that fire on their arming CPU,
and :class:`~repro.mq.costs.CrossCpuCostModel` charges for cross-CPU
bounces and wakeups.  Every receiver machine builds that kernel;
:class:`MqKernel` is a distinct, empty subclass kept for code that names it.
"""

from __future__ import annotations

from repro.host.kernel import Kernel, SoftirqPort

__all__ = ["MqKernel", "SoftirqPort"]


class MqKernel(Kernel):
    """:class:`~repro.host.kernel.Kernel` under its multi-queue name."""
