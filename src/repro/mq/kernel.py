"""The multi-queue host's kernel.

The costed stack is :class:`repro.host.kernel.Kernel`, which runs natively
over N CPUs: per-queue :class:`SoftirqPort` contexts, round-robin socket
pinning with flow-steering feedback, timers that fire on their arming CPU,
and :class:`~repro.mq.costs.CrossCpuCostModel` charges for cross-CPU
bounces and wakeups.  :class:`MqKernel` is that kernel under the name the
multi-queue machine builds, with nothing added.
"""

from __future__ import annotations

from repro.host.kernel import Kernel, SoftirqPort

__all__ = ["MqKernel", "SoftirqPort"]


class MqKernel(Kernel):
    """The kernel of :class:`~repro.mq.machine.MqReceiverMachine`."""
