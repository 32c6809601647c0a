"""The multi-queue receive host, under its historical name.

The host is :class:`repro.host.machine.ReceiverMachine`: with ``queues > 1``
it runs one complete receive path per CPU — driver ISR, per-queue
(lock-free — §3.5) aggregation engine, softirq, and the application drain
for sockets pinned to that CPU — with flows picked by a shared
:class:`~repro.mq.steering.SteeringPolicy`.  See DESIGN.md §7.
"""

from __future__ import annotations

from repro.host.machine import ReceiverMachine

__all__ = ["MqReceiverMachine"]

#: The same class: ``MqReceiverMachine(..., queues=q)`` is
#: ``ReceiverMachine(..., queues=q)``.
MqReceiverMachine = ReceiverMachine
