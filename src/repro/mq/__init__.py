"""Multi-queue RSS receive subsystem: per-CPU receive paths with flow steering.

Extends the paper's single-receive-path host model to N hardware receive
queues, each interrupting its own CPU — the direction receive scaling
actually took after the paper (RSS/MSI-X hardware, then aRFS).  See
DESIGN.md §7.

Modules
-------
``rss``       Toeplitz hash + 128-entry indirection table (spec-exact).
``steering``  Pluggable policies: static RSS vs aRFS-style flow steering.
``costs``     Mechanistic cross-CPU costs + residual SMP lock model.
``kernel``    The machine's kernel: the costed kernel of
              :mod:`repro.host.kernel`, which runs natively over N CPUs.
``machine``   The historical name of :class:`repro.host.machine.ReceiverMachine`,
              which builds one receive path per queue.

The streaming benchmark runs the multi-queue host through
:func:`repro.workloads.stream.run_stream_experiment` with ``queues > 1``.
"""

from repro.mq.costs import CrossCpuCostModel, mq_lock_model
from repro.mq.rss import RSS_DEFAULT_KEY, IndirectionTable, RssHasher, toeplitz_hash
from repro.mq.steering import FlowSteering, StaticRssSteering, SteeringPolicy, make_policy

__all__ = [
    "CrossCpuCostModel",
    "mq_lock_model",
    "RSS_DEFAULT_KEY",
    "IndirectionTable",
    "RssHasher",
    "toeplitz_hash",
    "FlowSteering",
    "StaticRssSteering",
    "SteeringPolicy",
    "make_policy",
]
