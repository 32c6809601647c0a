"""The native-Linux receive host under test.

Assembles CPUs + NICs + drivers + kernel per a
:class:`~repro.host.configs.SystemConfig` and an
:class:`~repro.host.configs.OptimizationConfig`, and wires client machines
to its NICs (one full-duplex GbE link pair per client, like the paper's five
Pro/1000 cards each cabled to one sender machine).

Every NIC exposes ``queues`` receive queues; queue *i*'s MSI-X vector
targets CPU *i*, and CPU *i* runs that queue's driver ISR and softirq.  A
shared :class:`~repro.mq.steering.SteeringPolicy` (one per machine, like
one RSS configuration per host) picks the queue for every arriving frame.
The queue count alone decides the rest of the layout (DESIGN.md §7):

* ``queues == 1`` is the paper's rig (§5.3, Figure 12): the configuration's
  blanket lock model, which prices in the contended shared queues of one
  receive path, and one rig-wide aggregation engine on CPU 0 whose
  degradation governor also governs every repair buffer and NIC LRO.
* ``queues > 1`` is the RSS extension: the residual
  :func:`~repro.mq.costs.mq_lock_model` with cross-CPU traffic charged by
  :class:`~repro.mq.costs.CrossCpuCostModel` (see
  :mod:`repro.host.kernel`), and one lock-free aggregation engine (§3.5)
  and governor per NIC queue.  Component names carry a ``.{queue}`` suffix.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

from repro.buffers.pool import BufferPool
from repro.buffers.slab import PacketSlab
from repro.core.aggregation import AggregationEngine
from repro.cpu.cpu import Cpu
from repro.faults.degradation import CoalesceGovernor
from repro.faults.repair import ReorderRepairBuffer
from repro.driver.e1000 import E1000Driver
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.kernel import Kernel, SoftirqPort
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.topology import NumaTopology
from repro.mq.costs import CrossCpuCostModel, mq_lock_model
from repro.mq.steering import SteeringPolicy, make_policy
from repro.net.addresses import ip_from_str
from repro.nic.lro import LroEngine
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.link import Link


def _repair_sink(port: SoftirqPort):
    """Deadline-release path for a repair buffer: the same enqueue + softirq
    kick the driver's ISR performs through its :class:`SoftirqPort`."""

    def sink(pkts):
        if pkts:
            port.aggregator.enqueue(pkts)
            port.softirq_aggregated()

    return sink


def cable_client(
    sim: Simulator,
    config: SystemConfig,
    client: ClientHost,
    nic: Nic,
    drop_prob: float = 0.0,
    reorder_prob: float = 0.0,
    dup_prob: float = 0.0,
    rng=None,
    batch_window_s: float = 0.0,
) -> Link:
    """Cable ``client`` to ``nic`` with a full-duplex link pair; returns the
    inbound (client -> NIC) link, the one the impairments act on.

    ``batch_window_s`` enables batched link delivery on both directions
    (see :class:`~repro.sim.link.Link`); many-connection rigs use it to
    collapse back-to-back frames into one event each way.
    """
    inbound = Link(
        sim, config.nic_rate_bps, config.link_delay_s, sink=nic.rx_frame,
        drop_prob=drop_prob, reorder_prob=reorder_prob, dup_prob=dup_prob,
        rng=rng, batch_window_s=batch_window_s,
        name=f"{client.name}->{nic.name}",
    )
    outbound = Link(
        sim, config.nic_rate_bps, config.link_delay_s, sink=client.rx,
        batch_window_s=batch_window_s,
        name=f"{nic.name}->{client.name}",
    )
    client.attach_tx(inbound)
    nic.attach_tx(outbound)
    return inbound


class ReceiverMachine:
    """The server machine of the paper's evaluation, with ``queues``
    per-CPU receive paths (see the module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        queues: int = 1,
        steering: Union[str, SteeringPolicy] = "rss",
        cross: Optional[CrossCpuCostModel] = None,
        ip: Optional[int] = None,
        name: str = "server",
    ):
        if queues < 1:
            raise ValueError("ReceiverMachine needs at least one receive queue")
        if opt.repair is not None and not opt.receive_aggregation:
            raise ValueError("repair requires receive_aggregation")
        self.sim = sim
        self.config = config
        self.opt = opt
        self.queues = queues
        self.ip = ip if ip is not None else ip_from_str("10.0.0.1")
        self.name = name
        self.steering = (
            steering if isinstance(steering, SteeringPolicy) else make_policy(steering, queues)
        )
        self.cross = cross if cross is not None else CrossCpuCostModel()

        # One receive path keeps the configuration's blanket lock factors,
        # which price in its contended shared queues; per-CPU paths keep
        # only the residual ones.  (Engine sharing is the other layout
        # choice ``queues`` makes, at the end of the constructor.)
        locks = config.locks if queues == 1 else mq_lock_model()
        self.cpus: List[Cpu] = [
            Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=locks, name=f"{name}-cpu{i}")
            for i in range(queues)
        ]
        #: CPU 0 (the only CPU of the one-queue rig).
        self.cpu = self.cpus[0]
        self.pool = BufferPool(name=f"{name}-skb")
        #: Rig-wide packet freelist: dead length-only packets (data segments
        #: freed with their skb, ACKs finished at the clients) are re-stamped
        #: by connection templates instead of reallocated.
        #: ``REPRO_NO_SLAB=1`` disables it (A/B baseline).
        self.packet_slab: Optional[PacketSlab] = (
            None if os.environ.get("REPRO_NO_SLAB") == "1" else PacketSlab()
        )
        self.pool.slab = self.packet_slab
        self.kernel = Kernel(
            sim, self.cpus, config, opt, pool=self.pool, name=name,
            steering=self.steering, cross=self.cross,
        )
        self.kernel.packet_slab = self.packet_slab
        self.kernel.set_ip(self.ip)
        #: Memory hierarchy + NUMA placement (None unless ``config.mem`` —
        #: the flat-equivalent default).  CPUs and queues split block-wise
        #: across ``mem.nodes``; each node gets its own sk_buff pool so
        #: queue *q*'s driver allocates node-local descriptors (all pools
        #: share the one packet slab).
        self.mem: Optional[MemoryHierarchy] = None
        self.topology: Optional[NumaTopology] = None
        self.pools: List[BufferPool] = [self.pool]
        if config.mem is not None:
            self.mem = MemoryHierarchy(config.mem)
            self.topology = NumaTopology(nodes=config.mem.nodes, cpus=queues, queues=queues)
            self.kernel.mem = self.mem
            self.kernel.topology = self.topology
            for node in range(1, config.mem.nodes):
                pool = BufferPool(name=f"{name}-skb-n{node}", node=node)
                pool.slab = self.packet_slab
                self.pools.append(pool)

        self.nics: List[Nic] = []
        #: Every driver, NIC-major: NIC *n*'s queue *q* is
        #: ``drivers[n * queues + q]``.
        self.drivers: List[E1000Driver] = []
        #: Graceful-degradation governors, one per governed engine.
        self.governors: List[CoalesceGovernor] = []
        #: Reorder-repair buffers, one per driver (empty unless
        #: ``opt.repair``), each on its driver's CPU.
        self.repairs: List[ReorderRepairBuffer] = []
        self.clients: List[ClientHost] = []
        #: Inbound (client -> NIC) links, one per client, in attach order —
        #: the fault injector and the sanitizer's link-conservation audit
        #: walk this list.
        self.links: List[Link] = []
        #: (engine, governor) every receive queue shares on the one-queue
        #: rig; None when each NIC queue gets its own (``queues > 1``).
        self._shared_path: Optional[tuple] = None
        if queues == 1:
            governor = None
            if (opt.auto_degrade or opt.repair is not None) and (
                opt.receive_aggregation or config.nic_lro
            ):
                governor = CoalesceGovernor(name=f"{name}-governor")
                self.governors.append(governor)
            engine = None
            if opt.receive_aggregation:
                engine = self._engine(0, self.pool, governor, f"{name}-aggr")
            self._shared_path = (engine, governor)

    def _engine(self, q: int, pool: BufferPool, governor, name: str) -> AggregationEngine:
        """§3's aggregation engine on CPU ``q``, registered with the kernel."""
        engine = AggregationEngine(
            cpu=self.cpus[q],
            costs=self.config.costs,
            opt=self.opt,
            pool=pool,
            deliver=self.kernel.deliver_host_skb,
            governor=governor,
            name=name,
        )
        self.kernel.aggregators.append(engine)
        return engine

    def _queue_path(self, q: int, suffix: str, pool: BufferPool):
        """The (engine, governor) receive queue ``q`` feeds: its own on a
        multi-queue rig (named with ``suffix``), the rig-wide pair on the
        one-queue rig."""
        if self._shared_path is not None:
            return self._shared_path
        if not self.opt.receive_aggregation:
            return None, None
        governor = None
        if self.opt.auto_degrade or self.opt.repair is not None:
            governor = CoalesceGovernor(name=f"{self.name}-governor{suffix}")
            self.governors.append(governor)
        return self._engine(q, pool, governor, f"{self.name}-aggr{suffix}"), governor

    # ------------------------------------------------------------------
    def add_client(
        self,
        client: ClientHost,
        drop_prob: float = 0.0,
        reorder_prob: float = 0.0,
        dup_prob: float = 0.0,
        rng=None,
        batch_window_s: float = 0.0,
    ) -> Nic:
        """Attach a client machine via a dedicated NIC (one driver per
        receive queue) and a full-duplex link (see :func:`cable_client`)."""
        cfg = self.config
        index = len(self.nics)
        lro_governor = self._shared_path[1] if self._shared_path is not None else None
        nic = Nic(
            self.sim,
            ring_size=cfg.rx_ring_size,
            itr_interval_s=cfg.itr_interval_s,
            checksum_offload=cfg.checksum_offload,
            mtu=cfg.mtu,
            lro=LroEngine(limit=cfg.lro_limit, governor=lro_governor) if cfg.nic_lro else None,
            n_queues=self.queues,
            steering=self.steering,
            name=f"{self.name}-eth{index}",
        )
        nic.adaptive_itr = cfg.adaptive_itr
        if self.mem is not None:
            for queue in nic.queues:
                queue.mem = self.mem
                queue.mem_node = self.topology.node_of_queue(queue.index)
        nic_drivers: List[E1000Driver] = []
        for q in range(self.queues):
            suffix = f"{index}.{q}" if self.queues > 1 else f"{index}"
            # Node-local descriptor pool for this queue's receive path.
            q_pool = self.pools[self.topology.node_of_queue(q)] if self.mem is not None else self.pool
            engine, governor = self._queue_path(q, suffix, q_pool)
            port = SoftirqPort(self.kernel, q, aggregator=engine)
            repair = None
            if self.opt.repair is not None:
                repair = ReorderRepairBuffer(
                    cpu=self.cpus[q],
                    config=self.opt.repair,
                    governor=governor,
                    sink=_repair_sink(port),
                    name=f"{self.name}-repair{suffix}",
                )
                self.repairs.append(repair)
            nic_drivers.append(
                E1000Driver(
                    cpu=self.cpus[q],
                    nic=nic,
                    kernel=port,
                    pool=q_pool,
                    aggregation=self.opt.receive_aggregation,
                    tso=cfg.tso,
                    mss=cfg.mss,
                    queue_index=q,
                    repair=repair,
                    name=f"{self.name}-e1000-{suffix}",
                )
            )
        inbound = cable_client(
            self.sim, cfg, client, nic, drop_prob=drop_prob, reorder_prob=reorder_prob,
            dup_prob=dup_prob, rng=rng, batch_window_s=batch_window_s,
        )
        if client.packet_slab is None:
            client.packet_slab = self.packet_slab
        self.kernel.register_route(client.ip, nic_drivers)
        self.nics.append(nic)
        self.drivers.extend(nic_drivers)
        self.clients.append(client)
        self.links.append(inbound)
        return nic

    # ------------------------------------------------------------------
    def ownership_map(self) -> List[Tuple[str, int]]:
        """The static part of the rig's CPU-ownership table: (component,
        owning CPU index) for every ring, softirq path, aggregation engine
        and repair buffer.  Sockets join the table dynamically at accept
        time (see :meth:`repro.host.kernel.Kernel._accept_socket` and
        :mod:`repro.analysis.racecheck`, which enforces the table at run
        time).
        """
        table: List[Tuple[str, int]] = []
        for driver in self.drivers:
            table.append((f"{driver.nic.name}.q{driver.queue.index} ring", driver.queue.owner_cpu))
            table.append((f"{driver.name} softirq", driver.kernel.cpu_index))
        for component in [*self.kernel.aggregators, *self.repairs]:
            owner = next(i for i, c in enumerate(self.cpus) if c is component.cpu)
            table.append((component.name, owner))
        return table

    def listen(self, port: int, on_accept=None) -> None:
        self.kernel.listen(port, on_accept)

    @property
    def profiler(self):
        """CPU 0's profiler (use :meth:`merged_profile` for the machine)."""
        return self.cpu.profiler

    def merged_profile(self):
        """Cycle/packet counters summed across every CPU."""
        return self.cpu.profiler.merged([cpu.profiler for cpu in self.cpus[1:]])

    def total_busy_cycles(self) -> float:
        return sum(cpu.busy_cycles for cpu in self.cpus)

    def total_ring_drops(self) -> int:
        """Tail drops summed over every queue of every NIC."""
        return sum(q.ring.dropped for nic in self.nics for q in nic.queues)

    def per_queue_counters(self) -> List[dict]:
        """Per-queue drop/occupancy rows (see reporting.queue_stats_rows)."""
        from repro.analysis.reporting import queue_stats_rows

        return queue_stats_rows(self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReceiverMachine({self.config.name!r}, queues={self.queues}, "
            f"steering={self.steering.name!r}, nics={len(self.nics)})"
        )
