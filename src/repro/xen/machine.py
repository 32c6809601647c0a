"""The Xen receive host: driver domain + hypervisor + guest on one CPU.

Mirrors :class:`repro.host.machine.ReceiverMachine` for the virtualized
configuration of the paper (Linux 2.6.16.38 guest on Xen 3.0.4).  One
physical CPU is shared by all three layers via
:class:`~repro.cpu.view.CpuView`: driver-domain work keeps native category
labels, guest-kernel work is relabelled onto the ``tcp rx``/``tcp tx`` axis
of Figure 6 and inflated by the guest-overhead scale.
"""

from __future__ import annotations

from typing import List, Optional

from repro.buffers.pool import BufferPool
from repro.core.aggregation import AggregationEngine
from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.cpu.view import CpuView
from repro.driver.e1000 import E1000Driver
from repro.faults.degradation import CoalesceGovernor
from repro.host.client import ClientHost
from repro.host.configs import SystemConfig
from repro.host.kernel import Kernel
from repro.host.machine import cable_client
from repro.net.addresses import ip_from_str
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.xen.costs import XenCostModel
from repro.xen.driver_domain import DriverDomain
from repro.xen.guest_tx import GuestTxPath

#: Guest-kernel categories -> Figure 6 axis labels.
GUEST_CATEGORY_MAP = {
    Category.RX: Category.TCP_RX,
    Category.TX: Category.TCP_TX,
}


class XenReceiverMachine:
    """The virtualized server machine of the paper's evaluation."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        ip: Optional[int] = None,
        xen_costs: Optional[XenCostModel] = None,
        name: str = "xen",
    ):
        if not config.is_xen:
            raise ValueError("XenReceiverMachine needs an is_xen SystemConfig")
        if config.mem is not None:
            raise ValueError(
                "the memory hierarchy (SystemConfig.mem) is not modelled for "
                "the Xen pipeline — its grant-copy data path never touches "
                "DDIO ways; use mem=None"
            )
        self.sim = sim
        self.config = config
        self.opt = opt
        self.ip = ip if ip is not None else ip_from_str("10.0.0.1")
        self.name = name
        self.xen_costs = xen_costs if xen_costs is not None else XenCostModel()

        self.cpu = Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=config.locks, name=f"{name}-cpu0")
        #: Every costed CPU of the machine (one, shared by all three layers).
        self.cpus: List[Cpu] = [self.cpu]
        #: Driver-domain view: native categories, native costs.
        self.dd_cpu = CpuView(self.cpu, name=f"{name}-dom0")
        #: Guest view: rx/tx land in "tcp rx"/"tcp tx", guest work inflated.
        self.guest_cpu = CpuView(
            self.cpu,
            category_map=dict(GUEST_CATEGORY_MAP),
            scale_map=dict(self.xen_costs.guest_scale),
            name=f"{name}-guest",
        )

        self.dd_pool = BufferPool(name=f"{name}-dom0-skb")
        self.guest_pool = BufferPool(name=f"{name}-guest-skb")
        self.pools: List[BufferPool] = [self.dd_pool, self.guest_pool]

        # The guest kernel is the unmodified costed kernel, running on the
        # guest CPU view with its own buffer pool.
        self.kernel = Kernel(sim, [self.guest_cpu], config, opt, pool=self.guest_pool, name=f"{name}-guest")
        self.kernel.set_ip(self.ip)

        self.driver_domain = DriverDomain(
            cpu=self.dd_cpu,
            xen_costs=self.xen_costs,
            guest_kernel=self.kernel,
            guest_pool=self.guest_pool,
            name=f"{name}-dom0",
        )
        #: Graceful-degradation governor (aggregation runs in the driver
        #: domain, so its governor lives there too); empty or one.
        self.governors: List[CoalesceGovernor] = []
        if opt.auto_degrade and opt.receive_aggregation:
            self.governors.append(CoalesceGovernor(name=f"{name}-governor"))
        if opt.receive_aggregation:
            engine = AggregationEngine(
                cpu=self.dd_cpu,
                costs=config.costs,
                opt=opt,
                pool=self.dd_pool,
                deliver=self.driver_domain.forward_rx,
                governor=self.governors[0] if self.governors else None,
                name=f"{name}-aggr",
            )
            self.driver_domain.aggregator = engine
            # Registered with the guest kernel like every rig's engines.
            self.kernel.aggregators.append(engine)

        self.nics: List[Nic] = []
        self.drivers: List[E1000Driver] = []
        self.tx_paths: List[GuestTxPath] = []
        self.clients: List[ClientHost] = []
        #: Inbound (client -> NIC) links in attach order (fault injector /
        #: sanitizer link-conservation audit).
        self.links: List[Link] = []

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
        """Attach a client via a dedicated NIC and a full-duplex link (see
        :func:`~repro.host.machine.cable_client`)."""
        cfg = self.config
        index = len(self.nics)
        nic = Nic(
            self.sim,
            ring_size=cfg.rx_ring_size,
            itr_interval_s=cfg.itr_interval_s,
            checksum_offload=cfg.checksum_offload,
            mtu=cfg.mtu,
            name=f"{self.name}-eth{index}",
        )
        nic.adaptive_itr = cfg.adaptive_itr
        driver = E1000Driver(
            cpu=self.dd_cpu,
            nic=nic,
            kernel=self.driver_domain,
            pool=self.dd_pool,
            aggregation=self.opt.receive_aggregation,
            name=f"{self.name}-e1000-{index}",
        )
        tx_path = GuestTxPath(
            guest_cpu=self.guest_cpu,
            dd_cpu=self.dd_cpu,
            xen_costs=self.xen_costs,
            physical_driver=driver,
            name=f"{self.name}-tx{index}",
        )
        inbound = cable_client(
            self.sim, cfg, client, nic, drop_prob=drop_prob, reorder_prob=reorder_prob,
            dup_prob=dup_prob, rng=rng, batch_window_s=batch_window_s,
        )
        self.kernel.register_route(client.ip, [tx_path])
        self.nics.append(nic)
        self.drivers.append(driver)
        self.tx_paths.append(tx_path)
        self.clients.append(client)
        self.links.append(inbound)
        return nic

    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept=None) -> None:
        self.kernel.listen(port, on_accept)

    @property
    def profiler(self):
        return self.cpu.profiler

    def total_ring_drops(self) -> int:
        """Tail drops summed over every queue of every NIC."""
        return sum(q.ring.dropped for nic in self.nics for q in nic.queues)

    def per_queue_counters(self) -> List[dict]:
        """Per-queue drop/occupancy rows (see reporting.queue_stats_rows)."""
        from repro.analysis.reporting import queue_stats_rows

        return queue_stats_rows(self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"XenReceiverMachine(opt={self.opt}, nics={len(self.nics)})"
