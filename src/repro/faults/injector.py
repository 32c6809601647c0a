"""Applies a :class:`~repro.faults.plan.FaultPlan` to a built receiver rig.

The injector schedules one begin and one end simulation event per fault
window (``sim.at`` — precise simulated instants, zero events when no plan
is armed) and mutates the targeted components in place:

====================  =====================================================
kind                  what happens at begin / end
====================  =====================================================
``loss_burst``        inbound links gain a Gilbert–Elliott loss model /
                      model removed
``corrupt``           ``link.corrupt_prob`` raised / restored
``reorder_storm``     ``link.reorder_prob`` raised / restored
``dup_storm``         ``link.dup_prob`` raised / restored
``ring_storm``        every rx ring's capacity shrunk / restored
``pool_exhaust``      sk_buff pool capacity capped / restored
``link_flap``         ``link.up`` False / True
``nic_hang``          ``nic.hung`` True / (recovered by driver watchdog)
====================  =====================================================

Randomized faults draw from RNG streams derived from the plan seed and the
spec index — never from global state — so an armed plan replays
bit-identically, serially or in a sweep worker.

Arming a plan that contains a ``nic_hang`` also starts every driver's
watchdog (:meth:`repro.driver.e1000.E1000Driver.start_watchdog`); recovery
is the driver's job, not the injector's — the injector only breaks things.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.runtime import active_tracer
from repro.obs.trace import Stage
from repro.sim.engine import Simulator
from repro.sim.link import GilbertElliott
from repro.sim.rng import SeededRng


@dataclass
class InjectorStats:
    faults_begun: int = 0
    faults_ended: int = 0
    active: int = 0


@dataclass
class FaultWindow:
    """One applied window, recorded for recovery-time analysis."""

    kind: str
    start: float
    end: float
    target: str = "*"
    detail: Dict[str, float] = field(default_factory=dict)


class FaultInjector:
    """Arms one plan against one machine (links/NICs/pool/drivers)."""

    def __init__(self, sim: Simulator, machine: Any, plan: FaultPlan) -> None:
        self.sim = sim
        self.machine = machine
        self.plan = plan
        self.stats = InjectorStats()
        self.windows: List[FaultWindow] = []
        self._armed = False
        self._tr = active_tracer()
        # Saved state keyed by (spec index, object id-ish label) for restore.
        self._saved: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every fault window.  Idempotent."""
        if self._armed:
            return
        self._armed = True
        if any(spec.kind == "nic_hang" for spec in self.plan.specs):
            for driver in self.machine.drivers:
                driver.start_watchdog()
        for index, spec in enumerate(self.plan.specs):
            self.sim.at(spec.start, self._begin, index, spec)
            self.sim.at(spec.end, self._end, index, spec)

    # ------------------------------------------------------------------
    # target enumeration
    # ------------------------------------------------------------------
    def _links(self, spec: FaultSpec) -> List[Any]:
        links = getattr(self.machine, "links", ())
        return [link for i, link in enumerate(links) if spec.hits(i)]

    def _nics(self, spec: FaultSpec) -> List[Any]:
        return [nic for i, nic in enumerate(self.machine.nics) if spec.hits(i)]

    def _rng(self, index: int, spec: FaultSpec, sublabel: str = "") -> SeededRng:
        label = f"fault.{index}.{spec.kind}"
        if sublabel:
            label = f"{label}.{sublabel}"
        return SeededRng(self.plan.seed, label)

    @staticmethod
    def _ensure_link_rng(link: Any, rng: SeededRng) -> None:
        """Impairment-free links are built without an RNG; give storm
        windows one without disturbing links that already have a stream."""
        if link.rng is None:
            link.rng = rng

    # ------------------------------------------------------------------
    # begin/end dispatch
    # ------------------------------------------------------------------
    def _begin(self, index: int, spec: FaultSpec) -> None:
        self.stats.faults_begun += 1
        self.stats.active += 1
        detail: Dict[str, float] = {}
        getattr(self, f"_begin_{spec.kind}")(index, spec, detail)
        self.windows.append(
            FaultWindow(spec.kind, spec.start, spec.end, spec.target, detail)
        )
        tr = self._tr
        if tr is not None:
            tr.event(
                Stage.FAULT_BEGIN, self.sim.now,
                args={"kind": spec.kind, "intensity": spec.intensity},
            )

    def _end(self, index: int, spec: FaultSpec) -> None:
        self.stats.faults_ended += 1
        self.stats.active -= 1
        getattr(self, f"_end_{spec.kind}")(index, spec)
        tr = self._tr
        if tr is not None:
            tr.event(Stage.FAULT_END, self.sim.now, args={"kind": spec.kind})

    # ---- loss_burst --------------------------------------------------
    def _begin_loss_burst(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        p = spec.params
        loss_bad = p.get("loss_bad", 0.9)
        p_bad_good = p.get("p_bad_good", 0.25)
        if "p_good_bad" in p:
            p_good_bad = p["p_good_bad"]
        else:
            # Pick the good->bad rate so the stationary loss rate matches
            # the requested intensity: pi_bad * loss_bad = intensity.
            pi_bad = min(0.95, spec.intensity / max(loss_bad, 1e-9))
            p_good_bad = p_bad_good * pi_bad / max(1e-9, 1.0 - pi_bad)
        detail.update(p_good_bad=p_good_bad, p_bad_good=p_bad_good, loss_bad=loss_bad)
        for li, link in enumerate(self._links(spec)):
            link.loss_model = GilbertElliott(
                self._rng(index, spec, f"link{li}"),
                p_good_bad=min(1.0, p_good_bad),
                p_bad_good=p_bad_good,
                loss_good=p.get("loss_good", 0.0),
                loss_bad=loss_bad,
            )

    def _end_loss_burst(self, index: int, spec: FaultSpec) -> None:
        for link in self._links(spec):
            link.loss_model = None

    # ---- per-frame probability storms --------------------------------
    def _begin_prob_storm(self, index: int, spec: FaultSpec, attr: str) -> None:
        for li, link in enumerate(self._links(spec)):
            self._ensure_link_rng(link, self._rng(index, spec, f"link{li}"))
            self._saved[(index, li)] = getattr(link, attr)
            setattr(link, attr, spec.intensity)

    def _end_prob_storm(self, index: int, spec: FaultSpec, attr: str) -> None:
        for li, link in enumerate(self._links(spec)):
            setattr(link, attr, self._saved.pop((index, li)))

    def _begin_corrupt(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        detail["corrupt_prob"] = spec.intensity
        self._begin_prob_storm(index, spec, "corrupt_prob")

    def _end_corrupt(self, index: int, spec: FaultSpec) -> None:
        self._end_prob_storm(index, spec, "corrupt_prob")

    def _begin_reorder_storm(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        detail["reorder_prob"] = spec.intensity
        for link in self._links(spec):
            if "reorder_delay_s" in spec.params:
                link.reorder_delay_s = spec.params["reorder_delay_s"]
        self._begin_prob_storm(index, spec, "reorder_prob")

    def _end_reorder_storm(self, index: int, spec: FaultSpec) -> None:
        self._end_prob_storm(index, spec, "reorder_prob")

    def _begin_dup_storm(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        detail["dup_prob"] = spec.intensity
        self._begin_prob_storm(index, spec, "dup_prob")

    def _end_dup_storm(self, index: int, spec: FaultSpec) -> None:
        self._end_prob_storm(index, spec, "dup_prob")

    # ---- ring_storm --------------------------------------------------
    def _begin_ring_storm(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        for ni, nic in enumerate(self._nics(spec)):
            for queue in nic.queues:
                ring = queue.ring
                self._saved[(index, ni, queue.index)] = ring.capacity
                shrunk = max(4, int(round(ring.capacity * (1.0 - spec.intensity))))
                ring.capacity = min(ring.capacity, shrunk)
                detail["capacity"] = ring.capacity

    def _end_ring_storm(self, index: int, spec: FaultSpec) -> None:
        for ni, nic in enumerate(self._nics(spec)):
            for queue in nic.queues:
                queue.ring.capacity = self._saved.pop((index, ni, queue.index))

    # ---- pool_exhaust ------------------------------------------------
    def _begin_pool_exhaust(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        for pi, pool in enumerate(self.machine.pools):
            self._saved[(index, "pool", pi)] = pool.capacity
            capacity = int(spec.params.get(
                "capacity", max(4, int((1.0 - spec.intensity) * 256))
            ))
            # Never *raise* a pool's existing cap; exhaustion only tightens.
            if pool.capacity is not None:
                capacity = min(capacity, pool.capacity)
            pool.capacity = capacity
            detail["capacity"] = capacity

    def _end_pool_exhaust(self, index: int, spec: FaultSpec) -> None:
        for pi, pool in enumerate(self.machine.pools):
            pool.capacity = self._saved.pop((index, "pool", pi))

    # ---- link_flap ---------------------------------------------------
    def _begin_link_flap(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        for link in self._links(spec):
            link.up = False

    def _end_link_flap(self, index: int, spec: FaultSpec) -> None:
        for link in self._links(spec):
            link.up = True

    # ---- nic_hang ----------------------------------------------------
    def _begin_nic_hang(self, index: int, spec: FaultSpec, detail: Dict[str, float]) -> None:
        for nic in self._nics(spec):
            nic.hung = True

    def _end_nic_hang(self, index: int, spec: FaultSpec) -> None:
        # Recovery is the watchdog's job (detect stall -> reset -> unhang);
        # the end event exists only so the window records its span.  If the
        # watchdog already reset, hung is False and this is a no-op.
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector({self.plan.name!r}, specs={len(self.plan.specs)}, "
            f"active={self.stats.active})"
        )
