"""cross-cpu-write: shared-state writes in ``mq/`` and ``host/`` must pay the cross-CPU toll.

The multi-queue model's credibility rests on mechanistic accounting: state
that more than one CPU context can reach is exactly the state whose
cache-line bounces the paper prices (§2.3), so a write to it from code
that neither charges the :class:`~repro.mq.costs.CrossCpuCostModel` nor
performs an explicit CPU switch is "free performance" — the Figure 7/12
gap quietly shrinks.

Mechanics: the rule finds every *context root* in ``mq/`` and ``host/``
(the N-CPU kernel lives in ``host/kernel.py``) — a function that switches
the kernel's current CPU (``enter_cpu`` callers and ``_current_idx``
writers: softirq ports, the app drain, timer trampolines) — classifies
each root's context kind by name, and floods the kinds through the call
graph.  A patrolled function reachable from two or more
distinct kinds is running on behalf of more than one CPU context; if it
writes attributes of a foreign object (not ``self``, not an object it
just constructed) without referencing the cost model or switching CPUs
itself, it is flagged.

Over-approximation stands down: functions that themselves switch CPU or
touch ``cross`` are exempt (they are the costing discipline, not a breach
of it), and construction-time writes to fresh objects establish ownership
rather than violating it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Set

from repro.analysis.simlint.core import ProgramRule, Violation
from repro.analysis.simlint.program import FunctionInfo, ProgramIndex

#: Package paths the rule patrols: the multi-queue subsystem and the host
#: package holding the N-CPU kernel (softirq ports, app drain, timers).
PATROLLED = ("/mq/", "/host/")


def _context_kind(info: FunctionInfo) -> str:
    name = info.name
    if "softirq" in name:
        return "softirq"
    if "drain" in name or "app" in name:
        return "app"
    if name == "_run" or (info.class_name is not None and "Timer" in info.class_name):
        return "timer"
    return f"ctx:{info.qualname}"


class CrossCpuWriteRule(ProgramRule):
    id = "cross-cpu-write"
    summary = (
        "mq/ and host/ state reachable from >1 CPU context must not be written "
        "without a CrossCpuCostModel charge or an explicit CPU switch"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        roots = [
            info
            for info in index.functions_in(*PATROLLED)
            if info.switches_cpu and info.name != "enter_cpu"
        ]
        kinds: Dict[str, Set[str]] = {}
        for root in roots:
            kind = _context_kind(root)
            for reached in index.reachable([root.qualname]):
                kinds.setdefault(reached.qualname, set()).add(kind)

        for info in sorted(index.functions_in(*PATROLLED), key=lambda f: f.qualname):
            if len(kinds.get(info.qualname, ())) < 2:
                continue
            if info.switches_cpu or info.references_cross:
                continue  # this function *is* the costing/switching discipline
            for root_name, attrs, node in info.foreign_writes:
                if root_name in info.fresh_names or root_name == "cls":
                    continue  # construction-time ownership establishment
                dotted = ".".join((root_name,) + attrs)
                yield self.program_violation(
                    info.ctx,
                    node,
                    f"`{info.qualname}` is reachable from "
                    f"{len(kinds[info.qualname])} CPU contexts "
                    f"({', '.join(sorted(kinds[info.qualname]))}) but writes "
                    f"`{dotted}` without charging CrossCpuCostModel cycles or "
                    "switching to the owning CPU — cross-CPU work must pay "
                    "its cache-line/IPI price (see repro.mq.costs)",
                )


RULES: Iterable[ProgramRule] = (CrossCpuWriteRule(),)
