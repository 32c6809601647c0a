"""Process-wide checker installation shared by the sanitizer and racecheck.

Both dynamic checkers attach the same way to every simulation built while
they are installed: ``Simulator.__init__`` is patched to build one
observer per simulator, and each watched machine class's ``__init__`` is
patched to hand the new machine to the observer of the simulator it was
built on (``observer.watch_machine(machine)``).  Uninstalling restores the
original constructors; already-built simulators stay observed.

Installations compose: a second checker wraps the first one's patched
constructors, and they unwind in reverse order.
"""

from __future__ import annotations

from typing import Callable, Generic, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.sim.engine import Simulator

H = TypeVar("H", bound="PatchHandle")


class PatchHandle:
    """The constructors one installation patched, and its observers (one
    per simulator built since)."""

    def __init__(self, make_observer: Callable[[Simulator], object], machine_classes: Sequence[type]):
        self.observers: List[object] = []
        self.originals: List[Tuple[type, Callable]] = []
        observers = self.observers
        sim_init = Simulator.__init__

        def observed_sim_init(sim) -> None:
            sim_init(sim)
            observers.append(make_observer(sim))

        self._patch(Simulator, observed_sim_init)
        for cls in machine_classes:

            def observed_machine_init(machine, sim, *args, _orig=cls.__init__, **kwargs):
                _orig(machine, sim, *args, **kwargs)
                for observer in observers:
                    if observer.sim is sim:
                        observer.watch_machine(machine)
                        break

            self._patch(cls, observed_machine_init)

    def _patch(self, cls: type, init: Callable) -> None:
        self.originals.append((cls, cls.__init__))
        cls.__init__ = init

    def restore(self) -> None:
        for cls, init in reversed(self.originals):
            cls.__init__ = init


class Installer(Generic[H]):
    """One checker's idempotent ``install`` / ``uninstall`` / ``is_installed``."""

    def __init__(self, handle_cls: Type[H], machine_classes: Callable[[], Sequence[type]]):
        self._handle_cls = handle_cls
        #: Called at install time: machine modules import late.
        self._machine_classes = machine_classes
        self.active: Optional[H] = None

    def install(self, make_observer: Callable[[Simulator], object]) -> H:
        """Patch the constructors; a second call returns the active handle."""
        if self.active is None:
            self.active = self._handle_cls(make_observer, self._machine_classes())
        return self.active

    def uninstall(self, handle: Optional[H] = None) -> None:
        """Restore ``handle``'s constructors (default: the active handle)."""
        if handle is None:
            handle = self.active
        if handle is None:
            return
        handle.restore()
        if handle is self.active:
            self.active = None

    def is_installed(self) -> bool:
        return self.active is not None
