"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_initial_state(sim):
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_fired == 0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(1e-3, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == pytest.approx(1e-3)


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3e-3, order.append, 3)
    sim.schedule(1e-3, order.append, 1)
    sim.schedule(2e-3, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order(sim):
    order = []
    for i in range(10):
        sim.schedule(1e-3, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    ev = sim.schedule(1e-3, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1e-3, fired.append, "early")
    sim.schedule(5e-3, fired.append, "late")
    sim.run(until=2e-3)
    assert fired == ["early"]
    assert sim.now == pytest.approx(2e-3)
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events(sim):
    sim.run(until=0.5)
    assert sim.now == pytest.approx(0.5)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_at_in_the_past_rejected(sim):
    sim.schedule(1e-3, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.0, lambda: None)


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1e-4, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_bound(sim):
    fired = []

    def rearm():
        fired.append(sim.now)
        sim.schedule(1e-6, rearm)

    sim.schedule(0.0, rearm)
    sim.run(max_events=10)
    assert len(fired) == 10


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_pending_counts_only_live_events(sim):
    ev1 = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    assert sim.pending == 2
    ev1.cancel()
    assert sim.pending == 1


def test_post_and_call_at_interleave_with_schedule_in_order(sim):
    """Token-less (post/call_at) and token-carrying (schedule/at) entries
    share one heap and fire strictly in (time, scheduling) order."""
    order = []
    sim.schedule(2e-3, order.append, "s2")
    sim.post(1e-3, order.append, "p1")
    sim.at(1e-3, order.append, "a1")
    sim.call_at(2e-3, order.append, "c2")
    sim.run()
    assert order == ["p1", "a1", "s2", "c2"]


def test_post_rejects_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(-1.0, lambda: None)


def test_events_fired_counts_same_via_run_and_step(sim):
    """run() and step() share one accounting: cancelled entries never count."""
    for i in range(5):
        sim.schedule(1e-3 * (i + 1), lambda: None)
    sim.schedule(6e-3, lambda: None).cancel()
    while sim.step():
        pass
    fired_via_step = sim.events_fired

    sim2 = Simulator()
    for i in range(5):
        sim2.schedule(1e-3 * (i + 1), lambda: None)
    sim2.schedule(6e-3, lambda: None).cancel()
    sim2.run()
    assert fired_via_step == sim2.events_fired == 5


def test_max_events_ignores_cancelled_entries(sim):
    fired = []
    cancelled = [sim.schedule(1e-4 * i, lambda: None) for i in range(1, 4)]
    for ev in cancelled:
        ev.cancel()
    sim.schedule(1e-3, fired.append, "a")
    sim.schedule(2e-3, fired.append, "b")
    sim.run(max_events=2)
    assert fired == ["a", "b"]
    assert sim.events_fired == 2


def test_heap_compaction_drops_cancelled_entries(sim):
    """Mass-cancelling timers must shrink the heap, not just mark entries."""
    events = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(500)]
    keep = sim.schedule(2.0, lambda: None)
    assert sim.pending == 501
    for ev in events:
        ev.cancel()
    # Compaction triggers once cancelled entries outnumber live ones (and
    # exceed the minimum batch), so the physical heap must have been rebuilt
    # down to the one live entry plus at most one sub-threshold batch of
    # still-marked entries.
    assert sim.pending == 1
    assert len(sim._heap) < 140
    sim.run()
    assert sim.events_fired == 1
    assert keep._fired


def test_cancel_inside_run_of_later_event(sim):
    """An event firing may cancel a later pending event mid-run."""
    fired = []
    later = sim.schedule(2e-3, fired.append, "later")
    sim.schedule(1e-3, later.cancel)
    sim.run()
    assert fired == []
    assert sim.pending == 0


def test_compaction_during_run_preserves_order(sim):
    """Compaction happens while run() iterates; firing order must survive."""
    order = []
    doomed = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)]

    def cancel_all():
        order.append("cancel")
        for ev in doomed:
            ev.cancel()

    sim.schedule(1e-3, cancel_all)
    sim.schedule(2e-3, order.append, "after")
    sim.run()
    assert order == ["cancel", "after"]
    assert sim.pending == 0


def test_far_future_event_fires_exactly(sim):
    """An event more than 17 simulated minutes out fires at exactly its
    scheduled time, after the nearer traffic."""
    far = 20 * 60.0 + 0.123
    fired = []
    sim.schedule(far, lambda: fired.append(sim.now))
    sim.schedule(1e-3, fired.append, "near")
    sim.run()
    assert fired == ["near", far]
    assert sim.pending == 0


def test_cancel_then_rearm(sim):
    """The TCP timer-restart pattern: cancel a pending timer, arm a new one
    for the same instant; only the new one fires."""
    fired = []
    first = sim.schedule(0.2, fired.append, "first")
    first.cancel()
    first.cancel()  # idempotent
    sim.schedule(0.2, fired.append, "second")
    assert sim.pending == 1
    sim.run()
    assert fired == ["second"]
    assert sim.now == 0.2


def test_idle_stretch_then_reschedule(sim):
    """After the queue drains and the clock idles far ahead, a fresh
    schedule is relative to the new now."""
    fired = []
    sim.post(0.01, fired.append, "a")
    sim.run()
    sim.run(until=sim.now + 5.0)  # idle: clock advances, nothing queued
    sim.post(0.01, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == pytest.approx(5.02)


def test_restart_in_place_keeps_handle_and_eager_order(sim):
    """A later deadline moves the event in place: same handle, one heap
    entry, and it fires under the key a fresh schedule would have had —
    after an event scheduled for the same instant before the restart."""
    fired = []
    ev = sim.schedule(1e-3, fired.append, "timer")
    sim.schedule(3e-3, fired.append, "same-instant, scheduled first")
    assert sim.restart(ev, 3e-3) is ev
    sim.schedule(3e-3, fired.append, "same-instant, scheduled after")
    assert len(sim._heap) == 3 and sim.pending == 3
    sim.run(until=2e-3)  # the stale entry surfaces and is re-keyed, not fired
    assert fired == [] and sim.events_fired == 0
    sim.run()
    assert fired == ["same-instant, scheduled first", "timer", "same-instant, scheduled after"]
    assert sim.events_fired == 3
    assert sim.pending == 0 and sim._cancelled == 0 and not sim._heap


def test_restart_same_deadline_moves_behind_later_schedules(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "timer")
    sim.schedule(1e-3, fired.append, "other")
    assert sim.restart(ev, 1e-3) is ev
    sim.run()
    assert fired == ["other", "timer"]


def test_restart_via_step_rekeys_without_firing(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "timer")
    sim.restart(ev, 2e-3)
    sim.post(1.5e-3, fired.append, "between")
    assert sim.step()
    assert fired == ["between"] and sim.events_fired == 1
    assert sim.step()
    assert fired == ["between", "timer"] and sim.now == 2e-3
    assert not sim.step()


def test_restart_fired_event_schedules_afresh(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "x")
    sim.run()
    again = sim.restart(ev, 1e-3)
    assert again is not ev and not again.cancelled
    assert not ev.cancelled  # a fired event stays fired, not cancelled
    sim.run()
    assert fired == ["x", "x"] and sim.now == 2e-3
    assert sim.events_fired == 2


def test_restart_cancelled_event_schedules_afresh(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "x")
    ev.cancel()
    again = sim.restart(ev, 2e-3)
    assert again is not ev and ev.cancelled
    assert sim.pending == 1
    sim.run()
    assert fired == ["x"] and sim.now == 2e-3


def test_restart_to_earlier_deadline_cancels_and_schedules(sim):
    fired = []
    ev = sim.schedule(5e-3, lambda a, b: fired.append((a, b)), "x", "y")
    again = sim.restart(ev, 1e-3)
    assert again is not ev and ev.cancelled
    assert (again.fn, again.args) == (ev.fn, ev.args)
    assert sim.pending == 1
    sim.run()
    assert fired == [("x", "y")] and sim.now == 1e-3
    assert sim.events_fired == 1


def test_restart_consumes_one_sequence_number(sim):
    ev = sim.schedule(1e-3, lambda: None)
    seq_before = sim._seq
    sim.restart(ev, 2e-3)  # in place
    assert sim._seq == seq_before + 1 and ev.seq == seq_before
    again = sim.restart(ev, 1e-3)  # fallback
    assert sim._seq == seq_before + 2 and again.seq == seq_before + 1


def test_restart_rejects_negative_delay(sim):
    ev = sim.schedule(1e-3, lambda: None)
    with pytest.raises(SimulationError):
        sim.restart(ev, -1e-9)


def test_step_across_long_idle_gap(sim):
    fired = []
    sim.post(1e-3, fired.append, 1)
    sim.post(1500.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.now == 1e-3
    assert sim.step()
    assert fired == [1, 2]
    assert sim.now == 1500.0
    assert not sim.step()


# ----------------------------------------------------------------------
# randomized differential: engine vs a list-scan oracle
# ----------------------------------------------------------------------

class _OracleScheduler:
    """Reference scheduler: an unordered list scanned for the minimum
    ``(time, seq)`` entry on every firing, cancelled entries skipped."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self._entries = []  # [time, seq, fn, args, cancelled]
        self._seq = 0

    def schedule(self, delay, fn, *args):
        entry = [self.now + delay, self._seq, fn, args, False]
        self._seq += 1
        self._entries.append(entry)
        return _OracleHandle(entry)

    def restart(self, handle, delay):
        """The definition the engine's in-place restart must match."""
        handle.cancel()
        _time, _seq, fn, args, _cancelled = handle._entry
        return self.schedule(delay, fn, *args)

    def run(self):
        entries = self._entries
        while entries:
            i = min(range(len(entries)), key=lambda k: (entries[k][0], entries[k][1]))
            time, _seq, fn, args, cancelled = entries.pop(i)
            if cancelled:
                continue
            self.now = time
            self.events_fired += 1
            fn(*args)


class _OracleHandle:
    def __init__(self, entry):
        self._entry = entry

    def cancel(self):
        self._entry[4] = True


def _trace(sched, seed):
    """Drive ``sched`` through a seeded schedule/cancel/re-arm/restart
    script and return the full firing trace.

    Restarts hit pending, fired and cancelled handles, to later and to
    earlier deadlines, so both the engine's in-place path and its three
    cancel + schedule fallbacks run.

    Delays span same-instant ties, sub-millisecond, sub-second and
    beyond-17-minute regimes; callbacks schedule, cancel and re-arm
    further events.  The script consumes the rng in firing order, so any
    ordering divergence derails the comparison immediately.
    """
    rng = random.Random(seed)
    fired = []
    live = []
    dead = []  # cancelled handles
    next_id = [0]

    def delay():
        return rng.choice([
            0.0,
            rng.uniform(0.0, 2.5e-4),
            rng.uniform(0.0, 1.6e-2),
            rng.uniform(0.0, 0.5),
            rng.uniform(0.0, 1100.0),
        ])

    def arm():
        i = next_id[0]
        next_id[0] = i + 1
        live.append(sched.schedule(delay(), cb, i))

    def restart(handles):
        k = rng.randrange(len(handles))
        handles[k] = sched.restart(handles[k], delay())
        if handles is dead:
            live.append(dead.pop(k))

    def cb(i):
        fired.append((sched.now, i))
        r = rng.random()
        if r < 0.2:
            arm()  # reschedule from inside a callback
        elif r < 0.3 and live:
            restart(live)  # may be this very (fired) event's handle

    def driver(round_no):
        for _ in range(8):
            r = rng.random()
            if r < 0.4 or not live:
                arm()
            elif r < 0.55:
                restart(live)
            elif r < 0.6 and dead:
                restart(dead)
            else:
                # Cancel a random handle (it may already have fired, and
                # cancel is then a no-op); sometimes re-arm in its place.
                handle = live.pop(rng.randrange(len(live)))
                handle.cancel()
                dead.append(handle)
                if r > 0.85:
                    arm()
        if round_no > 0:
            sched.schedule(rng.uniform(0.0, 2e-3), driver, round_no - 1)

    driver(120)
    sched.run()
    return fired, sched.events_fired


@pytest.mark.parametrize("seed", [1, 20260808, 424242])
def test_randomized_differential_against_oracle(seed):
    sim = Simulator()
    engine_trace, engine_fired = _trace(sim, seed)
    oracle_trace, oracle_fired = _trace(_OracleScheduler(), seed)
    # Bit-identical: same events, same absolute times, same order.
    assert engine_trace == oracle_trace
    assert engine_fired == oracle_fired
    assert len(engine_trace) > 250  # the script actually exercised things
    assert sim.pending == 0
    assert sim._pending + sim._cancelled == len(sim._heap)
