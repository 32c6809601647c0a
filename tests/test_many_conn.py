"""Tests for the many-connection workload generator (scale regime)."""

import pytest

from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config, xen_config
from repro.workloads.many import (
    ManyConnWorkload,
    build_many_connection_rig,
    run_many_connection_experiment,
)

#: Small population, short window: the semantics under test don't need 1k.
SMALL = dict(n_connections=60, seed=7)


def _run(duration=0.04, warmup=0.02, **kw):
    wl = ManyConnWorkload(**{**SMALL, **kw})
    return run_many_connection_experiment(
        linux_up_config(), OptimizationConfig.optimized(), wl,
        duration=duration, warmup=warmup,
    )


def test_xen_rig_gets_batched_links():
    wl = ManyConnWorkload(**SMALL)
    _sim, machine, _clients, _driver = build_many_connection_rig(
        xen_config(), OptimizationConfig.optimized(), wl
    )
    assert machine.links[0].batch_window_s == wl.batch_window_s > 0


def test_same_seed_is_event_identical():
    a = _run()
    b = _run()
    assert a == b  # every field, including events_fired, bit-identical


def test_different_seed_changes_schedule():
    a = _run()
    b = _run(seed=8)
    assert a.events_fired != b.events_fired


def test_mix_makes_progress():
    r = _run()
    assert r.transactions > 0          # mice complete RPC round-trips
    assert r.bytes_received > 0        # elephants stream bulk data
    assert r.throughput_mbps > 0
    assert r.connections_opened == 60  # full population came up
    assert r.allocations_saved > 0     # the slab is recycling at scale


def test_poisson_churn_opens_and_closes_connections():
    r = _run(arrival_rate_hz=2000.0, duration=0.05)
    assert r.connections_opened > 60
    assert r.connections_closed > 0
    # Churned connections close after their transaction quota; residents
    # never close.
    assert r.connections_closed <= r.connections_opened - 60


def test_no_churn_when_rate_zero():
    r = _run(arrival_rate_hz=0.0)
    assert r.connections_opened == 60
    assert r.connections_closed == 0


def test_elephant_fraction_splits_population():
    wl = ManyConnWorkload(**SMALL, elephant_fraction=0.25)
    sim, machine, clients, driver = build_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(), wl
    )
    driver.start()
    sim.run(until=wl.stagger_s * 2)
    assert len(driver.elephants) == 15
    assert len(driver.mice) == 45


def test_batching_halves_events_with_bounded_timing_skew():
    """Link batching collapses per-frame delivery events into one per
    window.  It is NOT bit-neutral — each frame is held up to one window
    (25 us) past its wire arrival, like NIC interrupt moderation — but the
    skew is bounded: the workload must land within a fraction of a percent
    of the unbatched rig while firing far fewer scheduler events."""
    batched = _run()
    unbatched = _run(batch_window_s=0.0)
    assert batched.connections_opened == unbatched.connections_opened
    assert batched.transactions == pytest.approx(unbatched.transactions, rel=0.02)
    assert batched.bytes_received == pytest.approx(unbatched.bytes_received, rel=0.01)
    # The event saving is the whole point: roughly one event per window
    # instead of one per frame.
    assert batched.events_fired < 0.7 * unbatched.events_fired


def test_sanitized_many_conn_run():
    """The full scale rig — slab, batching, timer churn — under the runtime
    sanitizer's conservation and reuse-after-free audits."""
    from repro.analysis import sanitizer as sanitizer_mod

    fresh = not sanitizer_mod.is_installed()
    handle = sanitizer_mod.install(deep_every=64) if fresh else None
    try:
        r = _run(n_connections=30, duration=0.03, warmup=0.015,
                 arrival_rate_hz=1000.0)
    finally:
        if handle is not None:
            sanitizer_mod.uninstall(handle)
    assert r.transactions > 0
    assert r.allocations_saved > 0
