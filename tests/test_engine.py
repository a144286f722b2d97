"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, fired.append, "c")
    engine.schedule(10, fired.append, "a")
    engine.schedule(20, fired.append, "b")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_same_cycle_events_fire_in_schedule_order():
    engine = Engine()
    fired = []
    for tag in "abcde":
        engine.schedule(5, fired.append, tag)
    engine.run()
    assert fired == list("abcde")


def test_priority_orders_same_cycle_events():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "low", priority=1)
    engine.schedule(5, fired.append, "high", priority=0)
    engine.run()
    assert fired == ["high", "low"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: engine.schedule_at(25, fired.append, "x"))
    engine.run()
    assert fired == ["x"]
    assert engine.now == 25


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, "early")
    engine.schedule(100, fired.append, "late")
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    engine.run()
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(10, fired.append, "cancelled")
    engine.schedule(5, fired.append, "kept")
    event.cancel()
    engine.run()
    assert fired == ["kept"]


def test_stop_halts_run():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("first")
        engine.stop()

    engine.schedule(1, stopper)
    engine.schedule(2, fired.append, "second")
    assert engine.run() == 1
    assert fired == ["first"]
    engine.run()
    assert fired == ["first", "second"]


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            engine.schedule(1, chain, n + 1)

    engine.schedule(0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert engine.now == 5


def test_zero_delay_runs_after_queued_same_cycle_events():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule(0, fired.append, "nested")

    engine.schedule(3, first)
    engine.schedule(3, fired.append, "second")
    engine.run()
    assert fired == ["first", "second", "nested"]


def test_max_events_bound():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(i, fired.append, i)
    engine.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_pending_and_peek():
    engine = Engine()
    assert engine.peek_time() is None
    event = engine.schedule(7, lambda: None)
    engine.schedule(3, lambda: None)
    assert engine.pending() == 2
    assert engine.peek_time() == 3
    event.cancel()
    assert engine.pending() == 1


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    event.cancel()
    event.cancel()  # double cancel must not double-decrement
    assert engine.pending() == 1
    assert engine.run() == 1
    assert engine.pending() == 0


def test_cancel_then_peek_then_run_ordering():
    """Regression: peek_time reaps cancelled head entries; a subsequent
    run must still fire the remaining events in order and never fire the
    cancelled one."""
    engine = Engine()
    fired = []
    head = engine.schedule(3, fired.append, "cancelled-head")
    engine.schedule(5, fired.append, "a")
    engine.schedule(5, fired.append, "b")
    head.cancel()
    assert engine.peek_time() == 5  # cancelled head is skipped
    assert engine.pending() == 2
    engine.run()
    assert fired == ["a", "b"]
    assert engine.now == 5
    assert engine.pending() == 0


def test_cancelled_peek_survivor_fires_after_run():
    engine = Engine()
    fired = []
    first = engine.schedule(2, fired.append, "x")
    engine.schedule(4, fired.append, "y")
    first.cancel()
    # peek, then schedule more work, then run: lazy deletion must not
    # disturb ordering of events scheduled after the peek.
    assert engine.peek_time() == 4
    engine.schedule(3, fired.append, "z")
    engine.run()
    assert fired == ["z", "y"]


def test_mass_cancellation_compacts_queue():
    engine = Engine()
    events = [engine.schedule(i + 1, lambda: None) for i in range(500)]
    keeper_fired = []
    engine.schedule(1000, keeper_fired.append, "keeper")
    for event in events:
        event.cancel()
    # Compaction keeps the heap proportional to live work.
    assert engine.pending() == 1
    assert len(engine._queue) < 100
    engine.run()
    assert keeper_fired == ["keeper"]
    assert engine.now == 1000


def test_pending_counts_executed_events_down():
    engine = Engine()
    for i in range(5):
        engine.schedule(i, lambda: None)
    engine.run(max_events=2)
    assert engine.pending() == 3
    engine.run()
    assert engine.pending() == 0


def test_call_soon_fires_in_order_with_schedule_zero():
    engine = Engine()
    fired = []
    engine.call_soon(fired.append, "a")
    engine.schedule(0, fired.append, "b")
    engine.call_soon(fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 0


def test_call_soon_runs_after_earlier_timed_event_same_cycle():
    engine = Engine()
    fired = []

    def at_five():
        fired.append("timed")
        engine.call_soon(fired.append, "soon")
        engine.schedule(0, fired.append, "zero")

    engine.schedule(5, at_five)
    engine.schedule(5, fired.append, "second-timed")
    engine.run()
    # Both continuations were queued after second-timed's seq, so the
    # heap entry fires first even though the ready queue is non-empty.
    assert fired == ["timed", "second-timed", "soon", "zero"]


def test_schedule_zero_event_cancellable_on_ready_path():
    engine = Engine()
    fired = []
    event = engine.schedule(0, fired.append, "cancelled")
    engine.call_soon(fired.append, "kept")
    event.cancel()
    assert engine.pending() == 1
    engine.run()
    assert fired == ["kept"]


def test_negative_priority_timed_event_precedes_ready_work():
    engine = Engine()
    fired = []
    engine.call_soon(fired.append, "soon")
    engine.schedule(0, fired.append, "urgent", priority=-1)
    engine.run()
    assert fired == ["urgent", "soon"]


def _fast_engine() -> Engine:
    """An engine pinned to fast mode, regardless of REPRO_SLOW_ENGINE.

    The fast-path tests assert fast-path behaviour; the suite itself may
    legitimately run under the reference env var.
    """
    engine = Engine()
    engine.fast = True
    return engine


def test_ff_begin_refused_while_clock_held_or_outside_run():
    engine = _fast_engine()
    # Outside run() there is no dispatch loop to merge virtual events
    # against, so no session may open.
    assert not engine.ff_begin()
    seen = {}

    def handler():
        engine.advance_holds += 1
        try:
            seen["held"] = engine.ff_begin()
        finally:
            engine.advance_holds -= 1
        seen["released"] = engine.ff_begin()
        if seen["released"]:
            # An open session holds the clock itself: sessions never nest.
            seen["nested"] = engine.ff_begin()
            engine.ff_end()

    engine.schedule(3, handler)
    engine.run()
    assert seen == {"held": False, "released": True, "nested": False}
    assert engine.advance_holds == 0
    assert engine.now == 3


def test_schedule_call_matches_schedule_ordering():
    engine = _fast_engine()
    fired = []
    engine.schedule_call(5, fired.append, "first")
    engine.schedule(5, fired.append, "second")
    engine.schedule_call(5, fired.append, "third")
    engine.schedule_call(0, fired.append, "soon")
    engine.run()
    assert fired == ["soon", "first", "second", "third"]
    assert engine.now == 5


def test_schedule_call_rejects_negative_delay():
    engine = _fast_engine()
    try:
        engine.schedule_call(-1, lambda: None)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("negative delay must raise")


def test_slow_mode_routes_everything_through_heap(monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_ENGINE", "1")
    engine = Engine()
    assert not engine.fast
    fired = []
    engine.call_soon(fired.append, "a")
    engine.schedule(0, fired.append, "b")
    assert not engine._ready  # everything heads to the heap
    seen = {}
    engine.schedule(1, lambda: seen.setdefault("session", engine.ff_begin()))
    engine.run()
    assert fired == ["a", "b"]
    assert seen == {"session": False}
