"""Discrete-event simulator: clock monotonicity, event ordering,
cancellation, and run bounds."""

import pytest

from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.simulation import Clock, Scheduler


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            Clock(-1.0)

    def test_advance(self):
        clock = Clock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_backwards_rejected(self):
        clock = Clock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_allowed(self):
        clock = Clock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.call_after(2.0, lambda: order.append("late"))
        scheduler.call_after(1.0, lambda: order.append("early"))
        scheduler.run()
        assert order == ["early", "late"]

    def test_fifo_at_equal_times(self):
        scheduler = Scheduler()
        order = []
        for index in range(5):
            scheduler.call_at(1.0, lambda i=index: order.append(i))
        scheduler.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_follows_events(self):
        scheduler = Scheduler()
        times = []
        scheduler.call_after(0.5, lambda: times.append(scheduler.now))
        scheduler.call_after(1.5, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [0.5, 1.5]

    def test_cancel(self):
        scheduler = Scheduler()
        fired = []
        event = scheduler.call_after(1.0, lambda: fired.append(1))
        event.cancel()
        scheduler.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        scheduler = Scheduler()
        event = scheduler.call_after(1.0, lambda: None)
        event.cancel()
        event.cancel()
        scheduler.run()

    def test_scheduling_in_the_past_rejected(self):
        scheduler = Scheduler()
        scheduler.call_after(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().call_after(-0.1, lambda: None)

    def test_run_until(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_after(1.0, lambda: fired.append("a"))
        scheduler.call_after(3.0, lambda: fired.append("b"))
        scheduler.run(until=2.0)
        assert fired == ["a"]
        assert scheduler.now == 2.0
        scheduler.run()
        assert fired == ["a", "b"]

    def test_run_until_inclusive(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_at(2.0, lambda: fired.append("edge"))
        scheduler.run(until=2.0)
        assert fired == ["edge"]

    def test_events_scheduled_during_run(self):
        scheduler = Scheduler()
        order = []

        def first():
            order.append("first")
            scheduler.call_after(1.0, lambda: order.append("chained"))

        scheduler.call_after(1.0, first)
        scheduler.run()
        assert order == ["first", "chained"]
        assert scheduler.now == 2.0

    def test_max_events_guard(self):
        scheduler = Scheduler()

        def forever():
            scheduler.call_after(0.001, forever)

        scheduler.call_after(0.001, forever)
        with pytest.raises(SimulationError):
            scheduler.run_until_idle(max_events=100)

    def test_run_until_with_max_events_reaches_until(self):
        # max_events stops the loop after draining everything ≤ until:
        # the documented "clock left at until" contract must still hold.
        scheduler = Scheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            scheduler.call_at(time, lambda t=time: fired.append(t))
        scheduler.run(until=5.0, max_events=3)
        assert fired == [1.0, 2.0, 3.0]
        assert scheduler.now == 5.0

    def test_run_max_events_with_pending_event_keeps_clock(self):
        # An event at 3.0 ≤ until is still pending when max_events stops
        # the loop; the clock must not jump past it (that would poison
        # the next step() with a backwards clock move).
        scheduler = Scheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            scheduler.call_at(time, lambda t=time: fired.append(t))
        scheduler.run(until=5.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert scheduler.now == 2.0
        scheduler.run(until=5.0)  # resumes cleanly, no SimulationError
        assert fired == [1.0, 2.0, 3.0]
        assert scheduler.now == 5.0

    def test_run_until_past_queue_with_max_events(self):
        # Pending events beyond until don't block the clock contract.
        scheduler = Scheduler()
        scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(9.0, lambda: None)
        scheduler.run(until=5.0, max_events=10)
        assert scheduler.now == 5.0
        assert len(scheduler._queue) == 1

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

    def test_events_processed_counter(self):
        registry = MetricsRegistry()
        scheduler = Scheduler(metrics=registry)
        for _ in range(3):
            scheduler.call_after(1.0, lambda: None)
        scheduler.run()
        assert registry.counter("scheduler.events_processed").value == 3
