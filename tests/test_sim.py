"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import Signal, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run(until=3.0)
        assert fired == []
        assert sim.now == 3.0
        sim.run(until=6.0)
        assert fired == [1]

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0

    def test_max_events_budget(self):
        sim = Simulator()
        count = []
        for _ in range(5):
            sim.schedule(1.0, count.append, 1)
        sim.run(max_events=3)
        assert len(count) == 3

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def chain(depth):
            times.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0]


class TestProcesses:
    def test_process_sleeps(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 2.5
            trace.append(sim.now)
            yield 1.5
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 2.5, 4.0]

    def test_process_waits_on_signal(self):
        sim = Simulator()
        signal = Signal("go")
        got = []

        def waiter():
            value = yield signal
            got.append((sim.now, value))

        sim.spawn(waiter())
        sim.schedule(3.0, signal.fire, "payload")
        sim.run()
        assert got == [(3.0, "payload")]

    def test_signal_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal()
        woken = []

        def waiter(tag):
            yield signal
            woken.append(tag)

        for tag in ("a", "b"):
            sim.spawn(waiter(tag))
        sim.schedule(1.0, signal.fire)
        sim.run()
        assert sorted(woken) == ["a", "b"]

    def test_signal_fire_returns_waiter_count(self):
        sim = Simulator()
        signal = Signal()
        sim.spawn(iter(x for x in [signal]))  # one waiter
        sim.run(until=0.0)
        assert signal.fire() == 1
        assert signal.fire() == 0

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(ConfigurationError, match="delay"):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def ticker(name, step):
            for _ in range(3):
                yield step
                trace.append((sim.now, name))

        sim.spawn(ticker("fast", 1.0))
        sim.spawn(ticker("slow", 2.0))
        sim.run()
        # At the t=2.0 tie, "slow"'s resume event was scheduled first
        # (at t=0) so FIFO tie-breaking runs it before "fast"'s.
        assert trace == [
            (1.0, "fast"),
            (2.0, "slow"),
            (2.0, "fast"),
            (3.0, "fast"),
            (4.0, "slow"),
            (6.0, "slow"),
        ]
