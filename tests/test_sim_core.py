"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


def test_timeout_advances_clock(sim):
    def body():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(body()) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order(sim):
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_ties_broken_by_schedule_order(sim):
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_process_returns_value(sim):
    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run_process(parent()) == 42


def test_joining_finished_process_still_delivers(sim):
    def child():
        yield sim.timeout(1)
        return "done"

    def parent(proc):
        yield sim.timeout(5)  # child finished long ago
        value = yield proc
        return value

    child_proc = sim.process(child())
    assert sim.run_process(parent(child_proc)) == "done"


def test_event_succeed_delivers_value(sim):
    event = sim.event()

    def setter():
        yield sim.timeout(2)
        event.succeed("payload")

    def getter():
        value = yield event
        return (sim.now, value)

    sim.process(setter())
    assert sim.run_process(getter()) == (2, "payload")


def test_event_fail_raises_in_waiter(sim):
    event = sim.event()

    def setter():
        yield sim.timeout(1)
        event.fail(ValueError("boom"))

    def getter():
        try:
            yield event
        except ValueError as exc:
            return str(exc)

    sim.process(setter())
    assert sim.run_process(getter()) == "boom"


def test_unhandled_process_failure_surfaces(sim):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_finished_process_without_joiner_pushes_no_entry(sim):
    def child():
        return "done"
        yield  # pragma: no cover - makes this a generator

    proc = sim.process(child())
    sim.step()  # the bootstrap call runs the body to completion
    assert proc.triggered and proc.ok and proc.value == "done"
    assert sim._heap == []
    assert sim.executed_steps == 1

    def late_joiner():
        value = yield proc
        return value

    assert sim.run_process(late_joiner()) == "done"


def test_conditions_over_settled_processes_fire(sim):
    def child(value):
        return value
        yield  # pragma: no cover - makes this a generator

    procs = [sim.process(child(v)) for v in (1, 2)]
    sim.run()
    assert all(p.triggered for p in procs)

    def parent():
        values = yield sim.all_of(procs)
        first = yield sim.any_of(procs)
        return (sorted(values), first.value)

    assert sim.run_process(parent()) == ([1, 2], 1)


def test_schedule_call_with_delay(sim):
    calls = []
    sim._schedule_call(lambda: calls.append(sim.now), 0.25)
    sim._schedule_call(lambda: calls.append(sim.now))
    sim.run()
    assert calls == [0.0, 0.25]
    assert sim.executed_steps == 2


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_from_composition(sim):
    def inner():
        yield sim.timeout(1)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert sim.run_process(outer()) == 20
    assert sim.now == 2


def test_any_of_returns_first(sim):
    def body():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(9, value="slow")
        winner = yield AnyOf(sim, [fast, slow])
        return winner.value

    assert sim.run_process(body()) == "fast"


def test_all_of_waits_for_everything(sim):
    def body():
        events = [sim.timeout(d, value=d) for d in (3, 1, 2)]
        values = yield AllOf(sim, events)
        return (sim.now, sorted(values))

    assert sim.run_process(body()) == (3, [1, 2, 3])


def test_all_of_empty_triggers_immediately(sim):
    def body():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(body()) == []


def test_run_until_stops_clock(sim):
    def forever():
        while True:
            yield sim.timeout(1)

    sim.process(forever())
    sim.run(until=10)
    assert sim.now == 10


def test_deadlock_detected_by_run_process(sim):
    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_determinism_same_seed_same_history():
    def run_once():
        sim = Simulator()
        log = []

        def worker(tag, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((round(sim.now, 6), tag))

        sim.process(worker("a", 0.5))
        sim.process(worker("b", 0.7))
        sim.run()
        return log

    assert run_once() == run_once()
