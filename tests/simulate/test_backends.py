"""Engine semantics cases: timeouts, kills, same-time order,
conditions, resources, ``until`` boundaries, and timeouts that are held,
abandoned or re-yielded.

Each case runs on the ``sim`` fixture, whose id is the engine name
:func:`~repro.simulate.get_engine_backend` reports — the name the
benchmark records as provenance.
"""

from __future__ import annotations

import pytest

from repro.simulate import (DeadlockError, ProcessKilled, Resource,
                            SimulationError, Simulator, Store,
                            get_engine_backend)


@pytest.fixture(params=[get_engine_backend()])
def sim():
    """A plain ``Simulator()``; the param only names the engine in the
    test id."""
    return Simulator()


def test_engine_backend_is_the_heap_engine():
    assert get_engine_backend() == "python"


def test_sleep_chain_clock(sim):
    log = []

    def body(sim):
        for _ in range(5):
            yield sim.timeout(1.5)
            log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.5, 3.0, 4.5, 6.0, 7.5]
    assert sim.now == 7.5


def test_same_time_events_fire_in_schedule_order(sim):
    order = []

    def body(sim, tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    for tag, delay in (("a", 1.0), ("b", 0.5), ("c", 1.0), ("d", 0.5)):
        sim.process(body(sim, tag, delay))
    sim.run()
    # ties break by scheduling order: b before d (0.5), a before c (1.0)
    assert order == ["b", "d", "a", "c"]


def test_until_stops_clock_between_events(sim):

    def body(sim):
        yield sim.timeout(10.0)

    sim.process(body(sim))
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.peek() == 10.0
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_kill_sleeping_process(sim):
    woke = []

    def body(sim):
        yield sim.timeout(5.0)
        woke.append(sim.now)

    p = sim.process(body(sim))
    sim.run(until=1.0)
    p.kill()
    sim.run()
    assert woke == []
    assert p.killed
    assert sim.now == 5.0  # the orphaned wake still advances the clock


def test_kill_propagates_to_joiner(sim):
    caught = []

    def victim(sim):
        yield sim.timeout(5.0)

    def joiner(sim, p):
        try:
            yield p
        except ProcessKilled as exc:
            caught.append(str(exc))

    p = sim.process(victim(sim), name="victim")
    sim.process(joiner(sim, p))
    sim.run(until=1.0)
    p.kill()
    sim.run()
    assert len(caught) == 1


def test_process_failure_propagates(sim):

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(boom(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_exception_keeps_same_time_peers_fireable(sim):
    """An exception mid-batch must leave the unfired same-time events
    queued, so a second run() fires them."""
    ran = []

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def peer(sim, tag):
        yield sim.timeout(1.0)
        ran.append(tag)

    sim.process(boom(sim))
    sim.process(peer(sim, "x"))
    sim.process(peer(sim, "y"))
    with pytest.raises(ValueError):
        sim.run()
    sim.run()
    assert ran == ["x", "y"]
    assert sim.now == 1.0


def test_resources_and_store(sim):
    log = []

    res = Resource(sim, capacity=1, name="r")
    store = Store(sim, name="s")

    def holder(sim):
        yield from res.hold(2.0)
        log.append(("released", sim.now))

    def contender(sim):
        yield res.request()
        log.append(("acquired", sim.now))
        res.release()
        store.put("token")

    def consumer(sim):
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(holder(sim))
    sim.process(contender(sim))
    sim.process(consumer(sim))
    sim.run()
    assert log == [("released", 2.0), ("acquired", 2.0),
                   ("got", "token", 2.0)]


def test_conditions(sim):
    got = []

    def body(sim):
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(2.0, value="two")
        first = yield sim.any_of([t1, t2])
        got.append((sim.now, first))
        rest = yield sim.all_of([t2])
        got.append((sim.now, rest))

    sim.process(body(sim))
    sim.run()
    assert got == [(1.0, (0, "one")), (2.0, ["two"])]


# -- timeouts held, abandoned or re-yielded ----------------------------

def test_sleep_token_held_and_yielded_later(sim):
    """A timeout held by its process stays the same processed event
    after it fired."""
    log = []

    def body(sim):
        t = sim.timeout(1.0)
        yield t
        log.append(sim.now)
        assert t.processed
        yield sim.timeout(1.0)
        log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.0, 2.0]


def test_sleep_then_yield_other_event_no_spurious_wake(sim):
    """A process that takes a timeout but yields a *different* event
    must not be woken by the abandoned timeout."""
    woke = []

    def body(sim, ev):
        yield sim.timeout(1.0)
        sim.timeout(2.0)              # taken, abandoned (fires at 3.0)
        got = yield ev                # real wait: fires at 5.0
        woke.append((sim.now, got))

    ev = sim.event("gate")
    sim.process(body(sim, ev))

    def trigger(sim, ev):
        yield sim.timeout(5.0)
        ev.succeed("go")

    sim.process(trigger(sim, ev))
    sim.run()
    assert woke == [(5.0, "go")]


def test_sleep_abandoned_then_reyielded(sim):
    """An abandoned-then-reyielded timeout still works: it binds its
    waiter when finally yielded (before it fires)."""
    woke = []

    def body(sim):
        yield sim.timeout(1.0)
        t = sim.timeout(4.0)          # fires at 5.0
        yield sim.timeout(1.0)        # meanwhile, a nested wait
        yield t
        woke.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert woke == [5.0]


def test_final_sleep_then_return(sim):
    """A timeout taken, process returns without yielding it: it
    fires as a waiterless no-op that still advances the clock."""

    def body(sim):
        yield sim.timeout(1.0)
        sim.timeout(3.0)
        return "done"

    p = sim.process(body(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 4.0             # the orphan still drains


def test_zero_delay_sleep_chain(sim):
    ticks = []

    def body(sim):
        for i in range(4):
            yield sim.timeout(0.0)
            ticks.append((i, sim.now))

    sim.process(body(sim))
    sim.run()
    assert ticks == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]


# -- peek()/DeadlockError on a queue holding only orphaned wakes -------
# (e.g. after their waiters were killed: peek() still reports the wake
# and deadlock detection names only the blocked process)

def _orphan_queue():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(5.0)

    def stuck(sim, ev):
        yield ev

    p = sim.process(sleeper(sim), name="sleeper")
    ev = sim.event("never")
    sim.process(stuck(sim, ev), name="stuck")
    sim.run(until=1.0)
    p.kill()
    return sim


def test_peek_agrees_on_orphan_only_queue():
    sim = _orphan_queue()
    # drain the kill-propagation event; only the killed sleeper's
    # waiterless wake remains queued
    sim.run(until=2.0)
    assert sim.peek() == 5.0


def test_deadlock_reporting_agrees_on_orphan_only_queue():
    sim = _orphan_queue()
    with pytest.raises(DeadlockError) as exc:
        sim.run(detect_deadlock=True)
    msg = str(exc.value)
    assert "stuck" in msg and "sleeper" not in msg
    assert sim.now == 5.0             # orphaned wakes still advance time


def test_peek_sees_unconsolidated_rows():
    """Timeouts scheduled but not yet run are part of the queue and
    must be visible to peek()."""
    sim = Simulator()
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    assert Simulator().peek() == float("inf")
