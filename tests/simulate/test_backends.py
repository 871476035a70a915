"""Engine semantics cases: sleeps, kills, same-time order, conditions,
resources, ``step()``/``until`` boundaries, and sleeps that are held,
abandoned or re-yielded around the timeout free list.

Each case is parametrized by the engine name
:func:`~repro.simulate.get_engine_backend` reports — the name the
benchmark records as provenance — and checks that it names the engine a
plain ``Simulator()`` runs on.
"""

from __future__ import annotations

import pytest

from repro.simulate import (DeadlockError, ProcessKilled, Resource,
                            SimulationError, Simulator, Store,
                            get_engine_backend)

BACKENDS = [get_engine_backend()]


def _sim(backend):
    assert backend == get_engine_backend() == "python"
    return Simulator()


@pytest.mark.parametrize("backend", BACKENDS)
def test_sleep_chain_clock(backend):
    sim = _sim(backend)
    log = []

    def body(sim):
        for _ in range(5):
            yield sim.sleep(1.5)
            log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.5, 3.0, 4.5, 6.0, 7.5]
    assert sim.now == 7.5


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_time_events_fire_in_schedule_order(backend):
    sim = _sim(backend)
    order = []

    def body(sim, tag, delay):
        yield sim.sleep(delay)
        order.append(tag)

    for tag, delay in (("a", 1.0), ("b", 0.5), ("c", 1.0), ("d", 0.5)):
        sim.process(body(sim, tag, delay))
    sim.run()
    # ties break by scheduling order: b before d (0.5), a before c (1.0)
    assert order == ["b", "d", "a", "c"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_until_stops_clock_between_events(backend):
    sim = _sim(backend)

    def body(sim):
        yield sim.sleep(10.0)

    sim.process(body(sim))
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.peek() == 10.0
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_drains_one_timestamp(backend):
    sim = _sim(backend)
    order = []

    def spawner(sim):
        yield sim.sleep(1.0)
        order.append("parent")
        # zero-delay follow-on at the same timestamp must fire in the
        # same step() call
        ev = sim.event("follow")
        ev.succeed("v")
        got = yield ev
        order.append(("follow", got, sim.now))

    sim.process(spawner(sim))
    sim.step()   # start events at t=0
    sim.step()   # t=1 batch including the zero-delay follow-on
    assert order == ["parent", ("follow", "v", 1.0)]
    with pytest.raises(IndexError):
        sim.step()


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_sleeping_process(backend):
    sim = _sim(backend)
    woke = []

    def body(sim):
        yield sim.sleep(5.0)
        woke.append(sim.now)

    p = sim.process(body(sim))
    sim.run(until=1.0)
    p.kill()
    sim.run()
    assert woke == []
    assert p.killed
    assert sim.now == 5.0  # the orphaned wake still advances the clock


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_propagates_to_joiner(backend):
    sim = _sim(backend)
    caught = []

    def victim(sim):
        yield sim.sleep(5.0)

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


@pytest.mark.parametrize("backend", BACKENDS)
def test_process_failure_propagates(backend):
    sim = _sim(backend)

    def boom(sim):
        yield sim.sleep(1.0)
        raise ValueError("boom")

    sim.process(boom(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_exception_keeps_same_time_peers_fireable(backend):
    """An exception mid-batch must leave the unfired same-time events
    queued, so a second run() fires them."""
    sim = _sim(backend)
    ran = []

    def boom(sim):
        yield sim.sleep(1.0)
        raise ValueError("boom")

    def peer(sim, tag):
        yield sim.sleep(1.0)
        ran.append(tag)

    sim.process(boom(sim))
    sim.process(peer(sim, "x"))
    sim.process(peer(sim, "y"))
    with pytest.raises(ValueError):
        sim.run()
    sim.run()
    assert ran == ["x", "y"]
    assert sim.now == 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_resources_and_store(backend):
    sim = _sim(backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_conditions(backend):
    sim = _sim(backend)
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


# -- sleeps around the timeout free list -------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_sleep_token_held_and_yielded_later(backend):
    """Holding the token across other work must not confuse the
    timeout free list: the held timeout is referenced, so it is never
    recycled under the holder."""
    sim = _sim(backend)
    log = []

    def body(sim):
        t = sim.sleep(1.0)
        yield t
        log.append(sim.now)
        assert t.processed
        yield sim.sleep(1.0)
        log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.0, 2.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_sleep_then_yield_other_event_no_spurious_wake(backend):
    """A process that takes a sleep token but yields a *different*
    event must not be woken by the abandoned timeout."""
    sim = _sim(backend)
    woke = []

    def body(sim, ev):
        yield sim.sleep(1.0)          # primes the free list
        sim.sleep(2.0)                # taken, abandoned (fires at 3.0)
        got = yield ev                # real wait: fires at 5.0
        woke.append((sim.now, got))

    ev = sim.event("gate")
    sim.process(body(sim, ev))

    def trigger(sim, ev):
        yield sim.sleep(5.0)
        ev.succeed("go")

    sim.process(trigger(sim, ev))
    sim.run()
    assert woke == [(5.0, "go")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_sleep_abandoned_then_reyielded(backend):
    """An abandoned-then-reyielded token still works: it binds its
    waiter when finally yielded (before it fires)."""
    sim = _sim(backend)
    woke = []

    def body(sim):
        yield sim.sleep(1.0)
        t = sim.sleep(4.0)            # fires at 5.0
        yield sim.sleep(1.0)          # meanwhile, a nested wait
        yield t
        woke.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert woke == [5.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_final_sleep_then_return(backend):
    """sleep() taken, process returns without yielding: the timeout
    fires as a waiterless no-op that still advances the clock."""
    sim = _sim(backend)

    def body(sim):
        yield sim.sleep(1.0)
        sim.sleep(3.0)
        return "done"

    p = sim.process(body(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 4.0             # the orphan still drains


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_delay_sleep_chain(backend):
    sim = _sim(backend)
    ticks = []

    def body(sim):
        for i in range(4):
            yield sim.sleep(0.0)
            ticks.append((i, sim.now))

    sim.process(body(sim))
    sim.run()
    assert ticks == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]


# -- peek()/DeadlockError on a queue holding only orphaned wakes -------
# (e.g. after their waiters were killed: peek() still reports the wake
# and deadlock detection names only the blocked process)

def _orphan_queue():
    sim = _sim(get_engine_backend())

    def sleeper(sim):
        yield sim.sleep(5.0)

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
    sim = _sim(get_engine_backend())
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    assert Simulator().peek() == float("inf")
