"""Same-timestamp batches: ``step()`` drains every event scheduled for
the head timestamp, in scheduling order, including the zero-delay
follow-ups they trigger; and taken sleeps keep their place in virtual
time whether or not they are ever yielded."""

from repro.simulate import Simulator


def _sleep_chain(sim, n, dt):
    for _ in range(n):
        yield sim.sleep(dt)
    return sim.now


def test_step_drains_same_time_batch():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.event(f"e{i}").succeed(i, delay=1.0).add_callback(
            lambda ev: fired.append(ev._value))
    sim.event("later").succeed("x", delay=2.0).add_callback(
        lambda ev: fired.append(ev._value))
    sim.step()
    # all three t=1 events in one step, in scheduling order; t=2 queued
    assert fired == [0, 1, 2]
    assert sim.now == 1.0
    sim.step()
    assert fired == [0, 1, 2, "x"]
    assert sim.now == 2.0


def test_step_includes_zero_delay_followups():
    sim = Simulator()
    order = []

    def chain(ev):
        order.append("first")
        sim.event("follow").succeed(delay=0.0).add_callback(
            lambda e: order.append("follow"))

    sim.event("head").succeed(delay=1.0).add_callback(chain)
    sim.step()
    # the zero-delay follow-up lands at the same timestamp => same batch
    assert order == ["first", "follow"]


def test_abandoned_sleep_still_fires_on_time():
    """A sleep taken but never yielded keeps its place in virtual time."""
    sim = Simulator()
    seen = []

    def body(sim):
        sim.sleep(1.0)                   # taken, never yielded
        yield sim.sleep(3.0)
        seen.append(sim.now)
        return sim.now

    p = sim.process(body(sim))
    sim.run()
    assert p.value == 3.0
    assert seen == [3.0]


def test_timeout_pool_recycles_unreferenced_sleeps():
    # white-box: processed sleeps nothing else references feed the
    # free list that the next sleep() draws from
    sim = Simulator()
    sim.process(_sleep_chain(sim, 500, 1.0))
    sim.run()
    assert len(sim._timeout_pool) >= 1
