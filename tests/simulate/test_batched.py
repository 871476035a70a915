"""A timeout taken but never yielded keeps its place in virtual time."""

from repro.simulate import Simulator


def test_abandoned_sleep_still_fires_on_time():
    """A timeout taken but never yielded still fires, and the process
    that abandoned it wakes on the one it yields."""
    sim = Simulator()
    seen = []

    def body(sim):
        sim.timeout(1.0)                 # taken, never yielded
        yield sim.timeout(3.0)
        seen.append(sim.now)
        return sim.now

    p = sim.process(body(sim))
    sim.run()
    assert p.value == 3.0
    assert seen == [3.0]
