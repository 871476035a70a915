"""Extension bench: efficiency under failures (paper §VI discussion).

"With intra-parallelization, it is important to restart failed replicas
as soon as possible, since speed-up of a logical process execution can
only be achieved if tasks are shared among multiple replicas."  We
quantify that: the earlier a replica dies, the longer the survivor runs
alone and the closer application efficiency falls to the SDR floor.
"""

from repro.experiments import failure_time_sweep
from repro.experiments.extensions import FAILURE_TIME_TABLE


def test_failure_time_sweep(save_table):
    rows = failure_time_sweep(fractions=(0.1, 0.5, 0.9))
    save_table("extension_failure_sweep", FAILURE_TIME_TABLE.render(rows))

    clean = rows[0]
    by_frac = {r.crash_fraction: r for r in rows[1:]}
    # no crash: the Figure 5b efficiency
    assert clean.efficiency > 0.75
    # an early crash degrades essentially to the SDR floor (survivor
    # executes everything for nearly the whole run)
    assert by_frac[0.1].efficiency < 0.58
    # the later the crash, the less efficiency is lost — monotone
    assert (by_frac[0.1].efficiency < by_frac[0.5].efficiency
            < by_frac[0.9].efficiency < clean.efficiency)
    # even the worst case never falls below the 50% replication wall
    # (minus a small recovery overhead)
    assert by_frac[0.1].efficiency > 0.45
