"""Observing a run does not change it.

A tiny HPCCG solve (the ``test_determinism.py`` configuration) in
native, SDR and intra mode — failure-free, and with one replica crashed
mid-solve — runs
once untraced and once under ``Simulator(trace=)``.  The two runs must
return the same results, clocks and per-process charges, and the trace
hook must be called once per scheduled event: every event the engine
schedules is processed in the one ``Simulator.run`` loop the hook sits
in, so none escapes it.
"""

from __future__ import annotations

import pytest

from repro.apps.hpccg import HpccgConfig, hpccg_program
from repro.intra import launch_mode
from repro.mpi import MpiWorld
from repro.netmodel import GRID5000_MACHINE, GRID5000_NETWORK, Cluster
from repro.replication import FailureInjector

#: crash replica 1 of logical rank 0 at this virtual time: mid-solve
#: (the failure-free solve ends after ~73 µs in SDR, ~150 µs in intra)
CRASH_AT = 30e-6

CASES = [("native", False), ("sdr", False), ("sdr", True),
         ("intra", False), ("intra", True)]


def _run(mode, crash, trace=None):
    config = HpccgConfig(nx=4, ny=4, nz=8, max_iter=3,
                         intra_kernels=frozenset({"ddot", "spmv"}))
    world = MpiWorld(Cluster(4, GRID5000_MACHINE), GRID5000_NETWORK,
                     trace=trace)
    job = launch_mode(mode, world, hpccg_program, 2, args=(config,))
    if crash:
        FailureInjector(job.manager).kill_at(0, 1, CRASH_AT)
    world.run()
    outcome = repr((job.results(), world.sim.now,
                    [(ctx.name, ctx.compute_time, sorted(ctx.timers.items()))
                     for ctx in world.contexts]))
    return outcome, world.sim


@pytest.mark.parametrize("mode,crash", CASES,
                         ids=[f"{m}-{'crash' if c else 'clean'}"
                              for m, c in CASES])
def test_traced_run_equals_untraced(mode, crash):
    untraced, _ = _run(mode, crash)
    calls = []
    traced, sim = _run(mode, crash,
                       trace=lambda time, event: calls.append(time))
    assert traced == untraced
    assert len(calls) == sim._seq
    assert calls == sorted(calls)
    if crash:
        assert "ProcessKilled" in traced
