"""Crash injection lands inside a section at the exact scheduled virtual
time: the victim stops there, the tasks it had not reached never run on
it, and the survivors finish with the values of the failure-free run
(SDR survivors recompute everything; work-sharing survivors re-execute
the victim's unfinished tasks)."""

import numpy as np

from repro.intra import Tag, launch_intra_job, launch_sdr_job
from repro.replication import FailureInjector
from tests.intra.conftest import waxpby_cost, waxpby_task


def sectioned_program(ctx, comm, n=64, n_tasks=8, n_sections=5):
    """Back-to-back sections over a rank-dependent vector, mixing
    zero-cost and costed tasks, plus a run_local stretch."""
    x = np.arange(n, dtype=np.float64) + comm.rank
    y = np.ones(n, dtype=np.float64)
    w = np.zeros(n, dtype=np.float64)
    rt = ctx.intra
    for s in range(n_sections):
        with ctx.region("sections"):
            rt.section_begin()
            tid = rt.task_register(
                waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
                cost=waxpby_cost)
            free = rt.task_register(
                waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT])
            ts = n // n_tasks
            for i in range(n_tasks):
                sl = slice(i * ts, (i + 1) * ts)
                rt.task_launch(tid, [2.0, x[sl], 3.0, y[sl], w[sl]])
            # a zero-cost task in the middle of the section
            rt.task_launch(free, [1.0, w[:ts], 0.0, y[:ts], w[:ts]])
            yield from rt.section_end()
        yield from rt.run_local(waxpby_task, [1.0, w, float(s), y, x],
                                waxpby_cost)
    return ctx.now, float(x.sum()), float(w.sum())


def sharing_program(ctx, comm, n=64, n_tasks=8, n_sections=4):
    """Work-shared sections mixing update-sending tasks (OUT), silent
    tasks (IN-only) and INOUT tasks, plus a run_local stretch between
    sections."""
    x = np.arange(n, dtype=np.float64) + comm.lrank
    y = np.ones(n, dtype=np.float64)
    w = np.zeros(n, dtype=np.float64)
    z = np.full(n, 2.0)
    rt = ctx.intra
    for s in range(n_sections):
        rt.section_begin()
        out_t = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
            cost=waxpby_cost)
        silent = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.IN])
        inout_t = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.INOUT],
            cost=waxpby_cost)
        ts = n // n_tasks
        for i in range(n_tasks):
            sl = slice(i * ts, (i + 1) * ts)
            if i % 3 == 2:
                rt.task_launch(inout_t, [2.0, x[sl], 1.0, y[sl], z[sl]])
            else:
                rt.task_launch(out_t, [2.0, x[sl], 3.0, y[sl], w[sl]])
            if i % 2 == 0:
                rt.task_launch(silent, [1.0, x[sl], 0.0, y[sl], x[sl]])
        yield from rt.section_end()
        yield from rt.run_local(waxpby_task, [1.0, w, float(s), y, x],
                                waxpby_cost)
    return ctx.now, float(x.sum()), float(w.sum()), float(z.sum())


def _run(make_world, launch, program, crash=None):
    world = make_world()
    job = launch(world, program, 2)
    if crash is not None:
        FailureInjector(job.manager).kill_at(*crash)
    world.run()
    return job


def _survivor_values(job):
    """Each surviving replica's result minus its clock."""
    return [info.app_process.value[1:]
            for row in job.manager.replicas for info in row if info.alive]


def test_sdr_crash_lands_mid_section_at_exact_time(make_world):
    clean = _run(make_world, launch_sdr_job, sectioned_program)
    crash_at = clean.world.sim.now * 0.41
    job = _run(make_world, launch_sdr_job, sectioned_program,
               crash=(0, 1, crash_at))
    victim = job.manager.replicas[0][1]
    assert not victim.alive and victim.app_process.killed
    assert victim.crash_time == crash_at
    stats = victim.ctx.intra.stats
    assert stats.tasks_executed < stats.tasks_launched   # inside a section
    expected = _survivor_values(clean)
    assert _survivor_values(job) == expected[:1] + expected[2:]


def test_intra_timed_crash_lands_mid_section_at_exact_time(make_world):
    clean = _run(make_world, launch_intra_job, sharing_program)
    crash_at = clean.world.sim.now * 0.37
    job = _run(make_world, launch_intra_job, sharing_program,
               crash=(1, 0, crash_at))
    victim = job.manager.replicas[1][0]
    assert not victim.alive and victim.app_process.killed
    assert victim.crash_time == crash_at
    assert any(info.ctx.intra.stats.recoveries
               for info in job.manager.replicas[1] if info.alive)
    expected = _survivor_values(clean)
    assert _survivor_values(job) == expected[:2] + expected[3:]
