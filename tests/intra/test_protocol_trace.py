"""Protocol-shape assertions (Figure 1 of the paper).

Classic replication: both replicas execute the computation step w.
Intra-parallelization: the step splits into tasks t1/t2 executed in
parallel on the two replicas, followed by a cross-update exchange.
"""

import numpy as np
import pytest

from repro.intra import (Intra_Section_begin, Intra_Section_end,
                         Intra_Task_launch, Intra_Task_register, Tag,
                         launch_intra_job, launch_sdr_job)


def two_task_program(ctx, comm):
    """Figure 1's pattern: recv m0/m1, compute w as {t1, t2}, send
    m2/m3."""
    if comm.rank == 1:
        yield from comm.send(np.ones(4), dest=0, tag=0)   # m0
        yield from comm.send(np.ones(4), dest=0, tag=1)   # m1
        m2 = yield from comm.recv(source=0, tag=2)
        m3 = yield from comm.recv(source=0, tag=3)
        return float(m2.sum() + m3.sum())
    m0 = yield from comm.recv(source=1, tag=0)
    m1 = yield from comm.recv(source=1, tag=1)
    w = np.zeros(8)
    src = np.concatenate([m0, m1])
    Intra_Section_begin(ctx)
    tid = Intra_Task_register(
        ctx, lambda a, o: np.multiply(a, 5.0, out=o), [Tag.IN, Tag.OUT],
        cost=lambda a, o: (a.size, 16.0 * a.size))
    Intra_Task_launch(ctx, tid, [src[:4], w[:4]])   # t1
    Intra_Task_launch(ctx, tid, [src[4:], w[4:]])   # t2
    yield from Intra_Section_end(ctx)
    yield from comm.send(w[:4], dest=1, tag=2)      # m2
    yield from comm.send(w[4:], dest=1, tag=3)      # m3
    return float(w.sum())


def test_intra_splits_w_into_t1_t2(make_world):
    world = make_world()
    job = launch_intra_job(world, two_task_program, 2)
    world.run()
    # correctness of the full message+section pipeline
    for row in job.results():
        for v in row:
            assert v == pytest.approx(40.0)
    # the two replicas of rank 0 each executed exactly one task (t1, t2)
    r0 = job.manager.replicas[0]
    execs = [info.ctx.intra.stats.tasks_executed for info in r0]
    assert execs == [1, 1]
    # each shipped one update to its sibling
    sends = [info.ctx.intra.stats.update_msgs_sent for info in r0]
    assert sends == [1, 1]


def test_classic_replication_duplicates_w(make_world):
    world = make_world()
    job = launch_sdr_job(world, two_task_program, 2)
    world.run()
    for row in job.results():
        for v in row:
            assert v == pytest.approx(40.0)
    r0 = job.manager.replicas[0]
    execs = [info.ctx.intra.stats.tasks_executed for info in r0]
    assert execs == [2, 2]  # both replicas executed both tasks (w and w')


def test_intra_section_hooks_fire_in_order(make_world):
    world = make_world()
    job = launch_intra_job(world, two_task_program, 2)
    seen = []
    for name in ("section_enter", "task_executed", "update_injected",
                 "section_exit"):
        job.manager.hooks.subscribe(
            name, lambda name=name, **kw: seen.append((name, kw)))
    world.run()
    names = [n for n, kw in seen
             if kw.get("logical_rank") == 0 and kw.get("replica_id") == 0]
    assert names[0] == "section_enter"
    assert "task_executed" in names
    assert "update_injected" in names
    assert names[-1] == "section_exit"
    assert (names.index("task_executed")
            < names.index("update_injected"))


def test_intra_parallel_section_halves_compute_time(make_world):
    """Compute-dominated two-task section: each replica charges half the
    compute of the SDR run (the parallel speed-up of Figure 1b)."""
    def program(ctx, comm):
        w = np.zeros(2)
        Intra_Section_begin(ctx)
        tid = Intra_Task_register(
            ctx, lambda o: o.fill(1.0), [Tag.OUT],
            cost=lambda o: (1e6, 0.0))  # 1 ms at 1 Gflop/s
        Intra_Task_launch(ctx, tid, [w[:1]])
        Intra_Task_launch(ctx, tid, [w[1:]])
        yield from Intra_Section_end(ctx)
        return ctx.intra.stats.task_compute_time

    world = make_world()
    sdr = launch_sdr_job(world, program, 1)
    world.run()
    world2 = make_world()
    intra = launch_intra_job(world2, program, 1)
    world2.run()
    t_sdr = sdr.results()[0][0]
    t_intra = intra.results()[0][0]
    assert t_sdr == pytest.approx(2e-3)
    assert t_intra == pytest.approx(1e-3)
