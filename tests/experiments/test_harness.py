"""Experiment-harness tests on deliberately tiny configurations (the
benchmarks run the full-size versions)."""

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.apps.minighost import MiniGhostConfig
from repro.experiments import (ccr_vs_replication, crossover_point,
                               fig5a, fig5b, fig6d, nodes_for,
                               scenario_for, three_mode_rows)
from repro.apps.hpccg import hpccg_kernel_bench
from repro.netmodel import GRID5000_MACHINE


SMALL_KB = KernelBenchConfig(nx=8, ny=8, nz=8, reps=1)


def run_mode(mode, program, n_logical, config):
    return repro.run(scenario_for(mode, program, n_logical, config),
                     cache=False)


def test_nodes_for_each_mode():
    assert nodes_for("native", 8, GRID5000_MACHINE) == 2
    assert nodes_for("sdr", 8, GRID5000_MACHINE, degree=2) == 4
    assert nodes_for("intra", 8, GRID5000_MACHINE, degree=2,
                     spread=2) == 6
    assert nodes_for("native", 1, GRID5000_MACHINE) == 1


def test_run_mode_aggregates():
    run = run_mode("native", hpccg_kernel_bench, 4, SMALL_KB)
    assert run.mode == "native"
    assert run.wall_time > 0
    assert {"waxpby", "ddot", "spmv"} <= set(run.timers)
    assert run.intra["tasks_executed"] > 0


def test_run_mode_replicated_uses_replica_zero():
    run = run_mode("intra", hpccg_kernel_bench, 4, SMALL_KB)
    assert run.intra["update_msgs_sent"] > 0
    assert run.wall_time > 0


def test_three_mode_rows_conventions():
    native = run_mode("native", hpccg_kernel_bench, 4, SMALL_KB)
    sdr = run_mode("sdr", hpccg_kernel_bench, 4,
                   SMALL_KB.with_doubled_z())
    intra = run_mode("intra", hpccg_kernel_bench, 4,
                     SMALL_KB.with_doubled_z())
    rows = three_mode_rows(native, sdr, intra, convention="fixed")
    assert [r["mode"] for r in rows] == ["Open MPI", "SDR-MPI", "intra"]
    assert rows[0]["efficiency"] == 1.0
    assert 0.4 < rows[1]["efficiency"] < 0.6
    rows_d = three_mode_rows(native, sdr, intra, convention="doubled")
    assert rows_d[1]["efficiency"] == pytest.approx(
        rows[1]["efficiency"] / 2)


def test_fig5a_tiny_has_expected_structure():
    rows = fig5a(n_logical=4, base=SMALL_KB)
    assert len(rows) == 9  # 3 kernels x 3 modes
    kernels = {r.kernel for r in rows}
    assert kernels == {"waxpby", "ddot", "sparsemv"}
    for r in rows:
        if r.mode == "Open MPI":
            assert r.efficiency == 1.0


def test_fig5b_rejects_odd_process_counts():
    with pytest.raises(ValueError):
        fig5b(process_counts=(7,))


def test_fig6d_tiny():
    rows = fig6d(n_logical=4,
                 config=MiniGhostConfig(nx=8, ny=8, nz=4, steps=2))
    by = {r.mode: r for r in rows}
    assert by["Open MPI"].efficiency == 1.0
    assert abs(by["SDR-MPI"].efficiency - 0.5) < 0.1


def test_background_rows_monotone():
    rows = ccr_vs_replication(proc_counts=(100, 10_000, 1_000_000))
    assert rows[0].ccr_efficiency > rows[-1].ccr_efficiency
    assert all(0 <= r.replication_efficiency <= 0.5 for r in rows)


def test_crossover_none_when_ccr_always_wins():
    rows = ccr_vs_replication(proc_counts=(10, 100),
                              node_mtbf_years=100.0,
                              checkpoint_minutes=0.1,
                              restart_minutes=0.1)
    assert crossover_point(rows) is None
