"""Task-granularity ablation (paper §V-B).

"All experiments with intra-parallelization use a granularity of 8
tasks per section ... Having fewer tasks reduces the opportunities of
overlapping updates transfer and computation.  Having more tasks can
create overhead because it increases synchronization between replicas."
"""

import dataclasses

import repro
from repro.analysis import fixed_resource_efficiency, format_table
from repro.apps.hpccg import KernelBenchConfig, hpccg_kernel_bench
from repro.experiments import granularity_sweep, scenario_for
from repro.experiments.ablations import GRANULARITY_TABLE


def test_granularity_sweep_sparsemv(save_table):
    rows = granularity_sweep(task_counts=(1, 2, 4, 8, 16, 32, 64))
    save_table("ablation_granularity_spmv", GRANULARITY_TABLE.render(rows))

    eff = {r.value: r.efficiency for r in rows}
    # 1 task per section: no work sharing possible beyond 1-vs-1 split
    # and no overlap -> clearly worst
    assert eff[1] < eff[8] - 0.2
    # the paper's default (8) is within a whisker of the best setting
    assert eff[8] > max(eff.values()) - 0.05


def test_granularity_sweep_ddot_shows_sync_overhead(save_table):
    """ddot's tiny per-task compute makes the per-task synchronization
    overhead visible: efficiency *degrades* beyond the sweet spot."""
    def sweep():
        base = KernelBenchConfig(nx=32, ny=32, nz=16, reps=3,
                                 kernels=("ddot",))
        native = repro.run(scenario_for("native", hpccg_kernel_bench, 8,
                                        base))
        t_native = native.timers["ddot"]
        out = []
        for nt in (2, 8, 64):
            cfg = dataclasses.replace(base.with_doubled_z(),
                                      tasks_per_section=nt)
            intra = repro.run(scenario_for("intra", hpccg_kernel_bench, 8,
                                           cfg))
            out.append((nt, fixed_resource_efficiency(
                t_native, intra.timers["ddot"])))
        return out

    rows = sweep()
    table = format_table(["tasks/section", "intra efficiency"],
                         [[nt, e] for nt, e in rows],
                         title="Granularity ablation, ddot")
    save_table("ablation_granularity_ddot", table)
    eff = dict(rows)
    # too many tasks: synchronization overhead dominates the tiny
    # per-task compute (the paper's "more tasks can create overhead")
    assert eff[64] < eff[8]
