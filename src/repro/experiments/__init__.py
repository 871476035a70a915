"""Experiment harness regenerating every figure of the paper (S14).

Importing this package registers every figure-point scenario with the
:mod:`repro.scenarios` registry (``fig5a:*``, ``fig5b:*``, ``fig6*:*``,
``ablation:*``, ``ext:*``); the example scenarios register through
:mod:`repro.scenarios.catalog`.
"""

from .ablations import (AblationRow, copy_strategy_comparison,
                        granularity_sweep, inout_overhead,
                        minighost_stencil_ablation, placement_sweep,
                        scheduler_comparison)
from .background import BackgroundRow, ccr_vs_replication, crossover_point
from .common import (ModeRun, nodes_for, scenario_for,
                     sweep_scenarios, three_mode_rows)
from .extensions import (DegreeSweepRow, FailureSweepRow, PoissonRow,
                         degree_sweep, failure_time_sweep,
                         poisson_failure_rows)
from .fig5 import (Fig5aRow, Fig5bRow, fig5a, fig5a_scenarios, fig5b,
                   fig5b_scenarios)
from .fig6 import Fig6Row, fig6a, fig6b, fig6c, fig6d

__all__ = [
    "AblationRow", "BackgroundRow", "Fig5aRow", "Fig5bRow", "Fig6Row",
    "ModeRun", "PoissonRow", "ccr_vs_replication",
    "copy_strategy_comparison", "crossover_point", "fig5a",
    "fig5a_scenarios", "fig5b", "fig5b_scenarios", "fig6a", "fig6b",
    "fig6c", "fig6d", "granularity_sweep", "inout_overhead",
    "DegreeSweepRow", "FailureSweepRow", "degree_sweep",
    "failure_time_sweep", "minighost_stencil_ablation", "nodes_for",
    "placement_sweep", "poisson_failure_rows",
    "scenario_for", "scheduler_comparison", "sweep_scenarios",
    "three_mode_rows",
]
