"""Ablation studies for the design choices DESIGN.md calls out.

1. **Task granularity** (§V-B: "8 tasks per section ... Having fewer
   tasks reduces the opportunities of overlapping updates transfer and
   computation.  Having more tasks can create overhead because it
   increases synchronization between replicas.")
2. **Scheduler policy** (§V-A: static block vs alternatives under load
   imbalance).
3. **Replica placement** (§VI: neighbouring nodes minimise network
   crossing; distant nodes lower correlated-failure risk).
4. **inout copy strategy** (§III-B2: copy-at-entry vs atomic updates
   "have a similar cost").
5. **MiniGhost stencil** (§V-D: why the stencil was *not*
   intra-parallelized).

Each study is a grid of registered scenarios (``ablation:*``).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import doubled_resource_efficiency, fixed_resource_efficiency
from ..apps.gtc import GtcConfig
from ..apps.hpccg import KernelBenchConfig
from ..apps.minighost import MiniGhostConfig
from ..intra import CopyStrategy, Tag
from ..api import run as _run, sweep as _sweep
from ..netmodel import GRID5000_NETWORK
from ..scenarios import Scenario, register_scenario
from .common import Experiment, Table, ms

DESCRIPTION = "Ablations — granularity, scheduler, placement, copies"


@dataclasses.dataclass
class AblationRow:
    setting: str
    value: _t.Any
    time: float
    efficiency: float


def granularity_sweep(task_counts: _t.Sequence[int] = (1, 2, 4, 8, 16,
                                                       32, 64),
                      n_logical: int = 8) -> _t.List[AblationRow]:
    """Intra efficiency of the sparsemv kernel vs tasks per section."""
    runs = _sweep(_granularity_scenarios(task_counts, n_logical))
    t_native = runs[0].timers["spmv"]
    rows = []
    for nt, intra in zip(task_counts, runs[1:]):
        t = intra.timers["spmv"]
        rows.append(AblationRow("tasks_per_section", nt, t,
                                fixed_resource_efficiency(t_native, t)))
    return rows


def _granularity_scenarios(task_counts: _t.Sequence[int],
                           n_logical: int = 8) -> _t.List[Scenario]:
    base = KernelBenchConfig(nx=32, ny=32, nz=16, reps=3,
                             kernels=("spmv",))
    points = [Scenario(app="hpccg_kernels", config=base,
                       n_logical=n_logical, mode="native")]
    points += [
        Scenario(app="hpccg_kernels",
                 config=dataclasses.replace(base.with_doubled_z(),
                                            tasks_per_section=nt),
                 n_logical=n_logical, mode="intra")
        for nt in task_counts]
    return points


def imbalance_program(ctx, comm, n_tasks=8):
    """Synthetic section with strongly imbalanced task costs (task i
    costs ∝ i+1): exposes the scheduler policies' balancing quality."""
    import numpy as np
    outs = [np.zeros(1) for _ in range(n_tasks)]
    rt = ctx.intra
    rt.section_begin()
    tid = rt.task_register(
        lambda c, o: o.fill(float(c[0])), [Tag.IN, Tag.OUT],
        cost=lambda c, o: (float(c[0]) * 1e6, 0.0))
    for i in range(n_tasks):
        rt.task_launch(tid, [np.array([i + 1.0]), outs[i]])
    yield from rt.section_end()
    return ctx.now


def _scheduler_scenarios(n_tasks: int = 8) -> _t.List[Scenario]:
    """One single-logical-rank intra scenario per scheduling policy,
    running the imbalanced synthetic section."""
    return [
        Scenario(app="repro.experiments.ablations:imbalance_program",
                 config=n_tasks, n_logical=1, mode="intra",
                 scheduler=name)
        for name in ("static-block", "round-robin", "cost-balanced")]


def scheduler_comparison(n_tasks: int = 8) -> _t.List[AblationRow]:
    """Section completion time under each scheduling policy for the
    imbalanced workload (lower is better)."""
    scenarios = _scheduler_scenarios(n_tasks)
    runs = _sweep(scenarios)
    rows = [AblationRow("scheduler", s.scheduler, run.wall_time, 0.0)
            for s, run in zip(scenarios, runs)]
    # efficiency relative to the best policy
    best = min(r.time for r in rows)
    for r in rows:
        r.efficiency = best / r.time
    return rows


def _placement_scenarios(spreads: _t.Sequence[int],
                         n_logical: int = 8) -> _t.List[Scenario]:
    hoppy = dataclasses.replace(GRID5000_NETWORK, hop_latency=2e-6)
    base = KernelBenchConfig(nx=32, ny=32, nz=16, reps=3,
                             kernels=("ddot",))
    points = [Scenario(app="hpccg_kernels", config=base,
                       n_logical=n_logical, mode="native", network=hoppy,
                       distance_model="linear")]
    points += [Scenario(app="hpccg_kernels",
                        config=base.with_doubled_z(),
                        n_logical=n_logical, mode="intra", network=hoppy,
                        distance_model="linear", spread=spread)
               for spread in spreads]
    return points


def placement_sweep(spreads: _t.Sequence[int] = (1, 4, 16),
                    n_logical: int = 8) -> _t.List[AblationRow]:
    """Intra kernel efficiency vs replica distance on a linear topology
    with per-hop latency (§VI's contention/correlation trade-off)."""
    runs = _sweep(_placement_scenarios(spreads, n_logical))
    t_native = runs[0].timers["ddot"]
    rows = []
    for spread, intra in zip(spreads, runs[1:]):
        t = intra.timers["ddot"]
        rows.append(AblationRow("replica_spread", spread, t,
                                fixed_resource_efficiency(t_native, t)))
    return rows


_COPY_STRATEGIES = (CopyStrategy.LAZY, CopyStrategy.EAGER,
                    CopyStrategy.ATOMIC)


def _copy_strategy_scenarios(n_logical: int = 4) -> _t.List[Scenario]:
    cfg = GtcConfig(particles_per_rank=16384, cells_per_rank=64, steps=3)
    return [Scenario(app="gtc", config=cfg, n_logical=n_logical,
                     mode="intra", copy_strategy=strategy)
            for strategy in _COPY_STRATEGIES]


def copy_strategy_comparison(n_logical: int = 4) -> _t.List[AblationRow]:
    """GTC wall time under the three inout-protection strategies —
    §III-B2 predicts near-parity ("a similar cost")."""
    runs = _sweep(_copy_strategy_scenarios(n_logical))
    rows = [AblationRow("copy_strategy", strategy.value, run.wall_time,
                        0.0)
            for strategy, run in zip(_COPY_STRATEGIES, runs)]
    best = min(r.time for r in rows)
    for r in rows:
        r.efficiency = best / r.time
    return rows


def _minighost_scenarios(n_logical: int = 8) -> _t.List[Scenario]:
    base = MiniGhostConfig(nx=32, ny=32, nz=16, steps=3)
    points = [Scenario(app="minighost", config=base,
                       n_logical=n_logical, mode="native")]
    points += [
        Scenario(app="minighost",
                 config=dataclasses.replace(base,
                                            stencil_in_section=stencil_in),
                 n_logical=n_logical, mode="intra")
        for stencil_in in (False, True)]
    return points


def minighost_stencil_ablation(n_logical: int = 8) -> _t.List[AblationRow]:
    """Put MiniGhost's stencil *into* sections and show it does not pay
    (§V-D: "the performance with intra-parallelization were around the
    same as without intra-parallelization")."""
    runs = _sweep(_minighost_scenarios(n_logical))
    native = runs[0]
    rows = []
    for stencil_in, intra in zip((False, True), runs[1:]):
        rows.append(AblationRow(
            "stencil_in_section", stencil_in, intra.wall_time,
            doubled_resource_efficiency(native.wall_time,
                                        intra.wall_time)))
    return rows


def inout_overhead(n_logical: int = 4) -> float:
    """Extra-copy overhead on GTC's affected tasks (paper: ≈ 6%).

    Returns copy time as a fraction of section task-compute time."""
    cfg = GtcConfig(particles_per_rank=32768, cells_per_rank=64, steps=3)
    run = _run(Scenario(app="gtc", config=cfg,
               n_logical=n_logical, mode="intra",
               copy_strategy=CopyStrategy.LAZY))
    compute = run.intra.get("task_compute_time", 0.0)
    copy = run.intra.get("copy_time", 0.0)
    return copy / compute if compute else 0.0


GRANULARITY_TABLE = Table(
    "granularity", "Ablation — task granularity (sparsemv)",
    (("tasks/section", "value"), ("intra efficiency", "efficiency")),
    granularity_sweep)
SCHEDULER_TABLE = Table(
    "scheduler", "Ablation — scheduler under imbalance",
    (("scheduler", "value"), ("time (ms)", ms("time")),
     ("relative", "efficiency")),
    scheduler_comparison)
PLACEMENT_TABLE = Table(
    "placement", "Ablation — replica placement",
    (("replica spread", "value"), ("efficiency", "efficiency")),
    placement_sweep)
COPY_STRATEGY_TABLE = Table(
    "copy_strategy", "Ablation — inout protection strategy",
    (("copy strategy", "value"), ("time (ms)", ms("time")),
     ("relative", "efficiency")),
    copy_strategy_comparison)
MINIGHOST_STENCIL_TABLE = Table(
    "minighost_stencil", "Ablation — MiniGhost stencil in sections",
    (("stencil in section", "value"), ("efficiency", "efficiency")),
    minighost_stencil_ablation)
EXPERIMENTS = (Experiment(
    "ablations", DESCRIPTION,
    (GRANULARITY_TABLE, SCHEDULER_TABLE, PLACEMENT_TABLE,
     COPY_STRATEGY_TABLE, MINIGHOST_STENCIL_TABLE),
    overridable=False),)


def _register_defaults() -> None:
    gran = _granularity_scenarios((1, 2, 4, 8, 16, 32, 64))
    register_scenario("ablation:granularity:native", gran[0],
                      "Granularity ablation — sparsemv native reference")
    for nt, s in zip((1, 2, 4, 8, 16, 32, 64), gran[1:]):
        register_scenario(
            f"ablation:granularity:nt{nt}", s,
            f"Granularity ablation — sparsemv intra, {nt} tasks/section")
    for s in _scheduler_scenarios():
        register_scenario(
            f"ablation:scheduler:{s.scheduler}", s,
            f"Scheduler ablation — imbalanced section, {s.scheduler}")
    place = _placement_scenarios((1, 4, 16))
    register_scenario("ablation:placement:native", place[0],
                      "Placement ablation — ddot native reference "
                      "(linear topology)")
    for spread, s in zip((1, 4, 16), place[1:]):
        register_scenario(
            f"ablation:placement:spread{spread}", s,
            f"Placement ablation — ddot intra, replica spread {spread}")
    for strategy, s in zip(_COPY_STRATEGIES, _copy_strategy_scenarios()):
        register_scenario(
            f"ablation:copy:{strategy.value}", s,
            f"inout-protection ablation — GTC intra, {strategy.value} "
            f"copies")
    mg = _minighost_scenarios()
    register_scenario("ablation:minighost-stencil:native", mg[0],
                      "MiniGhost stencil ablation — native reference")
    for stencil_in, s in zip((False, True), mg[1:]):
        where = "in" if stencil_in else "out"
        register_scenario(
            f"ablation:minighost-stencil:{where}", s,
            f"MiniGhost stencil ablation — intra, stencil "
            f"{'inside' if stencil_in else 'outside'} sections")


_register_defaults()
