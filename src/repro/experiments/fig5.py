"""Figure 5: HPCCG kernel study (5a) and application weak scaling (5b).

Methodology (paper §V-C): fixed physical resources; the native run uses
the base per-process problem, the replicated runs double the per-
logical-process problem (``with_doubled_z``).  Efficiency is therefore
``t_native / t_mode``.

Every figure point is a :class:`~repro.scenarios.Scenario`; the default
points are registered as ``fig5a:<kernel>:<mode>`` and
``fig5b:p<procs>:<mode>``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..api import sweep as _sweep
from ..apps.hpccg import HpccgConfig, KernelBenchConfig
from ..analysis import fixed_resource_efficiency, normalized_time
from ..scenarios import Scenario, baseline_overrides, register_scenario
from .common import MODE_LABELS, Experiment, Table, ms, three_mode_rows

KERNELS = ("waxpby", "ddot", "spmv")
MODES = ("native", "sdr", "intra")

DESCRIPTION_5A = "Figure 5a — HPCCG kernels (per-kernel efficiency)"
DESCRIPTION_5B = "Figure 5b — HPCCG weak scaling (full application)"


@dataclasses.dataclass
class Fig5aRow:
    """One bar group of Figure 5a."""

    kernel: str
    mode: str
    time: float                   #: mean time inside the kernel
    normalized: float             #: vs Open MPI
    efficiency: float
    exposed_update_time: float    #: the dashed "intra updates" area


def fig5a_scenarios(n_logical: int = 8,
                    base: _t.Optional[KernelBenchConfig] = None,
                    overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
                    ) -> _t.List[Scenario]:
    """The Figure 5a grid: (kernel-major, mode-minor) scenario points.

    Each kernel is benchmarked in isolation (its own run) so the intra
    runtime's exposed-update statistic is attributable to it.
    """
    base = base or KernelBenchConfig(nx=32, ny=32, nz=16, reps=3)
    ov = dict(overrides or {})
    bov = baseline_overrides(ov)
    points = []
    for kernel in KERNELS:
        cfg_native = dataclasses.replace(base, kernels=(kernel,))
        cfg_repl = cfg_native.with_doubled_z()
        for mode in MODES:
            s = Scenario(app="hpccg_kernels",
                         config=cfg_native if mode == "native"
                         else cfg_repl,
                         n_logical=n_logical, mode=mode)
            points.append(s.with_overrides(bov if mode == "native"
                                           else ov))
    return points


def fig5a(n_logical: int = 8,
          base: _t.Optional[KernelBenchConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig5aRow]:
    """Per-kernel normalized time + efficiency in the three modes."""
    runs = _sweep(fig5a_scenarios(n_logical, base, overrides))
    rows: _t.List[Fig5aRow] = []
    for k_idx, kernel in enumerate(KERNELS):
        group = runs[3 * k_idx:3 * k_idx + 3]
        t_native = group[0].timers[kernel]
        for run in group:
            t = run.timers[kernel]
            rows.append(Fig5aRow(
                kernel=kernel if kernel != "spmv" else "sparsemv",
                mode=MODE_LABELS[run.mode], time=t,
                normalized=normalized_time(t_native, t),
                efficiency=fixed_resource_efficiency(t_native, t),
                exposed_update_time=(run.intra.get("exposed_update_time",
                                                   0.0)
                                     if run.mode == "intra" else 0.0)))
    return rows


@dataclasses.dataclass
class Fig5bRow:
    """One point of Figure 5b (per mode, per process count)."""

    physical_processes: int
    mode: str
    time: float
    efficiency: float


def fig5b_scenarios(process_counts: _t.Sequence[int] = (8, 16, 32),
                    base: _t.Optional[HpccgConfig] = None,
                    overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
                    ) -> _t.List[Scenario]:
    """The Figure 5b grid (process-count-major, mode-minor).

    ``process_counts`` are *physical* process counts; the native run
    uses that many ranks, the replicated runs half as many logical
    ranks with the doubled per-logical problem.
    """
    base = base or HpccgConfig(nx=16, ny=16, nz=16, max_iter=6,
                               intra_kernels=frozenset({"ddot", "spmv"}))
    repl_cfg = base.with_doubled_z()
    ov = dict(overrides or {})
    bov = baseline_overrides(ov)
    points = []
    for procs in process_counts:
        if procs % 2:
            raise ValueError("physical process counts must be even")
        for mode in MODES:
            s = Scenario(app="hpccg",
                         config=base if mode == "native" else repl_cfg,
                         n_logical=procs if mode == "native"
                         else procs // 2,
                         mode=mode)
            points.append(s.with_overrides(bov if mode == "native"
                                           else ov))
    return points


def fig5b(process_counts: _t.Sequence[int] = (8, 16, 32),
          base: _t.Optional[HpccgConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig5bRow]:
    """HPCCG full-application weak scaling.

    Intra-parallelization is applied only to ddot and sparsemv ("since
    it does not provide good performance with waxpby", §V-C).
    """
    process_counts = tuple(process_counts)
    runs = _sweep(fig5b_scenarios(process_counts, base, overrides))
    return [Fig5bRow(procs, **row)
            for p_idx, procs in enumerate(process_counts)
            for row in three_mode_rows(*runs[3 * p_idx:3 * p_idx + 3],
                                       convention="fixed")]


FIG5A_TABLE = Table(
    "fig5a", "Figure 5a — HPCCG kernels",
    (("kernel", "kernel"), ("mode", "mode"), ("time (ms)", ms("time")),
     ("normalized", "normalized"), ("efficiency", "efficiency"),
     ("exposed updates (ms)", ms("exposed_update_time"))),
    fig5a)
FIG5B_TABLE = Table(
    "fig5b", "Figure 5b — HPCCG weak scaling",
    (("physical procs", "physical_processes"), ("mode", "mode"),
     ("time (ms)", ms("time")), ("efficiency", "efficiency")),
    fig5b)
EXPERIMENTS = (Experiment("fig5a", DESCRIPTION_5A, (FIG5A_TABLE,)),
               Experiment("fig5b", DESCRIPTION_5B, (FIG5B_TABLE,)))


def _register_defaults() -> None:
    for s, kernel, mode in zip(fig5a_scenarios(),
                               [k for k in KERNELS for _ in MODES],
                               list(MODES) * len(KERNELS)):
        register_scenario(
            f"fig5a:{kernel}:{mode}", s,
            f"Figure 5a point — HPCCG {kernel} kernel, {mode} mode")
    counts = (8, 16, 32)
    for s, procs, mode in zip(fig5b_scenarios(counts),
                              [p for p in counts for _ in MODES],
                              list(MODES) * len(counts)):
        register_scenario(
            f"fig5b:p{procs}:{mode}", s,
            f"Figure 5b point — HPCCG weak scaling, {procs} physical "
            f"processes, {mode} mode")


_register_defaults()
