"""Extension experiments beyond the paper's figures.

The paper's evaluation is failure-free (§VI: "The results presented in
Section V only evaluate the efficiency of intra-parallelization in
failure-free scenarios ... Analyzing the exact efficiency of
intra-parallelization at extreme scale would deserve its own study").
These experiments take the first steps of that study with the
declarative failure schedules of :mod:`repro.scenarios`:

* :func:`failure_time_sweep` — application efficiency as a function of
  *when* a replica dies (a :class:`~repro.scenarios.FixedFailures`
  schedule per crash time): the earlier the crash, the longer the
  survivor computes alone and the closer efficiency falls toward the
  SDR floor — quantifying §VI's argument that failed replicas should be
  restarted quickly.
* :func:`degree_sweep` — intra-parallelization at replication degree
  1–3: work per replica shrinks like 1/d but update traffic grows like
  (d−1), showing why degree 2 is the sweet spot the paper assumes.
* :func:`poisson_failure_rows` — one seeded
  :class:`~repro.scenarios.PoissonFailures` workload run in all three
  modes: the stochastic schedule is a pure function of its seed, so the
  crash times (and hence every result) are bit-identical across runs,
  processes and hosts.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import fixed_resource_efficiency
from ..apps.hpccg import HpccgConfig
from ..api import sweep as _sweep
from ..scenarios import (FixedFailures, PoissonFailures, Scenario,
                         register_scenario)
from .common import Experiment, Table, ms

DESCRIPTION = ("Extensions — crash timing, replication degree, "
               "seeded Poisson failures")

_FAILURE_CFG = HpccgConfig(nx=16, ny=16, nz=32, max_iter=6,
                           intra_kernels=frozenset({"ddot", "spmv"}))

#: the registered seeded-failure demo workload: HPCCG under Poisson
#: crash arrivals (a few failures land mid-run), same seed everywhere
POISSON_DEMO = PoissonFailures(rate=1500.0, seed=2015, horizon=2e-3)
_POISSON_CFG = HpccgConfig(nx=16, ny=16, nz=16, max_iter=6,
                           intra_kernels=frozenset({"ddot", "spmv"}))


@dataclasses.dataclass
class FailureSweepRow:
    crash_fraction: float     #: crash time / clean intra run time
    time: float
    efficiency: float
    reexecuted: int


def _failure_refs(n_logical: int,
                  config: HpccgConfig) -> _t.List[Scenario]:
    """The two reference scenarios: native at matched resources, and
    the clean (no-crash) intra run."""
    native_cfg = dataclasses.replace(config, nz=config.nz // 2)
    return [
        Scenario(app="hpccg", config=native_cfg, n_logical=2 * n_logical,
                 mode="native"),
        Scenario(app="hpccg", config=config, n_logical=n_logical,
                 mode="intra"),
    ]


def failure_time_sweep(
        fractions: _t.Sequence[float] = (0.1, 0.5, 0.9),
        n_logical: int = 4,
        config: _t.Optional[HpccgConfig] = None) -> _t.List[FailureSweepRow]:
    """HPCCG intra efficiency when one replica of rank 0 crashes at the
    given fraction of the clean run's duration.  Includes a no-crash
    row (fraction=None encoded as -1); an SDR reference is implied by
    the 0.5 floor."""
    config = config or _FAILURE_CFG
    # reference times: the native run and the clean (no-crash) intra run
    # are independent — one two-point sweep
    refs = _failure_refs(n_logical, config)
    native_run, clean = _sweep(refs)
    t_clean = clean.wall_time
    # crash times depend on t_clean, so the crash batch is a second
    # sweep: the clean scenario with a FixedFailures schedule per point
    clean_scenario = refs[1]
    crash_runs = _sweep([
        clean_scenario.with_failures(
            FixedFailures(((0, 1, frac * t_clean),)))
        for frac in fractions])
    rows = [FailureSweepRow(-1.0, t_clean,
                            fixed_resource_efficiency(
                                native_run.wall_time, t_clean), 0)]
    for frac, run in zip(fractions, crash_runs):
        reexec = int(round(run.intra.get("tasks_reexecuted", 0.0)
                           * n_logical))
        rows.append(FailureSweepRow(
            frac, run.wall_time,
            fixed_resource_efficiency(native_run.wall_time,
                                      run.wall_time),
            reexec))
    return rows


@dataclasses.dataclass
class DegreeSweepRow:
    degree: int
    time: float
    efficiency: float
    update_bytes: float


def _degree_scenarios(degrees: _t.Sequence[int],
                      n_logical: int = 4) -> _t.List[Scenario]:
    base = HpccgConfig(nx=16, ny=16, nz=8, max_iter=6,
                       intra_kernels=frozenset({"ddot", "spmv"}))
    points = [Scenario(app="hpccg", config=base, n_logical=n_logical,
                       mode="native")]
    for d in degrees:
        cfg = dataclasses.replace(base, nz=base.nz * d)
        if d == 1:
            points.append(Scenario(app="hpccg", config=cfg,
                                   n_logical=n_logical, mode="native"))
        else:
            points.append(Scenario(app="hpccg", config=cfg,
                                   n_logical=n_logical, mode="intra",
                                   degree=d))
    return points


def degree_sweep(degrees: _t.Sequence[int] = (1, 2, 3),
                 n_logical: int = 4) -> _t.List[DegreeSweepRow]:
    """HPCCG intra efficiency vs replication degree, at fixed physical
    resources: degree d uses d replicas per logical rank, each with the
    per-logical problem scaled by d (the Figure 5 convention extended
    beyond 2)."""
    runs = _sweep(_degree_scenarios(degrees, n_logical))
    native = runs[0]
    rows = []
    for d, run in zip(degrees, runs[1:]):
        update_bytes = (0.0 if d == 1
                        else run.intra.get("update_bytes_sent", 0.0))
        rows.append(DegreeSweepRow(
            d, run.wall_time,
            fixed_resource_efficiency(native.wall_time, run.wall_time),
            update_bytes))
    return rows


@dataclasses.dataclass
class PoissonRow:
    mode: str
    time: float
    crashes: int
    #: materialized crash times (identical for identical seeds)
    crash_times: _t.Tuple[float, ...]


def _poisson_scenarios(n_logical: int = 4) -> _t.List[Scenario]:
    return [Scenario(app="hpccg", config=_POISSON_CFG,
                     n_logical=n_logical, mode=mode,
                     failures=POISSON_DEMO)
            for mode in ("native", "sdr", "intra")]


def poisson_failure_rows(n_logical: int = 4) -> _t.List[PoissonRow]:
    """The registered Poisson workload in all three modes.

    Native has no replicas, so the schedule is vacuous there (a
    crash-stop failure of an unreplicated rank is fatal — the paper's
    motivation); the replicated modes absorb the same seeded crashes
    deterministically.
    """
    runs = _sweep(_poisson_scenarios(n_logical))
    return [PoissonRow(run.mode, run.wall_time, len(run.crashes),
                       tuple(ev.time for ev in run.crashes))
            for run in runs]


FAILURE_TIME_TABLE = Table(
    "failure_time", "Extension — efficiency vs crash time",
    (("crash at",
      lambda r: "none" if r.crash_fraction < 0 else r.crash_fraction),
     ("time (ms)", ms("time")), ("efficiency", "efficiency"),
     ("re-executed", "reexecuted")),
    failure_time_sweep)
DEGREE_TABLE = Table(
    "degree", "Extension — replication degree sweep",
    (("degree", "degree"), ("time (ms)", ms("time")),
     ("efficiency", "efficiency"),
     ("update KB", lambda r: r.update_bytes / 1e3)),
    degree_sweep)
POISSON_TABLE = Table(
    "poisson", "Extension — seeded Poisson failures (deterministic)",
    (("mode", "mode"), ("time (ms)", ms("time")), ("crashes", "crashes"),
     ("crash times (ms)",
      lambda r: ", ".join(f"{t * 1e3:.3f}" for t in r.crash_times) or "-")),
    poisson_failure_rows)
EXPERIMENTS = (Experiment(
    "extensions", DESCRIPTION,
    (FAILURE_TIME_TABLE, DEGREE_TABLE, POISSON_TABLE), overridable=False),)


def _register_defaults() -> None:
    native_ref, clean = _failure_refs(4, _FAILURE_CFG)
    register_scenario("ext:crash-timing:native", native_ref,
                      "Crash-timing extension — native reference")
    register_scenario("ext:crash-timing:clean", clean,
                      "Crash-timing extension — failure-free intra run")
    for d, s in zip((1, 2, 3), _degree_scenarios((1, 2, 3))[1:]):
        register_scenario(
            f"ext:degree:d{d}", s,
            f"Degree extension — HPCCG at replication degree {d}")
    for s in _poisson_scenarios():
        register_scenario(
            f"ext:poisson:{s.mode}", s,
            f"Seeded Poisson failure workload (rate "
            f"{POISSON_DEMO.rate:.0f}/s, seed {POISSON_DEMO.seed}) — "
            f"{s.mode} mode")


_register_defaults()
