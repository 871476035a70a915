"""The §II motivating comparison: cCR vs replication at scale.

Reproduces the argument of [1]/[8] that the paper builds on: as node
counts grow (system MTBF shrinks), plain coordinated checkpoint-restart
efficiency collapses below 50%, while replication — whose MTTI grows
like sqrt(N) failures [16] — holds near its 50% resource cap, making
intra-parallelization's >50% the headline improvement.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import plain_ccr_efficiency, replicated_ccr_efficiency
from .common import Experiment, Table

DESCRIPTION = "Background — cCR vs replication efficiency model (§II)"

#: the analytic model's knobs, overridable from the CLI
#: (``--set node_mtbf_years=3``); this study has no machine/program, so
#: it is parameterized directly rather than through Scenario specs
OVERRIDABLE = ("proc_counts", "node_mtbf_years", "checkpoint_minutes",
               "restart_minutes")


def apply_overrides(overrides: _t.Optional[_t.Mapping[str, _t.Any]]
                    ) -> _t.Dict[str, _t.Any]:
    """Map CLI ``--set`` overrides onto :func:`ccr_vs_replication`
    keyword arguments (unknown keys raise, like scenario overrides)."""
    kwargs: _t.Dict[str, _t.Any] = {}
    for key, value in (overrides or {}).items():
        if key not in OVERRIDABLE:
            raise ValueError(
                f"unknown background-model override {key!r}; expected "
                f"one of {OVERRIDABLE}")
        if key == "proc_counts":
            kwargs[key] = tuple(int(v) for v in value)
        else:
            kwargs[key] = float(value)
    return kwargs


@dataclasses.dataclass
class BackgroundRow:
    n_procs: int
    system_mtbf_hours: float
    ccr_efficiency: float
    replication_efficiency: float


def _ccr_point(n: int, node_mtbf: float, delta: float,
               restart: float) -> BackgroundRow:
    """One machine size of the cCR-vs-replication model."""
    return BackgroundRow(
        n_procs=n,
        system_mtbf_hours=node_mtbf / n / 3600.0,
        ccr_efficiency=plain_ccr_efficiency(n, node_mtbf, delta, restart),
        replication_efficiency=replicated_ccr_efficiency(
            n // 2, node_mtbf, delta, restart))


def ccr_vs_replication(
        proc_counts: _t.Sequence[int] = (1_000, 10_000, 50_000, 100_000,
                                         500_000, 1_000_000),
        node_mtbf_years: float = 5.0,
        checkpoint_minutes: float = 15.0,
        restart_minutes: float = 15.0) -> _t.List[BackgroundRow]:
    """Efficiency of plain cCR vs replication(degree 2)+rare-cCR as the
    machine grows; PFS-scale checkpoint costs."""
    node_mtbf = node_mtbf_years * 365.0 * 24 * 3600
    delta = checkpoint_minutes * 60
    restart = restart_minutes * 60
    return [_ccr_point(n, node_mtbf, delta, restart) for n in proc_counts]


def _ccr_rows(overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
              ) -> _t.List[BackgroundRow]:
    return ccr_vs_replication(**apply_overrides(overrides))


def crossover_point(rows: _t.Sequence[BackgroundRow]) -> _t.Optional[int]:
    """First process count at which replication beats plain cCR."""
    for row in rows:
        if row.replication_efficiency > row.ccr_efficiency:
            return row.n_procs
    return None


CCR_TABLE = Table(
    "ccr_vs_replication", "Background — cCR vs replication (§II)",
    (("processes", "n_procs"), ("system MTBF (h)", "system_mtbf_hours"),
     ("cCR", "ccr_efficiency"), ("replication", "replication_efficiency")),
    _ccr_rows)
EXPERIMENTS = (Experiment("background", DESCRIPTION, (CCR_TABLE,)),)
