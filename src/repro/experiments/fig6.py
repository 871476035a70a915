"""Figure 6: application-level efficiency (AMG, GTC, MiniGhost).

Methodology (paper §V-D): constant problem, doubled resources — the
native run uses P physical processes, the replicated runs use the same
P *logical* ranks on 2P physical processes, so equal run time means 50%
efficiency and ``E = 0.5 · t_native / t_mode``.

Each result also reports the fraction of native runtime spent in the
parts of the code where intra-parallelization was applied ("sections"
vs "others" in the figure): 62% (6a), 42% (6b), 75% (6c), 10% (6d) in
the paper.

The default points are registered as ``fig6<x>:<mode>``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..api import sweep as _sweep
from ..apps.amg import AmgConfig
from ..apps.gtc import GtcConfig
from ..apps.minighost import MiniGhostConfig
from ..scenarios import Scenario, baseline_overrides, register_scenario
from .common import Experiment, Table, ms, three_mode_rows

#: timer regions that correspond to intra-parallelized code per app
SECTION_REGIONS = {
    "amg_pcg": ("spmv", "smoother_spmv", "ddot"),
    "amg_gmres": ("spmv", "smoother_spmv", "ddot"),
    "gtc": ("charge", "push"),
    "minighost": ("grid_sum",),
}

DESCRIPTIONS = {
    "fig6a": "Figure 6a — AMG2013 PCG, 27-point stencil",
    "fig6b": "Figure 6b — AMG2013 GMRES, 7-point stencil",
    "fig6c": "Figure 6c — GTC particle-in-cell",
    "fig6d": "Figure 6d — MiniGhost 27-point stencil",
}


@dataclasses.dataclass
class Fig6Row:
    app: str
    mode: str
    physical_processes: int
    time: float
    efficiency: float
    #: fraction of native runtime in intra-parallelized regions
    sections_fraction: float


def _app_scenarios(app: str, n_logical: int, config: _t.Any,
                   overrides: _t.Optional[_t.Mapping[str, _t.Any]]
                   ) -> _t.List[Scenario]:
    ov = dict(overrides or {})
    bov = baseline_overrides(ov)
    return [
        Scenario(app=app, config=config, n_logical=n_logical, mode=mode)
        .with_overrides(bov if mode == "native" else ov)
        for mode in ("native", "sdr", "intra")]


def _run_app(app: str, n_logical: int, config: _t.Any,
             overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
             ) -> _t.List[Fig6Row]:
    native, sdr, intra = _sweep(
        _app_scenarios(app, n_logical, config, overrides))
    section_time = sum(native.timers.get(r, 0.0)
                       for r in SECTION_REGIONS[app])
    frac = section_time / native.wall_time if native.wall_time else 0.0
    return [Fig6Row(app, physical_processes=procs, sections_fraction=frac,
                    **row)
            for procs, row in zip(
                (n_logical, 2 * n_logical, 2 * n_logical),
                three_mode_rows(native, sdr, intra, convention="doubled"))]


_DEFAULTS: _t.Dict[str, _t.Tuple[str, _t.Any]] = {
    "fig6a": ("amg_pcg", AmgConfig(nx=16, ny=16, nz=16, max_iter=4)),
    "fig6b": ("amg_gmres", AmgConfig(nx=16, ny=16, nz=16, max_iter=8,
                                     restart=8)),
    "fig6c": ("gtc", GtcConfig(particles_per_rank=65536,
                               cells_per_rank=64, steps=3)),
    "fig6d": ("minighost", MiniGhostConfig(nx=32, ny=32, nz=16, steps=3)),
}


def fig6a(n_logical: int = 8, config: _t.Optional[AmgConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig6Row]:
    """AMG2013, 27-point stencil, PCG solver."""
    return _run_app("amg_pcg", n_logical,
                    config or _DEFAULTS["fig6a"][1], overrides)


def fig6b(n_logical: int = 8, config: _t.Optional[AmgConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig6Row]:
    """AMG2013, 7-point stencil, GMRES solver."""
    return _run_app("amg_gmres", n_logical,
                    config or _DEFAULTS["fig6b"][1], overrides)


def fig6c(n_logical: int = 8, config: _t.Optional[GtcConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig6Row]:
    """GTC particle-in-cell (charge + push intra-parallelized)."""
    return _run_app("gtc", n_logical,
                    config or _DEFAULTS["fig6c"][1], overrides)


def fig6d(n_logical: int = 8,
          config: _t.Optional[MiniGhostConfig] = None,
          overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None
          ) -> _t.List[Fig6Row]:
    """MiniGhost 27-point stencil (only the grid summation is
    intra-parallelizable)."""
    return _run_app("minighost", n_logical,
                    config or _DEFAULTS["fig6d"][1], overrides)


FIG6_TABLES = {
    fig: Table(fig, title,
               (("app", "app"), ("mode", "mode"),
                ("procs", "physical_processes"), ("time (ms)", ms("time")),
                ("efficiency", "efficiency"),
                ("sections frac", "sections_fraction")),
               fn)
    for fig, title, fn in (("fig6a", "Figure 6a — AMG PCG 27pt", fig6a),
                           ("fig6b", "Figure 6b — AMG GMRES 7pt", fig6b),
                           ("fig6c", "Figure 6c — GTC", fig6c),
                           ("fig6d", "Figure 6d — MiniGhost", fig6d))}
EXPERIMENTS = tuple(Experiment(fig, DESCRIPTIONS[fig], (table,))
                    for fig, table in FIG6_TABLES.items())


def _register_defaults() -> None:
    for fig, (app, config) in _DEFAULTS.items():
        for s in _app_scenarios(app, 8, config, None):
            register_scenario(
                f"{fig}:{s.mode}", s,
                f"{DESCRIPTIONS[fig]} point — {s.mode} mode")


_register_defaults()
