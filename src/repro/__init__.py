"""repro — reproduction of *Efficient Process Replication for MPI
Applications: Sharing Work Between Replicas* (Ropars, Lefray, Kim,
Schiper — IPDPS 2015).

The package implements the paper's contribution, **intra-
parallelization** (work sharing between the replicas of a logical MPI
process), together with every substrate it needs, on a deterministic
discrete-event simulation of the paper's testbed.

Public API (the facade — see ``docs/api.md`` for the tour)::

    import repro

    result = repro.run("fig5b:p16:intra", degree=3)   # RunResult
    result.wall_time, result.cache_hit, result.to_json()

    rs = repro.compare("example:hpccg")               # ResultSet
    rs.filter(mode="intra")[0].wall_time

    for r in repro.iter_sweep(["fig5a:ddot:native",
                               "fig5a:ddot:intra"]):  # streaming
        print(r.scenario.mode, r.wall_time)

Subsystems (importable lazily as ``repro.<name>``):

========================  ====================================================
``repro.simulate``        deterministic discrete-event kernel (S1)
``repro.netmodel``        machine roofline, LogGP network, topology (S2-S4)
``repro.mpi``             simulated MPI: p2p, collectives, launcher (S5)
``repro.replication``     SDR-MPI-style active replication + failures (S6)
``repro.intra``           the paper's contribution: sections/tasks (S7)
``repro.kernels``         waxpby/ddot/spmv/stencil/PIC + cost models (S8)
``repro.apps``            HPCCG, MiniGhost, GTC, AMG2013-like (S9-S12)
``repro.analysis``        efficiency metric, cCR & MNFTI models (S13)
``repro.experiments``     per-figure reproduction harness + CLI (S14)
``repro.scenarios``       declarative scenario layer (S15)
``repro.perf``            parallel sweep driver + result cache (S16)
``repro.api``             the versioned public facade (S17)
``repro.fabric``          distributed sweep fabric: stores, queue,
                          workers, result service (S18)
========================  ====================================================

Stability policy (semantic versioning on ``__version__``):

* **Stable** — everything in ``__all__`` (the facade functions,
  ``RunResult``/``ResultSet``/``Scenario``) and the documented members
  of the subsystem modules listed above.  Breaking changes bump the
  major version; deprecated entry points warn (once per process) for at
  least one minor release before removal.
* **Internal** — underscore-prefixed names and anything not documented
  in ``docs/``; may change without notice.
* **Cache compatibility** — on-disk sweep results are keyed by scenario
  hash and ``repro.perf.CACHE_VERSION``; API-layer releases never
  silently re-key or rewrite cached bytes (model changes bump
  ``CACHE_VERSION`` instead).

The surface is pinned in ``tools/public_api.txt`` and enforced by
``make api-check``.
"""

from __future__ import annotations

import importlib
import typing as _t

__version__ = "4.0.0"

#: lazily-importable subsystem modules
_SUBSYSTEMS = ("analysis", "api", "apps", "experiments", "fabric",
               "intra", "kernels", "mpi", "netmodel", "perf",
               "replication", "results", "scenarios", "simulate")

#: facade callables re-exported from :mod:`repro.api`
_FACADE = ("compare", "iter_sweep", "run", "scenario", "sweep")

#: result/spec types and the engine name re-exported at the top level
_TYPES = {"RunResult": "results", "ResultSet": "results",
          "Scenario": "scenarios", "RestartPolicy": "scenarios",
          "GridFamily": "scenarios", "register_grid": "scenarios",
          "grid_names": "scenarios",
          "PointFailure": "perf",
          "Fabric": "fabric", "FabricClient": "fabric",
          "get_engine_backend": "simulate"}

__all__ = sorted(("__version__",) + _SUBSYSTEMS + _FACADE
                 + tuple(_TYPES))

if _t.TYPE_CHECKING:  # pragma: no cover - static import surface
    from . import (analysis, api, apps, experiments, fabric, intra,
                   kernels, mpi, netmodel, perf, replication, results,
                   scenarios, simulate)
    from .api import compare, iter_sweep, run, scenario, sweep
    from .fabric import Fabric, FabricClient
    from .perf import PointFailure
    from .results import ResultSet, RunResult
    from .scenarios import (GridFamily, RestartPolicy, Scenario,
                            grid_names, register_grid)
    from .simulate import get_engine_backend


def __getattr__(name: str) -> _t.Any:
    # PEP 562: the facade and the subsystems resolve on first access,
    # so `import repro` stays cheap and cycle-free.
    if name in _FACADE:
        value = getattr(importlib.import_module(".api", __name__), name)
    elif name in _TYPES:
        value = getattr(
            importlib.import_module(f".{_TYPES[name]}", __name__), name)
    elif name in _SUBSYSTEMS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    globals()[name] = value   # cache: __getattr__ runs once per name
    return value


def __dir__() -> _t.List[str]:
    return sorted(set(__all__) | set(globals()))
