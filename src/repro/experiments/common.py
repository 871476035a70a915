"""Experiment-harness glue over the scenario layer.

Scale note: the paper runs 128–512 physical processes with 128³-per-
process problems on real hardware; a pure-Python DES cannot hold that,
so experiments run the same codes at reduced rank counts and grid sizes
on the calibrated ``GRID5000_2015`` machine model.  The quantities the
paper's claims rest on — flops-per-output-byte ratios, update-transfer
overlap, replication protocol behaviour — are scale-free or verified to
be rank-count invariant (Figure 5b shows flat efficiency across 128→512
processes; our weak-scaling bench shows the same flatness at 8→32).

Every figure point is a :class:`~repro.scenarios.Scenario`; the figure
modules build scenario grids, register them, and evaluate them through
the :mod:`repro.api` facade (:func:`repro.sweep` — process-pool
fan-out, results memoized on scenario hashes so equal points dedupe
across figures).

Every CLI table is declared once, as a :class:`Table` next to its row
dataclass, and grouped into an :class:`Experiment`; the CLI's table,
JSON and CSV output and the benchmark printouts all render from it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import (doubled_resource_efficiency,
                        fixed_resource_efficiency, format_table)
from ..intra import CopyStrategy, Scheduler
from ..netmodel import (GRID5000_MACHINE, GRID5000_NETWORK, MachineSpec,
                        NetworkSpec)
from ..scenarios import (ModeRun, Scenario, app_ref, machine_name_for,
                         network_name_for, nodes_for, sweep_scenarios)

__all__ = ["MODE_LABELS", "Experiment", "ModeRun", "Table", "ms",
           "nodes_for", "scenario_for", "sweep_scenarios",
           "three_mode_rows"]

#: the figures' mode labels (the paper's legend)
MODE_LABELS = {"native": "Open MPI", "sdr": "SDR-MPI", "intra": "intra"}

#: a table cell: a row field name, or a function of the row
Cell = _t.Union[str, _t.Callable[[_t.Any], _t.Any]]


def ms(field: str) -> _t.Callable[[_t.Any], float]:
    """Cell of a seconds-valued row field, shown in milliseconds."""
    return lambda row: getattr(row, field) * 1e3


@dataclasses.dataclass(frozen=True)
class Table:
    """One experiment table: its ``table`` label in ``--format
    json|csv`` records, its title, its ``(header, cell)`` columns and
    the experiment function computing its rows."""

    label: str
    title: str
    columns: _t.Tuple[_t.Tuple[str, Cell], ...]
    compute: _t.Callable[..., _t.List[_t.Any]]

    def render(self, rows: _t.Iterable[_t.Any]) -> str:
        """The fixed-width table of ``rows``."""
        return format_table(
            [header for header, _ in self.columns],
            [[getattr(row, cell) if isinstance(cell, str) else cell(row)
              for _, cell in self.columns] for row in rows],
            title=self.title)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A named CLI experiment: its tables, and whether ``--set``
    overrides apply (they reach every table's ``compute`` as
    ``overrides=``; a batch of independent studies takes none)."""

    name: str
    description: str
    tables: _t.Tuple[Table, ...]
    overridable: bool = True

    def results(self, overrides: _t.Mapping[str, _t.Any]
                ) -> _t.List[_t.Tuple[Table, _t.List[_t.Any]]]:
        """Each table with its computed rows."""
        if not self.overridable:
            if overrides:
                raise ValueError(
                    f"--set overrides are not supported for the "
                    f"{self.name.rstrip('s')} batch; run its scenarios "
                    f"individually (see --list)")
            return [(t, t.compute()) for t in self.tables]
        return [(t, t.compute(overrides=overrides)) for t in self.tables]


def scenario_for(mode: str, program: _t.Callable, n_logical: int,
                 config: _t.Any, *,
                 machine: MachineSpec = GRID5000_MACHINE,
                 netspec: NetworkSpec = GRID5000_NETWORK, degree: int = 2,
                 spread: int = 1, distance_model: str = "switch",
                 scheduler: _t.Optional[_t.Union[str, Scheduler]] = None,
                 copy_strategy: CopyStrategy = CopyStrategy.LAZY
                 ) -> Scenario:
    """Build the :class:`~repro.scenarios.Scenario` of one mode run
    (pass it to :func:`repro.run`)."""
    return Scenario(
        app=app_ref(program), config=config, n_logical=n_logical,
        mode=mode, degree=degree, spread=spread,
        machine=machine_name_for(machine),
        network=network_name_for(netspec),
        distance_model=distance_model, scheduler=scheduler,
        copy_strategy=copy_strategy)


def three_mode_rows(native: ModeRun, sdr: ModeRun, intra: ModeRun,
                    convention: str) -> _t.List[_t.Dict[str, _t.Any]]:
    """Rows of {mode, time, efficiency} under the figure's efficiency
    convention ('fixed' for Fig 5, 'doubled' for Fig 6)."""
    eff = (fixed_resource_efficiency if convention == "fixed"
           else doubled_resource_efficiency)
    rows = [dict(mode=MODE_LABELS["native"], time=native.wall_time,
                 efficiency=1.0)]
    for run, mode in ((sdr, "sdr"), (intra, "intra")):
        rows.append(dict(mode=MODE_LABELS[mode], time=run.wall_time,
                         efficiency=eff(native.wall_time, run.wall_time)))
    return rows
