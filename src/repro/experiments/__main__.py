"""Regenerate the paper's tables — and run any registered scenario —
from the command line.

Usage::

    python -m repro.experiments                   # everything (~1 min)
    python -m repro.experiments fig5a fig6c       # selected figures
    python -m repro.experiments run fig5b --set degree=3 --set mode=intra
    python -m repro.experiments fig5b --format csv     # table rows as CSV
    python -m repro.experiments run ext:poisson:intra --format json
    python -m repro.experiments --workers 4       # parallel sweep points
    python -m repro.experiments --no-cache        # force recomputation
    python -m repro.experiments list              # everything available
    python -m repro.experiments list 'fig5b*' --tag ext
    python -m repro.experiments cache stats       # result-cache admin
    python -m repro.experiments cache migrate --to sqlite

Names are figure experiments (``fig5b``, ``ablations``, ...) or
registered scenario names (``fig5b:p16:intra``, ``example:gtc:sdr``,
...); the optional leading ``run`` keyword is cosmetic.  ``--set
key=value`` overrides scenario fields (``degree=3``, ``mode=intra``,
``config.nx=8``, ``failures={"kind": "poisson", "rate": 400, "seed": 1,
"horizon": 0.005}``) on every selected experiment/scenario; figure
baselines keep their reference mode.  Unknown names exit non-zero with
a close-match suggestion.

``list`` filters with shell globs (``list 'fig5a*'``) and/or ``--tag
NAMESPACE`` (the part before the first colon: ``--tag ext``,
``--tag example``); output is sorted and deterministic, and a
pattern/tag matching nothing exits non-zero.  ``--format json|csv``
turns runs machine-readable: experiment names render their table rows
(flat records tagged with experiment + table), scenario names a
:class:`repro.results.ResultSet` (``csv`` is run-only).

Each experiment table is declared once, next to its row dataclass
(a :class:`~repro.experiments.common.Table` grouped into an
:class:`~repro.experiments.common.Experiment`); the human tables, the
JSON/CSV records and the benchmark printouts under
``benchmarks/_results/`` all render from that declaration.

Sweep points fan out over ``--workers`` processes and results are
memoized under ``.perf_cache/`` keyed by scenario hashes (disable with
``--no-cache``; delete the directory or bump
``repro.perf.CACHE_VERSION`` after model changes).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fnmatch
import io
import json
import sys
import typing as _t

from ..analysis import format_table
from ..api import sweep as api_sweep
from ..perf import configure
from ..results import ResultSet, RunResult
from ..scenarios import (GRID_PREFIX, Scenario, get_entry, grid_entries,
                         parse_override, scenario_entries, suggest_names,
                         UnknownScenarioError)
from . import ablations, background, extensions, fig5, fig6
from .common import Experiment

Overrides = _t.Mapping[str, _t.Any]

#: every experiment by name, in the default run order; each declares
#: its tables once, next to their row dataclasses
EXPERIMENTS: _t.Dict[str, Experiment] = {
    experiment.name: experiment
    for module in (fig5, fig6, ablations, background, extensions)
    for experiment in module.EXPERIMENTS}


class _ListingError(ValueError):
    """A list pattern/tag that matched nothing (exit status 2)."""


def _grid_rows(patterns: _t.Sequence[str], tag: _t.Optional[str]
               ) -> _t.List[_t.Tuple[str, _t.Any, _t.Any]]:
    """Generated-grid listing rows surviving the filters, each
    ``("family", family, None)`` or ``("point", name, family)``.

    Families list as one O(1) summary row; a pattern that reaches
    *into* a family (contains ``/``) expands to the matching point
    names of that family — the only case that pays O(points), and only
    for the targeted family.
    """
    families = grid_entries()
    if tag is not None and tag != "grid":
        return []
    if not patterns:
        return [("family", f, None) for f in families]
    rows: _t.List[_t.Tuple[str, _t.Any, _t.Any]] = []
    for family in families:
        label = f"{GRID_PREFIX}{family.name}"
        summary_hit = any(
            "/" not in p and fnmatch.fnmatchcase(label, p)
            for p in patterns)
        if summary_hit:
            rows.append(("family", family, None))
        point_pats = [p for p in patterns
                      if "/" in p and fnmatch.fnmatchcase(
                          label, p.split("/", 1)[0])]
        if point_pats:
            rows += [("point", name, family)
                     for name in family.point_names()
                     if any(fnmatch.fnmatchcase(name, p)
                            for p in point_pats)]
    return rows


def _select_listing(patterns: _t.Sequence[str], tag: _t.Optional[str]
                    ) -> _t.Tuple[_t.List[str], _t.List[_t.Any],
                                  _t.List[_t.Tuple[str, _t.Any, _t.Any]]]:
    """(experiment names, scenario entries, grid rows) surviving the
    filters, in deterministic sorted order; raises
    :class:`_ListingError` on a pattern or tag matching nothing."""
    exp_names = sorted(EXPERIMENTS)
    entries = scenario_entries()   # sorted by name already
    grid_rows = _grid_rows(patterns, tag)
    if tag is not None:
        exp_names = [n for n in exp_names if n == tag]
        entries = [e for e in entries
                   if e.name.split(":", 1)[0] == tag]
        if not exp_names and not entries and not grid_rows:
            raise _ListingError(
                f"--tag {tag!r} matches no experiment, scenario or "
                f"grid namespace (see `list` with no filters)")
    for pattern in patterns:
        grids_hit = any(
            (kind == "family"
             and fnmatch.fnmatchcase(f"{GRID_PREFIX}{item.name}",
                                     pattern))
            or (kind == "point" and fnmatch.fnmatchcase(item, pattern))
            for kind, item, _f in grid_rows)
        if not (any(fnmatch.fnmatchcase(n, pattern) for n in exp_names)
                or any(fnmatch.fnmatchcase(e.name, pattern)
                       for e in entries)
                or grids_hit):
            raise _ListingError(
                f"pattern {pattern!r} matches no experiment, scenario "
                f"or grid name")
    if patterns:
        exp_names = [n for n in exp_names
                     if any(fnmatch.fnmatchcase(n, p) for p in patterns)]
        entries = [e for e in entries
                   if any(fnmatch.fnmatchcase(e.name, p)
                          for p in patterns)]
    return exp_names, entries, grid_rows


def _render_listing(patterns: _t.Sequence[str] = (),
                    tag: _t.Optional[str] = None,
                    fmt: str = "table") -> str:
    exp_names, entries, grid_rows = _select_listing(patterns, tag)
    if fmt == "json":
        payload = (
            [{"kind": "experiment", "name": n,
              "description": EXPERIMENTS[n].description} for n in exp_names]
            + [{"kind": "scenario", "name": e.name,
                "description": e.description or e.scenario.summary(),
                "scenario": e.scenario.to_dict()} for e in entries])
        for kind, item, family in grid_rows:
            if kind == "family":
                payload.append(
                    {"kind": "grid", "name": f"{GRID_PREFIX}{item.name}",
                     "points": item.size,
                     "axes": {n: list(v) for n, v in item.axes},
                     "description": item.description})
            else:
                payload.append(
                    {"kind": "scenario", "name": item,
                     "description": f"{family.description} [generated]",
                     "scenario": get_entry(item).scenario.to_dict()})
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = []
    if exp_names:
        lines.append("experiments:")
        lines += [f"  {n:24s} {EXPERIMENTS[n].description}" for n in exp_names]
        lines.append("")
    lines.append(f"registered scenarios ({len(entries)}):")
    for entry in entries:
        desc = entry.description or entry.scenario.summary()
        lines.append(f"  {entry.name:32s} {desc}")
    families = [item for kind, item, _f in grid_rows if kind == "family"]
    points = [(item, family) for kind, item, family in grid_rows
              if kind == "point"]
    if families:
        lines.append("")
        lines.append(f"generated grids ({len(families)} families, "
                     f"{sum(f.size for f in families)} points; run "
                     f"one with `run grid:<family>/<axis>=<value>,...`):")
        for family in families:
            lines.append(f"  {family.summary():44s} "
                         f"{family.size:6d} points  "
                         f"{family.description}")
    if points:
        lines.append("")
        lines.append(f"generated grid points ({len(points)}):")
        for name, family in points:
            lines.append(f"  {name}")
    return "\n".join(lines)


def _run_table(run: RunResult, title: str) -> str:
    """The field/value table of one scenario run."""
    rows = [["mode", run.mode],
            ["wall time (ms)", run.wall_time * 1e3],
            ["crashes", len(run.crashes) or "-"]]
    rows += [[f"timer:{k} (ms)", v * 1e3]
             for k, v in sorted(run.timers.items())]
    return format_table(["field", "value"], rows, title=title)


def _run_single_scenario(name: str, overrides: Overrides) -> str:
    entry = get_entry(name)
    scenario = entry.scenario.with_overrides(overrides)
    # through the facade sweep, so --workers/--no-cache apply and the
    # result shares the scenario-hash cache with the figure sweeps
    run, = api_sweep([scenario])
    return _run_table(run, f"{name} — {scenario.summary()}")


def _render_experiment(name: str, overrides: Overrides) -> str:
    """An experiment's tables, blank-line separated."""
    return "\n\n".join(table.render(rows) for table, rows
                       in EXPERIMENTS[name].results(overrides))


def _experiment_records(name: str, overrides: Overrides
                        ) -> _t.List[_t.Dict[str, _t.Any]]:
    """One flat dict per experiment-table row, tagged with the
    experiment and table it belongs to."""
    records = []
    for table, rows in EXPERIMENTS[name].results(overrides):
        for row in rows:
            rec: _t.Dict[str, _t.Any] = {"experiment": name,
                                         "table": table.label}
            rec.update(dataclasses.asdict(row))
            records.append(rec)
    return records


def _render_experiments_structured(names: _t.Sequence[str],
                                   overrides: Overrides,
                                   fmt: str) -> str:
    """Machine-readable experiment tables: JSON rows, or one CSV whose
    header is the first-appearance union of row fields (cells missing
    on a row render empty; floats via ``repr`` so they round-trip)."""
    records: _t.List[_t.Dict[str, _t.Any]] = []
    for name in names:
        records += _experiment_records(name, overrides)
    if fmt == "json":
        return json.dumps(records, sort_keys=True, indent=2)
    cols: _t.List[str] = []
    for rec in records:
        for k in rec:
            if k not in cols:
                cols.append(k)

    def cell(v: _t.Any) -> _t.Any:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(float(v))
        if isinstance(v, (list, tuple)):
            return json.dumps(list(v))
        return v
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rec in records:
        writer.writerow([cell(rec.get(c)) for c in cols])
    return buf.getvalue()


def _run_scenarios_structured(names: _t.Sequence[str],
                              overrides: Overrides,
                              fmt: str) -> str:
    """Evaluate scenario names as ONE facade sweep (equal points
    dedupe against the result cache unless --no-cache) and render the
    ResultSet machine-readably."""
    scenarios = [get_entry(name).scenario.with_overrides(overrides)
                 for name in names]
    results: ResultSet = api_sweep(scenarios)
    if fmt == "json":
        return results.to_json(indent=2)
    return results.to_csv()


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    if args_in and args_in[0] == "cache":
        # the cache admin verbs take their own flags (--to, --backend),
        # which this parser would reject — hand off before parsing
        from ..fabric.admin import main as cache_main
        return cache_main(args_in[1:],
                          prog="python -m repro.experiments cache")
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables/figures or run "
                    "registered scenarios.")
    parser.add_argument("names", nargs="*",
                        help="experiments or scenario names to run "
                             "(default: all experiments); an optional "
                             "leading 'run' keyword is accepted, and a "
                             "leading 'list' keyword lists instead "
                             "(with the names as glob patterns)")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and registered scenarios "
                             "(same as the 'list' keyword)")
    parser.add_argument("--tag", metavar="NAMESPACE", default=None,
                        help="with list: only names in this namespace "
                             "(the part before the first colon, e.g. "
                             "ext, fig5b, example)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override a scenario field on everything "
                             "selected (repeatable); e.g. --set degree=3"
                             " --set config.nx=8")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", dest="fmt",
                        help="output format: human tables (default), or "
                             "machine-readable JSON/CSV — experiment "
                             "names render their table rows, scenario "
                             "names a ResultSet ('list' supports json)")
    parser.add_argument("--scenario-json", metavar="JSON", default=None,
                        help="run one inline scenario given as the JSON "
                             "produced by Scenario.to_json()/RunResult "
                             "provenance, instead of a registered name "
                             "(--set still applies; this is how the "
                             "differential harness prints reproducible "
                             "failures)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool width for sweep points "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk sweep result cache")
    args = parser.parse_args(argv)

    names = list(args.names)
    listing = args.list
    if names and names[0] == "list":
        listing = True
        names = names[1:]
    if listing:
        if args.scenario_json is not None:
            print("error: --scenario-json does not apply to list",
                  file=sys.stderr)
            return 2
        if args.overrides or args.no_cache or args.workers != 1:
            print("error: --set/--workers/--no-cache do not apply to "
                  "list", file=sys.stderr)
            return 2
        if args.fmt == "csv":
            print("error: --format csv applies to scenario runs, not "
                  "list (use --format json)", file=sys.stderr)
            return 2
        try:
            print(_render_listing(names, args.tag, args.fmt))
        except _ListingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.tag is not None:
        parser.error("--tag only applies to list")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        overrides = dict(parse_override(expr) for expr in args.overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    configure(workers=args.workers, cache=not args.no_cache)

    if names and names[0] == "run":
        names = names[1:]
        if not names and args.scenario_json is None:
            print("error: 'run' needs an experiment or scenario name",
                  file=sys.stderr)
            return 2

    if args.scenario_json is not None:
        if names:
            print("error: --scenario-json replaces the scenario name; "
                  f"drop {', '.join(names)}", file=sys.stderr)
            return 2
        try:
            scenario = Scenario.from_json(
                args.scenario_json).with_overrides(overrides)
        except (ValueError, TypeError, KeyError) as exc:
            print(f"error: invalid --scenario-json: {exc}",
                  file=sys.stderr)
            return 2
        results: ResultSet = api_sweep([scenario])
        if args.fmt == "json":
            print(results.to_json(indent=2))
        elif args.fmt == "csv":
            print(results.to_csv())
        else:
            run, = results
            print(_run_table(run, f"inline — {scenario.summary()}"))
        return 0

    if not names:
        names = list(EXPERIMENTS)

    def unknown(name: str,
                exc: _t.Optional[UnknownScenarioError] = None) -> int:
        # grid points carry exact per-token corrections on the error
        # itself; fall back to fuzzy matching over flat names
        hints = (exc.suggestions if exc is not None and exc.suggestions
                 else suggest_names(name, extra=EXPERIMENTS))
        hint = f"; did you mean: {', '.join(hints)}?" if hints else ""
        print(f"error: unknown experiment or scenario {name!r}{hint}\n"
              f"(see `list` for everything available)", file=sys.stderr)
        return 2

    if args.fmt != "table":
        # machine-readable output: either whole experiments (flat
        # table rows) or scenario names (a ResultSet), not a mix —
        # their record schemas are different currencies
        exp = [n for n in names if n in EXPERIMENTS]
        if exp and len(exp) != len(names):
            print(f"error: --format {args.fmt} cannot mix whole "
                  f"experiments ({', '.join(exp)}) with scenario "
                  f"names in one invocation; run them separately",
                  file=sys.stderr)
            return 2
        try:
            if exp:
                print(_render_experiments_structured(names, overrides,
                                                     args.fmt))
            else:
                print(_run_scenarios_structured(names, overrides,
                                                args.fmt))
        except UnknownScenarioError as exc:
            return unknown(exc.name, exc)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    for name in names:
        if name in EXPERIMENTS:
            try:
                print(_render_experiment(name, overrides))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            try:
                print(_run_single_scenario(name, overrides))
            except UnknownScenarioError as exc:
                return unknown(name, exc)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
