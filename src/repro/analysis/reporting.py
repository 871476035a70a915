"""Fixed-width result tables for the experiment CLI and benchmarks.

:func:`format_table` renders any row list; :func:`results_table`
renders a :class:`repro.results.ResultSet` directly from its flat
records, so callers stop hand-rolling row lists from run objects.
"""

from __future__ import annotations

import typing as _t


def format_table(headers: _t.Sequence[str],
                 rows: _t.Sequence[_t.Sequence[_t.Any]],
                 title: str = "") -> str:
    """Fixed-width ASCII table; floats rendered with 3 significant
    decimals (matching the paper's reported precision)."""
    def render(cell: _t.Any) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 100:
                return f"{cell:.1f}"
            if abs(cell) >= 1:
                return f"{cell:.2f}"
            return f"{cell:.3f}"
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h) for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in str_rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def efficiency_label(e: float) -> str:
    """The paper's above-the-bar annotation style (e.g. '0.34')."""
    return f"{e:.2f}"


def results_table(results: _t.Any,
                  columns: _t.Optional[_t.Sequence[str]] = None,
                  title: str = "") -> str:
    """Render a :class:`repro.results.ResultSet` as a fixed-width table.

    ``columns`` defaults to the set's deterministic column order
    (:meth:`~repro.results.ResultSet.columns`); names absent from a
    record render as '-'.  This is the human-facing sibling of
    ``ResultSet.to_csv`` — same records, same ordering guarantees.
    """
    cols = list(columns) if columns is not None else results.columns()
    rows = [["-" if rec.get(c) is None else rec[c] for c in cols]
            for rec in results.records()]
    return format_table(cols, rows, title=title)
