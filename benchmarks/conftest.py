"""Benchmark harness conventions.

Every benchmark regenerates one table/figure of the paper, prints it in
the paper's format (run pytest with ``-s`` to see the tables), saves it
under ``benchmarks/_results/``, and asserts the *shape* of the result —
who wins, by roughly what factor — rather than absolute numbers (the
substrate is a calibrated simulator, not the authors' testbed).

A table that ``python -m repro.experiments`` also prints renders
through its one declaration in ``repro.experiments``
(``Table.render``), so both show the same title and columns; the
paper's reference values are in each file's docstring.  Benchmarks
call the experiments directly and time nothing: ``perfbench/`` is the
timing harness.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


@pytest.fixture
def save_table():
    """Print a result table and persist it under ``_results/``."""
    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")

    return _save
