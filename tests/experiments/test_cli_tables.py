"""The experiment tables' text format, pinned without simulating.

Every table the CLI prints is declared once in ``repro.experiments``;
these tests render fixed synthetic rows through each declaration and
compare the result with text recorded from the CLI: title, header line
and cell formatting (``"none"`` for a negative crash fraction, seconds
shown as ms, the joined crash times).  ``--format json|csv`` is checked
for one composite experiment with its row producers stubbed out, so no
scenario runs.
"""

import dataclasses
import json

import pytest

from repro.experiments import (AblationRow, BackgroundRow, DegreeSweepRow,
                               FailureSweepRow, Fig5aRow, Fig5bRow, Fig6Row,
                               PoissonRow)
from repro.experiments.__main__ import EXPERIMENTS, main

_FIG6_ROWS = [Fig6Row("amg_pcg", "Open MPI", 8, 0.01186, 1.0, 0.754),
              Fig6Row("amg_pcg", "intra", 16, 0.00829, 0.715, 0.754)]

#: synthetic rows per table label
ROWS = {
    "fig5a": [Fig5aRow("waxpby", "Open MPI", 0.000393216, 1.0, 1.0, 0.0),
              Fig5aRow("sparsemv", "intra", 0.1234567, 1.04, 0.962,
                       0.000187)],
    "fig5b": [Fig5bRow(8, "Open MPI", 0.0036, 1.0),
              Fig5bRow(32, "intra", 0.01234, 0.832)],
    "fig6a": _FIG6_ROWS, "fig6b": _FIG6_ROWS, "fig6c": _FIG6_ROWS,
    "fig6d": _FIG6_ROWS,
    "granularity": [AblationRow("tasks_per_section", 1, 0.005, 0.465),
                    AblationRow("tasks_per_section", 8, 0.0055, 0.962)],
    "scheduler": [AblationRow("scheduler", "static-block", 0.01041, 0.693),
                  AblationRow("scheduler", "cost-balanced", 0.00721, 1.0)],
    "placement": [AblationRow("replica_spread", 1, 0.001, 0.872),
                  AblationRow("replica_spread", 16, 0.0016, 0.545)],
    "copy_strategy": [AblationRow("copy_strategy", "lazy", 0.00787, 0.988),
                      AblationRow("copy_strategy", "atomic", 0.00777, 1.0)],
    "minighost_stencil": [
        AblationRow("stencil_in_section", False, 0.000717, 0.528),
        AblationRow("stencil_in_section", True, 0.0008, 0.471)],
    "ccr_vs_replication": [BackgroundRow(1000, 43.8, 0.892, 0.491),
                           BackgroundRow(1000000, 0.0438, 0.0, 0.0004)],
    "failure_time": [FailureSweepRow(-1.0, 0.00436, 0.825, 0),
                     FailureSweepRow(0.1, 0.0069, 0.522, 1)],
    "degree": [DegreeSweepRow(1, 0.00178, 1.0, 0.0),
               DegreeSweepRow(3, 0.00292, 0.61, 258700.0)],
    "poisson": [PoissonRow("native", 0.00349, 0, ()),
                PoissonRow("sdr", 0.00357, 3,
                           (0.000865, 0.000958, 0.001831))],
}

#: the CLI's rendering of ``ROWS``, one tuple of lines per table
EXPECTED = {
    'fig5a': (
        'Figure 5a — HPCCG kernels',
        'kernel   | mode     | time (ms) | normalized | efficiency | '
        'exposed updates (ms)',
        '---------+----------+-----------+------------+------------+'
        '---------------------',
        'waxpby   | Open MPI | 0.393     | 1.00       | 1.00       | '
        '0                   ',
        'sparsemv | intra    | 123.5     | 1.04       | 0.962      | '
        '0.187               ',
    ),
    'fig5b': (
        'Figure 5b — HPCCG weak scaling',
        'physical procs | mode     | time (ms) | efficiency',
        '---------------+----------+-----------+-----------',
        '8              | Open MPI | 3.60      | 1.00      ',
        '32             | intra    | 12.34     | 0.832     ',
    ),
    'fig6a': (
        'Figure 6a — AMG PCG 27pt',
        'app     | mode     | procs | time (ms) | efficiency | sections frac',
        '--------+----------+-------+-----------+------------+--------------',
        'amg_pcg | Open MPI | 8     | 11.86     | 1.00       | 0.754        ',
        'amg_pcg | intra    | 16    | 8.29      | 0.715      | 0.754        ',
    ),
    'fig6b': (
        'Figure 6b — AMG GMRES 7pt',
        'app     | mode     | procs | time (ms) | efficiency | sections frac',
        '--------+----------+-------+-----------+------------+--------------',
        'amg_pcg | Open MPI | 8     | 11.86     | 1.00       | 0.754        ',
        'amg_pcg | intra    | 16    | 8.29      | 0.715      | 0.754        ',
    ),
    'fig6c': (
        'Figure 6c — GTC',
        'app     | mode     | procs | time (ms) | efficiency | sections frac',
        '--------+----------+-------+-----------+------------+--------------',
        'amg_pcg | Open MPI | 8     | 11.86     | 1.00       | 0.754        ',
        'amg_pcg | intra    | 16    | 8.29      | 0.715      | 0.754        ',
    ),
    'fig6d': (
        'Figure 6d — MiniGhost',
        'app     | mode     | procs | time (ms) | efficiency | sections frac',
        '--------+----------+-------+-----------+------------+--------------',
        'amg_pcg | Open MPI | 8     | 11.86     | 1.00       | 0.754        ',
        'amg_pcg | intra    | 16    | 8.29      | 0.715      | 0.754        ',
    ),
    'granularity': (
        'Ablation — task granularity (sparsemv)',
        'tasks/section | intra efficiency',
        '--------------+-----------------',
        '1             | 0.465           ',
        '8             | 0.962           ',
    ),
    'scheduler': (
        'Ablation — scheduler under imbalance',
        'scheduler     | time (ms) | relative',
        '--------------+-----------+---------',
        'static-block  | 10.41     | 0.693   ',
        'cost-balanced | 7.21      | 1.00    ',
    ),
    'placement': (
        'Ablation — replica placement',
        'replica spread | efficiency',
        '---------------+-----------',
        '1              | 0.872     ',
        '16             | 0.545     ',
    ),
    'copy_strategy': (
        'Ablation — inout protection strategy',
        'copy strategy | time (ms) | relative',
        '--------------+-----------+---------',
        'lazy          | 7.87      | 0.988   ',
        'atomic        | 7.77      | 1.00    ',
    ),
    'minighost_stencil': (
        'Ablation — MiniGhost stencil in sections',
        'stencil in section | efficiency',
        '-------------------+-----------',
        'False              | 0.528     ',
        'True               | 0.471     ',
    ),
    'ccr_vs_replication': (
        'Background — cCR vs replication (§II)',
        'processes | system MTBF (h) | cCR   | replication',
        '----------+-----------------+-------+------------',
        '1000      | 43.80           | 0.892 | 0.491      ',
        '1000000   | 0.044           | 0     | 0.000      ',
    ),
    'failure_time': (
        'Extension — efficiency vs crash time',
        'crash at | time (ms) | efficiency | re-executed',
        '---------+-----------+------------+------------',
        'none     | 4.36      | 0.825      | 0          ',
        '0.100    | 6.90      | 0.522      | 1          ',
    ),
    'degree': (
        'Extension — replication degree sweep',
        'degree | time (ms) | efficiency | update KB',
        '-------+-----------+------------+----------',
        '1      | 1.78      | 1.00       | 0        ',
        '3      | 2.92      | 0.610      | 258.7    ',
    ),
    'poisson': (
        'Extension — seeded Poisson failures (deterministic)',
        'mode   | time (ms) | crashes | crash times (ms)   ',
        '-------+-----------+---------+--------------------',
        'native | 3.49      | 0       | -                  ',
        'sdr    | 3.57      | 3       | 0.865, 0.958, 1.831',
    ),
}

#: (experiment, table label) of every declared table, in CLI order
TABLES = [(name, table.label) for name, exp in EXPERIMENTS.items()
          for table in exp.tables]


@pytest.fixture(autouse=True)
def _sandbox(sandbox_perf_config):
    yield


def test_every_cli_table_is_pinned():
    assert [label for _name, label in TABLES] == list(EXPECTED)


@pytest.mark.parametrize("name,label", TABLES)
def test_table_text(name, label):
    table, = (t for t in EXPERIMENTS[name].tables if t.label == label)
    assert table.render(ROWS[label]).split("\n") == list(EXPECTED[label])


@pytest.fixture
def stub_ablations(monkeypatch):
    """``ablations`` with every table's rows replaced by ``ROWS``."""
    exp = EXPERIMENTS["ablations"]
    tables = tuple(
        dataclasses.replace(t, compute=lambda rows=ROWS[t.label]: rows)
        for t in exp.tables)
    monkeypatch.setitem(EXPERIMENTS, "ablations",
                        dataclasses.replace(exp, tables=tables))


def test_composite_table_output(stub_ablations, capsys):
    assert main(["ablations"]) == 0
    expected = "\n\n".join("\n".join(EXPECTED[t.label])
                           for t in EXPERIMENTS["ablations"].tables)
    assert capsys.readouterr().out == expected + "\n\n"


def test_composite_set_overrides_rejected(stub_ablations, capsys):
    assert main(["ablations", "--set", "degree=3"]) == 2
    assert capsys.readouterr().err == (
        "error: --set overrides are not supported for the ablation "
        "batch; run its scenarios individually (see --list)\n")


#: the records ``--format json`` prints for ``ROWS``' ablation tables
ABLATION_RECORDS = [
    dict(efficiency=eff, experiment="ablations", setting=setting,
         table=table, time=time, value=value)
    for table, setting, value, time, eff in (
        ("granularity", "tasks_per_section", 1, 0.005, 0.465),
        ("granularity", "tasks_per_section", 8, 0.0055, 0.962),
        ("scheduler", "scheduler", "static-block", 0.01041, 0.693),
        ("scheduler", "scheduler", "cost-balanced", 0.00721, 1.0),
        ("placement", "replica_spread", 1, 0.001, 0.872),
        ("placement", "replica_spread", 16, 0.0016, 0.545),
        ("copy_strategy", "copy_strategy", "lazy", 0.00787, 0.988),
        ("copy_strategy", "copy_strategy", "atomic", 0.00777, 1.0),
        ("minighost_stencil", "stencil_in_section", False, 0.000717,
         0.528),
        ("minighost_stencil", "stencil_in_section", True, 0.0008, 0.471))]


def test_composite_json(stub_ablations, capsys):
    assert main(["ablations", "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        ABLATION_RECORDS, sort_keys=True, indent=2) + "\n"


def test_composite_csv(stub_ablations, capsys):
    assert main(["ablations", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        'experiment,table,setting,value,time,efficiency\n'
        'ablations,granularity,tasks_per_section,1,0.005,0.465\n'
        'ablations,granularity,tasks_per_section,8,0.0055,0.962\n'
        'ablations,scheduler,scheduler,static-block,0.01041,0.693\n'
        'ablations,scheduler,scheduler,cost-balanced,0.00721,1.0\n'
        'ablations,placement,replica_spread,1,0.001,0.872\n'
        'ablations,placement,replica_spread,16,0.0016,0.545\n'
        'ablations,copy_strategy,copy_strategy,lazy,0.00787,0.988\n'
        'ablations,copy_strategy,copy_strategy,atomic,0.00777,1.0\n'
        'ablations,minighost_stencil,stencil_in_section,False,0.000717,0.528\n'
        'ablations,minighost_stencil,stencil_in_section,True,0.0008,0.471\n'
        "\n")
