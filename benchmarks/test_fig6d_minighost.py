"""Figure 6d: MiniGhost.

Paper: SDR 0.49, intra 0.51 — the stencil's full-grid output defeats
intra-parallelization, leaving only the grid summation (~10% of
runtime), so the gain over plain replication is marginal.
"""

from repro.experiments import fig6d, minighost_stencil_ablation
from repro.experiments.ablations import MINIGHOST_STENCIL_TABLE
from repro.experiments.fig6 import FIG6_TABLES


def test_fig6d_minighost(save_table):
    rows = fig6d()
    save_table("fig6d", FIG6_TABLES["fig6d"].render(rows))

    by = {r.mode: r for r in rows}
    assert abs(by["SDR-MPI"].efficiency - 0.5) < 0.04
    # marginal gain only (paper: 0.51)
    assert 0.50 <= by["intra"].efficiency < 0.60
    # only the grid summation is in sections — a small share
    assert by["Open MPI"].sections_fraction < 0.25


def test_fig6d_stencil_in_section_does_not_pay(save_table):
    """§V-D's negative result: forcing the 27-pt stencil into sections
    gives 'around the same' or worse performance, because the output is
    a full new 3D grid."""
    rows = minighost_stencil_ablation()
    save_table("fig6d_stencil_ablation",
               MINIGHOST_STENCIL_TABLE.render(rows))

    without, with_stencil = rows[0], rows[1]
    # no meaningful gain from intra-parallelizing the stencil
    assert with_stencil.efficiency < without.efficiency + 0.02
