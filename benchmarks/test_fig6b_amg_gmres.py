"""Figure 6b: AMG2013, 7-point stencil, GMRES solver.

Paper: SDR 0.49, intra 0.59, sections 42% of native runtime.  The
7-point operator streams far less matrix per row than the 27-point one,
and GMRES adds orthogonalization work, so the intra gain is smaller
than Figure 6a — both in the paper and here.
"""

from repro.experiments import fig6a, fig6b
from repro.experiments.fig6 import FIG6_TABLES


def test_fig6b_amg_gmres(save_table):
    rows = fig6b()
    save_table("fig6b", FIG6_TABLES["fig6b"].render(rows))

    by = {r.mode: r for r in rows}
    assert abs(by["SDR-MPI"].efficiency - 0.5) < 0.04
    assert 0.54 < by["intra"].efficiency < 0.70   # paper: 0.59
    assert by["intra"].time < by["SDR-MPI"].time
    # smaller sections share than the 27-pt PCG problem (42% vs 62% in
    # the paper)
    assert by["Open MPI"].sections_fraction < 0.65


def test_fig6b_gmres_gains_less_than_pcg(save_table):
    """Cross-figure shape: the 7-pt GMRES problem benefits less from
    intra-parallelization than the 27-pt PCG problem (0.59 < 0.61 in
    the paper; the gap is wider here for the same reason the fractions
    differ)."""
    rows_a, rows_b = fig6a(), fig6b()
    eff_a = {r.mode: r.efficiency for r in rows_a}["intra"]
    eff_b = {r.mode: r.efficiency for r in rows_b}["intra"]
    save_table("fig6ab_gap",
               f"intra efficiency: PCG-27pt {eff_a:.3f} vs GMRES-7pt "
               f"{eff_b:.3f} (paper: 0.61 vs 0.59)")
    assert eff_b < eff_a
