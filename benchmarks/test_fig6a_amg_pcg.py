"""Figure 6a: AMG2013, 27-point stencil, PCG solver.

Paper (252 native / 504 replicated processes, 100³/process): SDR 0.48,
intra 0.61, with intra-parallelized sections covering 62% of the native
runtime.  Our AMG substitute (geometric-MG block-Jacobi preconditioner,
see DESIGN.md) is more spmv-heavy — sections ≈ 0.75 — so intra lands
proportionally higher (≈ 0.74); the SDR floor and the
sections-fraction→efficiency relation are preserved.
"""

from repro.experiments import fig6a
from repro.experiments.fig6 import FIG6_TABLES


def test_fig6a_amg_pcg(save_table):
    rows = fig6a()
    save_table("fig6a", FIG6_TABLES["fig6a"].render(rows))

    by = {r.mode: r for r in rows}
    assert abs(by["SDR-MPI"].efficiency - 0.5) < 0.04
    # intra beats the 50% wall, bounded by the sections share:
    # E <= 0.5 / (1 - f/2)
    f = by["Open MPI"].sections_fraction
    assert 0.55 < by["intra"].efficiency <= 0.5 / (1 - f / 2) + 0.02
    assert by["intra"].time < by["SDR-MPI"].time
    # the substituted preconditioner is spmv-dominated
    assert 0.6 < f < 0.9
