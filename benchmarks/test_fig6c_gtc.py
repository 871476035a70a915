"""Figure 6c: GTC particle-in-cell.

Paper (256 native / 512 replicated): SDR 0.49, intra 0.71; charge+push
(the intra-parallelized kernels) account for 75% of native runtime;
the `inout` extra copy adds ≈ 6% on the affected tasks.
"""

from repro.experiments import fig6c, inout_overhead
from repro.experiments.fig6 import FIG6_TABLES


def test_fig6c_gtc(save_table):
    rows = fig6c()
    save_table("fig6c", FIG6_TABLES["fig6c"].render(rows))

    by = {r.mode: r for r in rows}
    assert abs(by["SDR-MPI"].efficiency - 0.5) < 0.04
    assert 0.62 < by["intra"].efficiency < 0.82   # paper: 0.71
    # charge + push dominate like in the paper's profile (75%)
    assert 0.65 < by["Open MPI"].sections_fraction < 0.85
    assert by["intra"].time < by["SDR-MPI"].time


def test_fig6c_inout_copy_overhead(save_table):
    """The extra-copy cost of declaring positions/velocities inout
    (paper: ≈ 6% on the affected tasks)."""
    frac = inout_overhead()
    save_table("fig6c_inout",
               f"inout extra-copy overhead on affected tasks: "
               f"{frac * 100:.1f}% (paper: ~6%)")
    assert 0.005 < frac < 0.12
