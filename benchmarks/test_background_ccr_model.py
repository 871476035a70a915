"""§II background: the cCR-vs-replication crossover that motivates the
paper ([1], [8], [16]).

At small scale, plain checkpoint-restart is far above 50% efficiency
and replication cannot compete; as the machine grows and the system
MTBF collapses, cCR drops below 50% while replication (whose MTTI
survives ~sqrt(N) failures) stays pinned just under its resource cap —
which is exactly the 50%-wall intra-parallelization then breaks.
"""

from repro.experiments import ccr_vs_replication, crossover_point
from repro.experiments.background import CCR_TABLE


def test_ccr_vs_replication_crossover(save_table):
    rows = ccr_vs_replication()
    save_table("background_ccr", CCR_TABLE.render(rows))

    # small machine: cCR wins comfortably
    assert rows[0].ccr_efficiency > 0.8
    assert rows[0].replication_efficiency < 0.5
    # large machine: cCR collapses below the 50% wall ...
    assert rows[-1].ccr_efficiency < 0.5
    # ... while replication stays near its cap
    assert rows[-1].replication_efficiency > 0.4
    # a crossover exists at intermediate scale
    assert crossover_point(rows) is not None
    # cCR efficiency is monotonically decreasing with machine size
    effs = [r.ccr_efficiency for r in rows]
    assert effs == sorted(effs, reverse=True)
