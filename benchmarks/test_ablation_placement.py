"""Replica-placement ablation (paper §VI).

"Replicas should be positioned on neighboring nodes to avoid network
contention but at the same time, they should be placed in such a way
that the probability of correlated failures is low."  On a
distance-sensitive topology, pushing replicas apart degrades intra
efficiency — quantifying one side of that trade-off.
"""

from repro.experiments import placement_sweep
from repro.experiments.ablations import PLACEMENT_TABLE


def test_placement_spread(save_table):
    rows = placement_sweep(spreads=(1, 4, 16))
    save_table("ablation_placement", PLACEMENT_TABLE.render(rows))

    eff = {r.value: r.efficiency for r in rows}
    # neighbouring replicas (the paper's choice) are the best placement
    assert eff[1] > eff[4] > eff[16]
    # distant replicas lose a substantial share of the intra gain
    assert eff[1] - eff[16] > 0.1
