"""inout-protection ablation (paper §III-B2).

"In practice, both solutions have a similar cost, since an extra copy
of each problematic variable is either made when entering the section
(with our solution) or at the time an update is received (with the
alternative)."  We implemented the copy-at-entry (EAGER), the
copy-at-receive of Algorithm 1 (LAZY) and the atomic-buffered
alternative (ATOMIC) and verify cost parity on GTC.
"""

from repro.experiments import copy_strategy_comparison
from repro.experiments.ablations import COPY_STRATEGY_TABLE


def test_copy_strategies_have_similar_cost(save_table):
    rows = copy_strategy_comparison()
    save_table("ablation_copy_strategy", COPY_STRATEGY_TABLE.render(rows))

    times = [r.time for r in rows]
    # §III-B2's parity claim: all strategies within 10% of each other
    assert max(times) < 1.10 * min(times)
