"""Extension bench: intra-parallelization beyond degree 2.

The paper fixes replication degree 2 ("the most appropriate replication
degree when dealing with crash failures", §V-B).  This sweep shows the
performance side of that choice: per-replica compute shrinks like 1/d,
but every executed task must ship its update to d−1 siblings, so the
update traffic grows linearly with the degree and eats the gain.
"""

from repro.experiments import degree_sweep
from repro.experiments.extensions import DEGREE_TABLE


def test_degree_sweep(save_table):
    rows = degree_sweep(degrees=(1, 2, 3))
    save_table("extension_degree", DEGREE_TABLE.render(rows))

    by = {r.degree: r for r in rows}
    # degree 1 is the native baseline
    assert by[1].efficiency == 1.0
    assert by[1].update_bytes == 0.0
    # higher degrees: monotone efficiency loss ...
    assert by[1].efficiency > by[2].efficiency > by[3].efficiency
    # ... driven by linearly growing update traffic
    assert by[3].update_bytes > 1.8 * by[2].update_bytes
    # degree 2 stays well above the 50% classic-replication wall;
    # degree 3 stays above its 1/3 wall
    assert by[2].efficiency > 0.6
    assert by[3].efficiency > 1 / 3
