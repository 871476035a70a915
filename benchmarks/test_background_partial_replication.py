"""§II background: random partial replication does not pay off ([18]).

"To break down the 50%-efficiency-wall of replication, one can envision
partial redundancy ... It has been shown that if the replicated
processes are chosen randomly, partial replication does not pay off" —
which is why the paper proposes intra-parallelization instead.
"""

from repro.analysis import format_table, partial_replication_sweep

NODE_MTBF = 5.0 * 365 * 24 * 3600
DELTA = RESTART = 900.0
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_partial_replication_bathtub(save_table):
    data = {n: partial_replication_sweep(n, NODE_MTBF, DELTA, RESTART,
                                         FRACTIONS)
            for n in (10_000, 100_000, 1_000_000)}
    rows = []
    for n, pts in data.items():
        rows.append([f"{n:,}"] + [e for _f, e in pts])
    table = format_table(
        ["processes"] + [f"p={f}" for f in FRACTIONS], rows,
        title="Partial replication, random selection (paper §II / "
              "[18]: interior fractions never win)")
    save_table("background_partial_replication", table)

    for n, pts in data.items():
        eff = dict(pts)
        best_endpoint = max(eff[0.0], eff[1.0])
        for f in (0.25, 0.5, 0.75):
            assert eff[f] <= best_endpoint + 1e-9
    # and at exascale, full replication dominates everything
    exa = dict(data[1_000_000])
    assert exa[1.0] == max(exa.values())
