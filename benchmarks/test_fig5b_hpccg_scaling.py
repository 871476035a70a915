"""Figure 5b: HPCCG application weak scaling.

Paper (128/256/512 physical processes): SDR-MPI holds efficiency 0.5;
intra (applied to ddot + sparsemv only) holds ~0.8 (0.80/0.79/0.82) —
flat across scale, the paper's scalability evidence.
"""

from repro.experiments import fig5b
from repro.experiments.fig5 import FIG5B_TABLE


def test_fig5b_hpccg_weak_scaling(save_table):
    rows = fig5b(process_counts=(8, 16, 32))
    save_table("fig5b", FIG5B_TABLE.render(rows))

    sdr = [r for r in rows if r.mode == "SDR-MPI"]
    intra = [r for r in rows if r.mode == "intra"]
    # SDR pinned at ~0.5
    for r in sdr:
        assert abs(r.efficiency - 0.5) < 0.06
    # intra well above the 50% wall (paper ~0.8)
    for r in intra:
        assert r.efficiency > 0.72
    # flat across scale (the paper's scalability argument): spread of
    # intra efficiency under 5 points
    effs = [r.efficiency for r in intra]
    assert max(effs) - min(effs) < 0.05
    # intra strictly between SDR and native at every scale
    for s, i in zip(sdr, intra):
        assert s.efficiency < i.efficiency < 1.0
