"""Figure 5a: HPCCG kernels under the three modes.

Paper's numbers (512 cores, 128³/process): efficiency 0.5 for SDR-MPI on
every kernel; intra 0.34 (waxpby — *worse* than plain replication),
0.99 (ddot), 0.94 (sparsemv); the non-overlapped update transfer
("intra updates") dominates the waxpby intra bar.
"""

from repro.experiments import fig5a
from repro.experiments.fig5 import FIG5A_TABLE


def test_fig5a_hpccg_kernels(save_table):
    rows = fig5a(n_logical=8)
    save_table("fig5a", FIG5A_TABLE.render(rows))

    by = {(r.kernel, r.mode): r for r in rows}
    # SDR-MPI: the 50% wall on every kernel
    for kernel in ("waxpby", "ddot", "sparsemv"):
        assert abs(by[(kernel, "SDR-MPI")].efficiency - 0.5) < 0.03
        assert by[(kernel, "Open MPI")].efficiency == 1.0
    # intra: waxpby pays more in updates than it saves in compute —
    # *below* plain replication (paper 0.34)
    assert by[("waxpby", "intra")].efficiency < 0.45
    # ...while ddot (scalar updates) and sparsemv (matrix-streaming
    # compute hides vector updates) approach 1 (paper 0.99 / 0.94)
    assert by[("ddot", "intra")].efficiency > 0.88
    assert by[("sparsemv", "intra")].efficiency > 0.88
    # ordering: ddot/sparsemv intra beat SDR; waxpby intra loses to SDR
    assert (by[("waxpby", "intra")].time
            > by[("waxpby", "SDR-MPI")].time)
    assert by[("ddot", "intra")].time < by[("ddot", "SDR-MPI")].time
    assert (by[("sparsemv", "intra")].time
            < by[("sparsemv", "SDR-MPI")].time)
    # the dashed area: waxpby's intra time is mostly exposed transfers
    wax = by[("waxpby", "intra")]
    assert wax.exposed_update_time > 0.4 * wax.time
    # ...but sparsemv overlaps nearly everything
    spv = by[("sparsemv", "intra")]
    assert spv.exposed_update_time < 0.1 * spv.time
