"""AMG-like app: multigrid correctness and solver convergence.

The seed's per-row diagonal extraction lives here as the oracle the
vectorized :func:`extract_diagonal` is differential-tested against
(exact equality); the library has no per-row path.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.amg import (AmgConfig, amg_gmres_program, amg_pcg_program,
                            build_hierarchy, extract_diagonal,
                            prolong_injection, restrict_full_weighting)
from repro.intra import launch_mode
from repro.kernels import OFFSETS_27, OFFSETS_7, build_27pt, build_7pt
from repro.kernels.spmv import CsrMatrix
from repro.mpi import MpiWorld
from repro.netmodel import Cluster, MachineSpec, NetworkSpec

MACHINE = MachineSpec(name="t", cores_per_node=4, flop_rate=2.5e9,
                      mem_bandwidth=12e9)
NETSPEC = NetworkSpec(bandwidth=1.5e9, latency=3e-6, half_duplex=False)


def run(mode, program, n_logical, config, n_nodes=8):
    world = MpiWorld(Cluster(n_nodes, MACHINE), NETSPEC)
    job = launch_mode(mode, world, program, n_logical, args=(config,))
    world.run()
    return job


def values(job, mode):
    if mode == "native":
        return [r.value for r in job.results()]
    return [res.value for row in job.results() for res in row]


CFG = AmgConfig(nx=8, ny=8, nz=8, max_iter=5)


def _extract_diagonal_reference(m: CsrMatrix) -> np.ndarray:
    """The seed's per-row diagonal loop, kept verbatim: the
    differential oracle for :func:`extract_diagonal`."""
    diag = np.zeros(m.n_rows)
    for r in range(m.n_rows):
        lo, hi = int(m.row_ptr[r]), int(m.row_ptr[r + 1])
        cols = m.col[lo:hi]
        hit = np.nonzero(cols == m.halo_lo + r)[0]
        if hit.size:
            diag[r] = m.val[lo + int(hit[0])]
    return diag


def _assert_same_diagonal(m: CsrMatrix) -> np.ndarray:
    fast = extract_diagonal(m)
    ref = _extract_diagonal_reference(m)
    assert fast.dtype == ref.dtype and fast.shape == ref.shape
    np.testing.assert_array_equal(fast, ref)
    return fast


# ------------------------------------------------------------ MG pieces
def test_extract_diagonal():
    m = build_27pt(4, 4, 4, False, False)
    diag = extract_diagonal(m)
    np.testing.assert_allclose(diag, 27.0)


@pytest.mark.parametrize("build", [build_27pt, build_7pt])
@pytest.mark.parametrize("lower,upper", [(False, False), (True, False),
                                         (False, True), (True, True)])
def test_extract_diagonal_matches_per_row_reference(build, lower, upper):
    for shape in ((1, 1, 1), (3, 5, 2), (4, 4, 6)):
        m = build(*shape, lower, upper)
        diag = _assert_same_diagonal(m)
        assert (diag != 0).all()


def _csr(rows, halo_lo=0, halo_hi=0):
    """CSR from per-row ``[(col, val), ...]`` lists, in that order."""
    row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=row_ptr[1:])
    col = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    val = np.array([v for r in rows for _, v in r], dtype=np.float64)
    return CsrMatrix(n_rows=len(rows), halo_lo=halo_lo, halo_hi=halo_hi,
                     row_ptr=row_ptr, col=col, val=val)


def test_extract_diagonal_row_without_diagonal_reads_zero():
    m = _csr([[(2, -1.0), (3, 4.0)],       # row 0: col 2 is its diagonal
              [(2, -1.0), (4, 5.0)],       # row 1: no col 3
              [],                          # row 2: no entries at all
              [(2, -2.0), (5, 7.0)]],      # row 3: diagonal listed last
             halo_lo=2, halo_hi=1)
    diag = _assert_same_diagonal(m)
    np.testing.assert_array_equal(diag, [-1.0, 0.0, 0.0, 7.0])


def test_extract_diagonal_first_duplicate_wins():
    m = _csr([[(0, 3.0), (0, 9.0)],
              [(0, 1.0), (1, 5.0), (2, 8.0), (1, 6.0)],
              [(2, 2.0), (2, 4.0), (2, 6.0)]])
    diag = _assert_same_diagonal(m)
    np.testing.assert_array_equal(diag, [3.0, 5.0, 2.0])


def test_hierarchy_depth():
    h = build_hierarchy(16, 16, 16, OFFSETS_27, 27.0, -1.0, min_dim=4)
    assert [l.shape for l in h.levels] == [(16, 16, 16), (8, 8, 8),
                                           (4, 4, 4)]


def test_hierarchy_stops_at_min_dim():
    # (6, 6, 3) would violate min_dim=4: hierarchy stays single-level
    h = build_hierarchy(12, 12, 6, OFFSETS_7, 6.0, -1.0, min_dim=4)
    assert [l.shape for l in h.levels] == [(12, 12, 6)]


def test_hierarchy_stops_on_odd_dims():
    # coarsening continues to (3, 3, 2), whose odd dimension ends it
    h = build_hierarchy(12, 12, 8, OFFSETS_7, 6.0, -1.0, min_dim=2)
    assert [l.shape for l in h.levels] == [(12, 12, 8), (6, 6, 4),
                                           (3, 3, 2)]


def test_restrict_prolong_adjoint_like():
    rng = np.random.default_rng(1)
    fine = rng.standard_normal(8 * 8 * 8)
    coarse = restrict_full_weighting(fine, (8, 8, 8))
    assert coarse.size == 4 * 4 * 4
    # restriction of a prolonged field is the identity on coarse space
    back = restrict_full_weighting(prolong_injection(coarse, (4, 4, 4)),
                                   (8, 8, 8))
    np.testing.assert_allclose(back, coarse)


def test_restrict_preserves_mean():
    fine = np.ones(8 * 8 * 8) * 3.5
    coarse = restrict_full_weighting(fine, (8, 8, 8))
    np.testing.assert_allclose(coarse, 3.5)


# ------------------------------------------------------------- solvers
def test_pcg_reduces_residual():
    job = run("native", amg_pcg_program, 2, CFG)
    res, iters = values(job, "native")[0]
    # initial ||b|| is ~ sqrt(n); 5 MG-PCG iterations shrink it hard
    n = CFG.nx * CFG.ny * CFG.nz
    assert res < 0.01 * np.sqrt(n)
    assert iters == CFG.max_iter


def test_pcg_preconditioner_helps():
    plain = AmgConfig(nx=8, ny=8, nz=8, max_iter=5,
                      use_preconditioner=False)
    res_plain = values(run("native", amg_pcg_program, 2, plain),
                       "native")[0][0]
    res_mg = values(run("native", amg_pcg_program, 2, CFG), "native")[0][0]
    assert res_mg < res_plain


def test_gmres_reduces_residual():
    job = run("native", amg_gmres_program, 2, CFG)
    res, iters = values(job, "native")[0]
    n = CFG.nx * CFG.ny * CFG.nz
    assert res < 0.05 * np.sqrt(n)
    assert iters >= 1


@pytest.mark.parametrize("program", [amg_pcg_program, amg_gmres_program])
def test_modes_agree(program):
    ref = values(run("native", program, 2, CFG), "native")[0]
    for mode in ("sdr", "intra"):
        got = values(run(mode, program, 2, CFG), mode)
        for v in got:
            assert v[0] == pytest.approx(ref[0], rel=1e-9, abs=1e-12)


def test_intra_sections_present_in_amg():
    job = run("intra", amg_pcg_program, 2, CFG)
    info = job.manager.replica(0, 0)
    s = info.ctx.intra.stats
    assert s.sections > 0
    assert s.update_bytes_sent > 0
    # smoother + outer spmv regions both recorded
    timers = job.results()[0][0].timers
    assert "smoother_spmv" in timers and "spmv" in timers
    assert "ddot" in timers


def test_operator_matches_scipy_reference():
    """The 7-pt CSR operator equals the scipy-assembled Laplacian."""
    from repro.kernels import build_7pt
    m = build_7pt(4, 4, 4, False, False)
    A = sp.csr_matrix((m.val, m.col, m.row_ptr),
                      shape=(m.n_rows, m.padded_len))
    dense = A.toarray()
    assert np.allclose(dense.diagonal(), 6.0)
    # symmetric (no halo): A == A.T
    np.testing.assert_allclose(dense, dense.T)
