"""CSR memoization: equal keys share one matrix, cached arrays are
immutable, and cache hits skip reconstruction.

The seed's uncached CSR builder and row-block product live here as the
test oracles the optimized kernels are differential-tested against
(exact equality); the library has no uncached path.
"""

import typing as _t

import numpy as np
import pytest

from repro.kernels import (build_27pt, build_7pt, build_stencil_csr,
                           clear_csr_cache, csr_cache_info, spmv_rows)
from repro.kernels.spmv import OFFSETS_27, CsrMatrix, _build_stencil_arrays
from repro.kernels import spmv as spmv_mod


def _build_stencil_arrays_reference(
        nx: int, ny: int, nz: int, has_lower: bool, has_upper: bool,
        offsets: _t.Tuple[_t.Tuple[int, int, int], ...],
        diag_val: float, off_val: float) -> CsrMatrix:
    """The seed's CSR construction, kept verbatim as a reference
    implementation: it is the oracle the optimized builder is
    differential-tested against.

    Enumerates the grid in meshgrid order and sorts rows into canonical
    order afterwards (``np.stack`` + ``argsort`` — the round-trip the
    optimized builder avoids).
    """
    plane = nx * ny
    n = plane * nz
    halo_lo = plane if has_lower else 0
    halo_hi = plane if has_upper else 0

    ix = np.arange(nx)
    iy = np.arange(ny)
    iz = np.arange(nz)
    X, Y, Z = np.meshgrid(ix, iy, iz, indexing="ij")
    X = X.ravel()
    Y = Y.ravel()
    Z = Z.ravel()
    row_of = (X + nx * Y + plane * Z)

    cols_per_offset = []
    valid_per_offset = []
    vals_per_offset = []
    for dx, dy, dz in offsets:
        nxx, nyy, nzz = X + dx, Y + dy, Z + dz
        valid = ((0 <= nxx) & (nxx < nx)
                 & (0 <= nyy) & (nyy < ny))
        below = nzz < 0
        above = nzz >= nz
        if has_lower:
            z_ok = np.ones_like(valid)
        else:
            z_ok = ~below
        if not has_upper:
            z_ok = z_ok & ~above
        valid = valid & z_ok
        col = np.where(
            below, nxx + nx * nyy,
            np.where(above,
                     halo_lo + n + nxx + nx * nyy,
                     halo_lo + nxx + nx * nyy + plane * nzz))
        diag = (dx == 0) and (dy == 0) and (dz == 0)
        vals = np.where(diag, diag_val, off_val)
        cols_per_offset.append(col)
        valid_per_offset.append(valid)
        vals_per_offset.append(np.broadcast_to(vals, col.shape))

    cols = np.stack(cols_per_offset, axis=1)
    valids = np.stack(valid_per_offset, axis=1)
    vals = np.stack(vals_per_offset, axis=1)
    counts = valids.sum(axis=1)
    order = np.argsort(row_of, kind="stable")
    cols = cols[order]
    valids = valids[order]
    vals = vals[order]
    counts = counts[order]

    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    flat_cols = cols[valids].astype(np.int32)
    flat_vals = vals[valids].astype(np.float64)
    return CsrMatrix(n_rows=n, halo_lo=halo_lo, halo_hi=halo_hi,
                     row_ptr=row_ptr, col=flat_cols, val=flat_vals)


def _spmv_rows_reference(matrix: CsrMatrix, x_padded: np.ndarray, lo: int,
                         hi: int, y_block: np.ndarray) -> None:
    """The seed's row-block product, kept verbatim: the differential
    oracle for :func:`spmv_rows` (all boundary indices recomputed per
    call)."""
    start = int(matrix.row_ptr[lo])
    stop = int(matrix.row_ptr[hi])
    prod = matrix.val[start:stop] * x_padded[matrix.col[start:stop]]
    counts = (matrix.row_ptr[lo + 1:hi + 1]
              - matrix.row_ptr[lo:hi]).astype(np.int64)
    boundaries = np.concatenate(
        ([0], np.cumsum(counts)[:-1])).astype(np.int64)
    if prod.size:
        sums = np.add.reduceat(prod, boundaries)
        sums[counts == 0] = 0.0
    else:
        sums = np.zeros(hi - lo)
    np.copyto(y_block, sums)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_csr_cache()
    yield
    clear_csr_cache()


def test_equal_keys_return_equal_matrices():
    a = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    b = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    assert a is b  # memoized: the very same object
    fresh = _build_stencil_arrays(4, 4, 4, True, False,
                                  tuple(OFFSETS_27), 27.0, -1.0)
    np.testing.assert_array_equal(a.row_ptr, fresh.row_ptr)
    np.testing.assert_array_equal(a.col, fresh.col)
    np.testing.assert_array_equal(a.val, fresh.val)
    assert (a.n_rows, a.halo_lo, a.halo_hi) == (
        fresh.n_rows, fresh.halo_lo, fresh.halo_hi)


def test_distinct_keys_are_distinct_entries():
    a = build_27pt(4, 4, 4, has_lower=False, has_upper=False)
    b = build_27pt(4, 4, 4, has_lower=True, has_upper=False)
    c = build_7pt(4, 4, 4, has_lower=False, has_upper=False)
    assert a is not b
    assert a.nnz != c.nnz
    assert csr_cache_info()["size"] == 3


def test_cached_arrays_are_read_only():
    m = build_27pt(3, 3, 3, has_lower=False, has_upper=False)
    with pytest.raises(ValueError):
        m.val[0] = 99.0
    with pytest.raises(ValueError):
        m.col[0] = 1
    with pytest.raises(ValueError):
        m.row_ptr[0] = 1


def test_cache_hits_skip_reconstruction():
    before = spmv_mod.build_count
    build_27pt(5, 5, 5, has_lower=False, has_upper=True)
    assert spmv_mod.build_count == before + 1
    for _ in range(10):
        build_27pt(5, 5, 5, has_lower=False, has_upper=True)
    assert spmv_mod.build_count == before + 1  # no further builds
    info = csr_cache_info()
    assert info["hits"] == 10 and info["misses"] == 1


def test_lru_evicts_oldest():
    for i in range(spmv_mod._CSR_CACHE_MAX + 1):
        build_stencil_csr(2, 2, 2, False, False, OFFSETS_27,
                          diag_val=float(i + 1), off_val=-1.0)
    info = csr_cache_info()
    assert info["size"] == spmv_mod._CSR_CACHE_MAX
    # the first entry was evicted: rebuilding it is a miss
    before = spmv_mod.build_count
    build_stencil_csr(2, 2, 2, False, False, OFFSETS_27,
                      diag_val=1.0, off_val=-1.0)
    assert spmv_mod.build_count == before + 1


@pytest.mark.parametrize("shape,lower,upper", [
    ((1, 1, 1), False, False),
    ((4, 4, 4), True, False),
    ((3, 5, 2), False, True),
    ((4, 4, 6), True, True),
])
def test_optimized_builder_matches_seed_reference(shape, lower, upper):
    """Differential test: the restructured (no-stack/no-argsort) builder
    reproduces the seed implementation bit-for-bit."""
    for offsets, diag in ((OFFSETS_27, 27.0), (spmv_mod.OFFSETS_7, 6.0)):
        fast = _build_stencil_arrays(*shape, lower, upper,
                                     tuple(offsets), diag, -1.0)
        ref = _build_stencil_arrays_reference(*shape, lower, upper,
                                              tuple(offsets), diag, -1.0)
        np.testing.assert_array_equal(fast.row_ptr, ref.row_ptr)
        np.testing.assert_array_equal(fast.col, ref.col)
        np.testing.assert_array_equal(fast.val, ref.val)


def test_spmv_rows_matches_seed_reference():
    """Differential test: the block-cached product equals the seed's
    recompute-per-call implementation."""
    m = build_27pt(4, 5, 6, has_lower=True, has_upper=False)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(m.padded_len)
    for lo, hi in ((0, m.n_rows), (3, 17), (100, 101)):
        fast = np.empty(hi - lo)
        ref = np.empty(hi - lo)
        spmv_rows(m, x, lo, hi, fast)
        _spmv_rows_reference(m, x, lo, hi, ref)
        np.testing.assert_array_equal(fast, ref)


def test_row_block_cache_matches_direct_computation():
    m = build_27pt(4, 4, 6, has_lower=True, has_upper=True)
    x = np.arange(m.padded_len, dtype=np.float64)
    lo, hi = 7, 29
    y = np.empty(hi - lo)
    spmv_rows(m, x, lo, hi, y)   # populates the block cache
    spmv_rows(m, x, lo, hi, y)   # exercises the cached path
    # dense reference
    dense = np.zeros((m.n_rows, m.padded_len))
    for r in range(m.n_rows):
        for k in range(int(m.row_ptr[r]), int(m.row_ptr[r + 1])):
            dense[r, m.col[k]] += m.val[k]
    np.testing.assert_allclose(y, dense[lo:hi] @ x)
    assert m.row_nnz(lo, hi) == int(m.row_ptr[hi] - m.row_ptr[lo])


def _splits(n_rows: int, ways: int):
    """The ``ways``-way row split of the intra runtime's block tasks."""
    edges = [n_rows * k // ways for k in range(ways + 1)]
    return list(zip(edges[:-1], edges[1:]))


def test_shared_gather_buffer_across_matrices_and_splits():
    """Interleaved products over two matrices and over the 1…64-way
    splits of one of them all equal the seed reference, although every
    call gathers into the same module buffer; the buffer stays one
    block's worth: at most the largest block's nnz × 8 bytes."""
    a = build_27pt(8, 8, 8, has_lower=True, has_upper=True)
    b = build_7pt(6, 5, 7, has_lower=False, has_upper=True)
    rng = np.random.default_rng(11)
    xa = rng.standard_normal(a.padded_len)
    xb = rng.standard_normal(b.padded_len)
    calls = []
    for ways in (1, 2, 4, 8, 16, 32, 64):
        for blk_a, blk_b in zip(_splits(a.n_rows, ways),
                                _splits(b.n_rows, ways)):
            calls += [(a, xa, *blk_a), (b, xb, *blk_b)]
    # a small block between two big ones must not see stale entries
    calls += [(a, xa, 0, a.n_rows), (b, xb, 5, 6), (a, xa, 0, a.n_rows)]
    largest = 0
    for m, x, lo, hi in calls:
        fast = np.empty(hi - lo)
        ref = np.empty(hi - lo)
        spmv_rows(m, x, lo, hi, fast)
        _spmv_rows_reference(m, x, lo, hi, ref)
        np.testing.assert_array_equal(fast, ref)
        largest = max(largest, m.row_nnz(lo, hi))
    assert largest == a.nnz
    assert 0 < csr_cache_info()["gather_bytes"] <= largest * 8
    # no row block keeps float scratch of its own: its only float
    # array is the view of the matrix's values
    for m in (a, b):
        for blk in m._block_cache.values():
            floats = [v for v in blk if isinstance(v, np.ndarray)
                      and v.dtype == np.float64]
            assert len(floats) == 1 and floats[0].base is m.val


def test_clear_csr_cache_releases_the_gather_buffer():
    m = build_27pt(4, 4, 4, has_lower=False, has_upper=False)
    spmv_rows(m, np.ones(m.padded_len), 0, m.n_rows, np.empty(m.n_rows))
    assert csr_cache_info()["gather_bytes"] == m.nnz * 8
    clear_csr_cache()
    assert csr_cache_info()["gather_bytes"] == 0
