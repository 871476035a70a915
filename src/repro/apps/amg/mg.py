"""Local multigrid preconditioner for the AMG2013-like app.

AMG2013 (LLNL) is an *algebraic* multigrid solver; reproducing a full
parallel AMG hierarchy is out of scope, so we substitute the closest
structured equivalent with the same kernel signature: a **geometric**
multigrid V-cycle applied *per rank* as a block-Jacobi preconditioner.
The kernel mix matches what matters for intra-parallelization: explicit
CSR spmv at every level (matrix streaming — the favourable
compute-per-output-byte ratio of §V-C), ω-Jacobi smoothing, and grid
transfer operators.  The substitution is recorded in DESIGN.md.

All operators are *explicit CSR matrices* (like AMG2013's), built by
:func:`repro.kernels.build_stencil_csr` without halo coupling (the
preconditioner acts on the local block only; the outer Krylov loop
carries the global coupling).
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from ...kernels import build_stencil_csr
from ...kernels.spmv import CsrMatrix
from ..common import kernel_spmv


@dataclasses.dataclass
class MgLevel:
    """One level of the geometric hierarchy."""

    shape: _t.Tuple[int, int, int]
    matrix: CsrMatrix
    inv_diag: np.ndarray


@dataclasses.dataclass
class MgHierarchy:
    levels: _t.List[MgLevel]
    omega: float = 0.8
    pre_sweeps: int = 1
    post_sweeps: int = 1
    coarse_sweeps: int = 8


def extract_diagonal(m: CsrMatrix) -> np.ndarray:
    """Diagonal of a halo-padded CSR matrix (diag column = halo_lo+row).

    A row's first entry in the diagonal column wins; a row without one
    reads 0.  One vectorized pass over the nonzeros: each nonzero gets
    its row number, and the hits are already in row order.
    """
    n = m.n_rows
    rows = np.repeat(np.arange(n), np.diff(m.row_ptr))
    hits = np.flatnonzero(m.col == m.halo_lo + rows)
    hit_rows = rows[hits]
    first = np.ones(hits.size, dtype=bool)
    np.not_equal(hit_rows[1:], hit_rows[:-1], out=first[1:])
    diag = np.zeros(n)
    diag[hit_rows[first]] = m.val[hits[first]]
    return diag


def build_hierarchy(nx: int, ny: int, nz: int,
                    offsets: _t.Sequence[_t.Tuple[int, int, int]],
                    diag_val: float, off_val: float,
                    min_dim: int = 4) -> MgHierarchy:
    """Coarsen by 2 in every dimension while all dimensions stay even
    and at least ``min_dim``."""
    levels = []
    dims = (nx, ny, nz)
    while True:
        m = build_stencil_csr(*dims, has_lower=False, has_upper=False,
                              offsets=offsets, diag_val=diag_val,
                              off_val=off_val)
        diag = extract_diagonal(m)
        if (diag == 0).any():
            raise ValueError("operator has zero diagonal entries")
        levels.append(MgLevel(shape=dims, matrix=m, inv_diag=1.0 / diag))
        if any(d % 2 or d // 2 < min_dim for d in dims):
            break
        dims = (dims[0] // 2, dims[1] // 2, dims[2] // 2)
    return MgHierarchy(levels=levels)


def restrict_full_weighting(fine: np.ndarray,
                            fine_shape: _t.Tuple[int, int, int]
                            ) -> np.ndarray:
    """Average 2×2×2 fine cells into each coarse cell."""
    nx, ny, nz = fine_shape
    g = fine.reshape(nx, ny, nz)
    c = g.reshape(nx // 2, 2, ny // 2, 2, nz // 2, 2).mean(axis=(1, 3, 5))
    return c.reshape(-1)


def prolong_injection(coarse: np.ndarray,
                      coarse_shape: _t.Tuple[int, int, int]) -> np.ndarray:
    """Replicate each coarse cell into its 2×2×2 fine children."""
    cx, cy, cz = coarse_shape
    g = coarse.reshape(cx, cy, cz)
    f = np.repeat(np.repeat(np.repeat(g, 2, axis=0), 2, axis=1), 2,
                  axis=2)
    return f.reshape(-1)


def transfer_cost(n_fine: int) -> _t.Tuple[float, float]:
    """Grid-transfer roofline, calibrated to AMG2013's *explicit*
    interpolation matrices: applying P (or its transpose) is itself a
    sparse matvec with ~8 nonzeros per fine row, i.e. ~16 flops and
    ~96 streamed bytes per fine cell — not the nearly-free geometric
    averaging our structured grids would allow."""
    return (16.0 * n_fine, 96.0 * n_fine)


def jacobi_sweep(ctx, level: MgLevel, b: np.ndarray, x: np.ndarray,
                 scratch: np.ndarray, omega: float, *, in_section: bool,
                 n_tasks: int):
    """One ω-Jacobi sweep ``x += ω D⁻¹ (b − A x)``.

    The spmv is the intra-parallelizable part (explicit CSR); the vector
    update runs locally on every replica (waxpby-like ratio — not worth
    sharing, per §V-C).
    """
    m = level.matrix
    yield from kernel_spmv(ctx, m, x, scratch[:m.n_rows],
                           in_section=in_section, n_tasks=n_tasks,
                           region="smoother_spmv")

    def update(bb, ax, invd, xx):
        xx[m.halo_lo:m.halo_lo + m.n_rows] += (
            omega * invd * (bb - ax))

    yield from ctx.intra.run_local(
        update, [b, scratch[:m.n_rows], level.inv_diag, x],
        cost=lambda bb, ax, invd, xx: (3.0 * m.n_rows, 32.0 * m.n_rows))


def v_cycle(ctx, hier: MgHierarchy, b: np.ndarray, *, in_section: bool,
            n_tasks: int, level: int = 0,
            intra_levels: int = 99) -> _t.Generator:
    """One V-cycle on the local block; returns the correction vector
    (unpadded).  ``b`` is the level's right-hand side (unpadded).

    ``intra_levels`` limits section usage to the finest levels: a level
    joins sections only if ``level < intra_levels`` (coarse grids are
    too small to amortize update latency)."""
    lvl = hier.levels[level]
    in_section = in_section and level < intra_levels
    m = lvl.matrix
    x = np.zeros(m.padded_len)  # halo_lo == 0 here, but stay generic
    scratch = np.zeros(m.n_rows)
    if level == len(hier.levels) - 1:
        for _ in range(hier.coarse_sweeps):
            yield from jacobi_sweep(ctx, lvl, b, x, scratch, hier.omega,
                                    in_section=in_section,
                                    n_tasks=n_tasks)
        return x[m.halo_lo:m.halo_lo + m.n_rows].copy()
    for _ in range(hier.pre_sweeps):
        yield from jacobi_sweep(ctx, lvl, b, x, scratch, hier.omega,
                                in_section=in_section, n_tasks=n_tasks)
    # residual r = b - A x
    yield from kernel_spmv(ctx, m, x, scratch, in_section=in_section,
                           n_tasks=n_tasks, region="smoother_spmv")
    yield from ctx.intra.run_local(
        lambda: None, [],
        cost=lambda: (m.n_rows, 24.0 * m.n_rows))  # r = b - Ax
    r = b - scratch
    r_coarse = restrict_full_weighting(r, lvl.shape)
    yield from ctx.intra.run_local(lambda: None, [],
                                   cost=lambda: transfer_cost(m.n_rows))
    correction = yield from v_cycle(ctx, hier, r_coarse,
                                    in_section=in_section,
                                    n_tasks=n_tasks, level=level + 1,
                                    intra_levels=intra_levels)
    fine_corr = prolong_injection(correction,
                                  hier.levels[level + 1].shape)
    yield from ctx.intra.run_local(lambda: None, [],
                                   cost=lambda: transfer_cost(m.n_rows))
    yield from ctx.intra.run_local(
        lambda: None, [],
        cost=lambda: (m.n_rows, 24.0 * m.n_rows))  # x += correction
    x[m.halo_lo:m.halo_lo + m.n_rows] += fine_corr
    for _ in range(hier.post_sweeps):
        yield from jacobi_sweep(ctx, lvl, b, x, scratch, hier.omega,
                                in_section=in_section, n_tasks=n_tasks)
    return x[m.halo_lo:m.halo_lo + m.n_rows].copy()
