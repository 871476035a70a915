"""Structured stencils: 27-point and 7-point (MiniGhost, AMG problems).

Grids are ``(nx, ny, nz+2)`` arrays with one halo xy-plane at each end
of z (the rank-partitioned axis); x/y boundaries are treated as zero
(truncated legs).  The stencil writes a full new grid — exactly the case
the paper found *not* amenable to intra-parallelization in MiniGhost
("the output is a new 3D matrix"), so its cost model matters mostly for
the native/SDR baselines.

The x/y-padded staging array each application needs is recycled through
a small per-shape scratch cache: a MiniGhost run applies the stencil
thousands of times on identically shaped grids, and the padded borders
only ever hold zeros, so the buffer is allocated (and its border zeroed)
once per shape.
"""

from __future__ import annotations

import typing as _t

import numpy as np

#: per-shape scratch arrays; borders of "pad" entries stay zero
_scratch: _t.Dict[tuple, np.ndarray] = {}


def clear_stencil_scratch() -> None:
    """Drop the scratch-buffer cache (tests / memory pressure)."""
    _scratch.clear()


def _padded(grid: np.ndarray) -> np.ndarray:
    """Return ``grid`` staged into an x/y zero-padded scratch array."""
    nx, ny, nz2 = grid.shape
    key = ("pad", nx, ny, nz2)
    buf = _scratch.get(key)
    if buf is None:
        buf = _scratch[key] = np.zeros((nx + 2, ny + 2, nz2))
    buf[1:-1, 1:-1, :] = grid
    return buf


def _interior_scratch(shape: tuple) -> np.ndarray:
    """An uninitialised per-shape temporary of interior shape."""
    key = ("tmp", *shape)
    buf = _scratch.get(key)
    if buf is None:
        buf = _scratch[key] = np.empty(shape)
    return buf


def apply_27pt(grid: np.ndarray, out: np.ndarray) -> None:
    """27-point average stencil over the interior z-range.

    ``grid`` has shape (nx, ny, nz+2) including halos; ``out`` has shape
    (nx, ny, nz) and receives the unweighted 27-neighbour average
    (MiniGhost's GROWTH/heat-diffusion flavour).
    """
    nx, ny, nz2 = grid.shape
    nz = nz2 - 2
    if out.shape != (nx, ny, nz):
        raise ValueError(f"out shape {out.shape} != {(nx, ny, nz)}")
    padded = _padded(grid)
    out.fill(0.0)
    for dx in (0, 1, 2):
        for dy in (0, 1, 2):
            for dz in (0, 1, 2):
                out += padded[dx:dx + nx, dy:dy + ny, dz:dz + nz]
    out /= 27.0


def stencil27_cost(grid: np.ndarray,
                   out: np.ndarray) -> _t.Tuple[float, float]:
    """27 adds + 1 divide per cell; ~32 streamed bytes per cell (read
    once through cache-blocked planes, write once, plus halo traffic)."""
    n = out.size
    return (28.0 * n, 32.0 * n)


def apply_7pt(grid: np.ndarray, out: np.ndarray) -> None:
    """7-point Laplace-like stencil: ``out = 6*c - (six neighbours)``
    (the operator of AMG2013's 7-point problem)."""
    nx, ny, nz2 = grid.shape
    nz = nz2 - 2
    if out.shape != (nx, ny, nz):
        raise ValueError(f"out shape {out.shape} != {(nx, ny, nz)}")
    padded = _padded(grid)
    c = padded[1:-1, 1:-1, 1:-1]
    np.multiply(c, 6.0, out=out)
    out -= padded[0:-2, 1:-1, 1:-1]
    out -= padded[2:, 1:-1, 1:-1]
    out -= padded[1:-1, 0:-2, 1:-1]
    out -= padded[1:-1, 2:, 1:-1]
    out -= padded[1:-1, 1:-1, 0:-2]
    out -= padded[1:-1, 1:-1, 2:]


def stencil7_cost(grid: np.ndarray,
                  out: np.ndarray) -> _t.Tuple[float, float]:
    """7 flops per cell; ~24 streamed bytes per cell."""
    n = out.size
    return (7.0 * n, 24.0 * n)


def apply_27pt_matvec(grid: np.ndarray, out: np.ndarray) -> None:
    """27-point Laplace-like operator ``26*c - neighbours`` (the AMG2013
    27-point problem's matrix action, matching :func:`build_27pt` with
    diagonal 27 up to the self-term convention)."""
    nx, ny, nz2 = grid.shape
    nz = nz2 - 2
    if out.shape != (nx, ny, nz):
        raise ValueError(f"out shape {out.shape} != {(nx, ny, nz)}")
    padded = _padded(grid)
    out.fill(0.0)
    for dx in (0, 1, 2):
        for dy in (0, 1, 2):
            for dz in (0, 1, 2):
                if dx == 1 and dy == 1 and dz == 1:
                    continue
                out += padded[dx:dx + nx, dy:dy + ny, dz:dz + nz]
    # out = 27*c - neighbour_sum, via a recycled temporary
    tmp = _interior_scratch(out.shape)
    np.multiply(padded[1:-1, 1:-1, 1:-1], 27.0, out=tmp)
    np.subtract(tmp, out, out=out)


def stencil27_matvec_cost(grid: np.ndarray,
                          out: np.ndarray) -> _t.Tuple[float, float]:
    """27 flops per cell; ~32 streamed bytes per cell (27-pt operator has
    the same data movement as the averaging stencil)."""
    n = out.size
    return (27.0 * n, 32.0 * n)
