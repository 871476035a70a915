"""Vector kernels of HPCCG: waxpby and ddot (paper §IV–V).

Each kernel comes with its roofline cost model.  The flops/bytes ratios
are what drive the paper's Figure 5a result:

* ``waxpby`` — 3 flops per element against 24 streamed bytes; its task
  *output* is as large as its input, so intra-parallelization pays more
  in update transfer than it saves in compute (efficiency 0.34 < 0.5);
* ``ddot`` — 2 flops per element against 16 streamed bytes, but the task
  output is a single scalar: updates are free, efficiency ≈ 0.99.
"""

from __future__ import annotations

import typing as _t

import numpy as np

#: recycled per-size temporary for the scaled-operand term of waxpby
#: (the kernel runs hundreds of times per CG solve on identical sizes)
_tmp_cache: _t.Dict[int, np.ndarray] = {}


def _tmp(n: int) -> np.ndarray:
    buf = _tmp_cache.get(n)
    if buf is None:
        buf = _tmp_cache[n] = np.empty(n)
    return buf


def waxpby(alpha: float, x: np.ndarray, beta: float, y: np.ndarray,
           w: np.ndarray) -> None:
    """``w = alpha * x + beta * y`` (in place into ``w``).

    The paper's Figure 3 kernel.  Alias-safe like HPCCG's elementwise
    loop: CG calls it with ``w`` aliasing ``x`` (x update) or ``y``
    (p update), so the aliased operand is scaled in place first.
    Temporaries for the scaled second term come from a per-size scratch
    cache instead of being allocated per call.
    """
    if w is y or np.shares_memory(w, y):
        w *= beta
        if alpha == 1.0:
            w += x
        else:
            tmp = _tmp(x.size).reshape(x.shape)
            np.multiply(x, alpha, out=tmp)
            w += tmp
    elif w is x or np.shares_memory(w, x):
        w *= alpha
        if beta == 1.0:
            w += y
        else:
            tmp = _tmp(y.size).reshape(y.shape)
            np.multiply(y, beta, out=tmp)
            w += tmp
    else:
        np.multiply(x, alpha, out=w)
        if beta == 1.0:
            w += y
        else:
            tmp = _tmp(y.size).reshape(y.shape)
            np.multiply(y, beta, out=tmp)
            w += tmp


def waxpby_cost(alpha: float, x: np.ndarray, beta: float, y: np.ndarray,
                w: np.ndarray) -> _t.Tuple[float, float]:
    """3 flops, 24 bytes per element (read x, read y, write w)."""
    n = x.size
    return (3.0 * n, 24.0 * n)


def ddot_partial(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Partial dot product of a task's slice: ``out[0] = sum(x * y)``.

    The cross-rank reduction is *not* part of the intra-parallel section
    (paper footnote 6: "the ddot routine includes a reduction step, but
    this step was excluded from the intra-parallel section").
    """
    out[0] = np.dot(x, y)


def ddot_cost(x: np.ndarray, y: np.ndarray,
              out: np.ndarray) -> _t.Tuple[float, float]:
    """2 flops, 16 bytes per element (read x, read y)."""
    n = x.size
    return (2.0 * n, 16.0 * n)


def grid_sum_partial(x: np.ndarray, out: np.ndarray) -> None:
    """Partial sum of grid elements: ``out[0] = sum(x)``.

    MiniGhost's only efficiently intra-parallelizable kernel (§V-D): the
    output is one scalar, like ddot.
    """
    out[0] = x.sum()


def grid_sum_cost(x: np.ndarray, out: np.ndarray) -> _t.Tuple[float, float]:
    """1 flop, 8 bytes per element (stream x once)."""
    n = x.size
    return (1.0 * n, 8.0 * n)
