"""Performance subsystem: parallel sweep driver + result caching.

The experiment harness describes every figure as a list of independent
sweep points; :func:`run_sweep` evaluates them through a process pool
with optional on-disk memoization.  See :mod:`repro.perf.sweep`.
"""

from .retry import PointFailure
from .sweep import (CACHE_VERSION, SweepConfig, SweepItem,
                    clear_result_cache, configure, get_config, iter_sweep,
                    point_cache_key, run_sweep, stable_token)

__all__ = [
    "CACHE_VERSION", "PointFailure", "SweepConfig", "SweepItem",
    "clear_result_cache", "configure", "get_config", "iter_sweep",
    "point_cache_key", "run_sweep", "stable_token",
]
