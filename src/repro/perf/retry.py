"""The one retry policy shared by the sweep driver and the fabric queue.

:func:`repro.perf.iter_sweep` (``retries``/``backoff``) and
:class:`repro.fabric.queue.WorkQueue` (``max_attempts``/``backoff``)
both charge failed attempts against a :class:`RetryPolicy`: the same
attempt budget, the same exponential delay curve capped at 30 s and
the same failure-kind vocabulary.  A point that spends its budget
surfaces as a :class:`PointFailure`.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass
class PointFailure:
    """Structured outcome of a sweep point that exhausted its retries.

    Yielded as a :class:`~repro.perf.SweepItem`'s ``value`` under
    ``on_error="return"`` instead of raising, so one pathological point
    cannot take down a long sweep.  Failures are never written to the
    cache — the point recomputes on the next sweep.

    ``kind`` is ``"error"`` (``fn`` raised), ``"timeout"`` (the point
    exceeded the per-point budget) or ``"worker-lost"`` (the pool
    worker running — or queued to run — the point died).
    """

    error: str
    kind: str = "error"
    attempts: int = 1


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """An attempt budget plus the backoff curve between attempts.

    ``attempts`` counts every run of a point, the first included (a
    sweep's ``retries + 1``, a queue's ``max_attempts``); ``backoff`` is
    the base delay in seconds.
    """

    attempts: int
    backoff: float

    #: upper bound on one retry delay, seconds
    MAX_DELAY: _t.ClassVar[float] = 30.0
    #: the :attr:`PointFailure.kind` vocabulary
    KINDS: _t.ClassVar[_t.Tuple[str, ...]] = ("error", "timeout",
                                               "worker-lost")

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(
                f"the retry budget must allow one attempt (retries >= 0, "
                f"max_attempts >= 1), got {self.attempts} attempt(s)")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")

    def delay(self, k: int) -> float:
        """Seconds to wait after failed attempt ``k`` (1-based) before
        the next one: ``backoff * 2**(k-1)``, capped at 30 s."""
        return min(self.backoff * 2 ** (k - 1), self.MAX_DELAY)

    def exhausted(self, k: int) -> bool:
        """Whether ``k`` failed attempts spend the budget."""
        return k >= self.attempts

    @classmethod
    def tag(cls, kind: str, detail: str) -> str:
        """An error message that carries its failure ``kind`` as a
        prefix, for stores that keep only text (the queue's ``error``
        column); :meth:`kind_of` reads it back."""
        if kind not in cls.KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        return f"{kind}: {detail}"

    @classmethod
    def kind_of(cls, error: str) -> str:
        """The kind a :meth:`tag`\\ ged message carries (``"error"``
        when it carries none)."""
        prefix = error.partition(": ")[0]
        return prefix if prefix in cls.KINDS else "error"
