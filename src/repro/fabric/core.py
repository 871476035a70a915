"""The :class:`Fabric` handle: one root directory = one fabric.

A fabric root holds a :class:`~repro.fabric.store.ResultStore` (the
``file`` shard tree and/or the ``sqlite`` database — same scenario-hash
keys, same bytes) plus the durable
:class:`~repro.fabric.queue.WorkQueue`.  Everything that cooperates on
a sweep — ``repro.sweep(..., fabric=...)``, ``python -m
repro.fabric.worker`` daemons, the ``python -m repro.fabric.serve``
result service — opens the same root and coordinates purely through
those two files, so any of them can die and restart without losing
completed work: that is what makes sweeps resumable.
"""

from __future__ import annotations

import pathlib
import typing as _t

from .queue import WorkQueue
from .store import ResultStore, open_store, read_result, write_result

__all__ = ["Fabric"]


class Fabric:
    """Handle on one fabric root (store + queue); cheap to construct,
    safe to share between threads (per-thread SQLite connections
    underneath)."""

    def __init__(self, root: _t.Union[str, pathlib.Path], *,
                 backend: _t.Optional[str] = None,
                 poll: float = 0.05,
                 lease: float = 60.0,
                 max_attempts: int = 3,
                 backoff: float = 0.5) -> None:
        """``backend`` selects the result store (``None`` → the
        process-wide ``REPRO_CACHE_BACKEND`` default); ``poll`` is the
        store-polling cadence of waiting sweeps and clients; ``lease``
        the per-point worker lease in seconds; ``max_attempts`` /
        ``backoff`` the queue's retry policy (the sweep driver's
        semantics: a lost worker or a raising run charges one attempt,
        retries back off exponentially)."""
        if poll <= 0:
            raise ValueError("poll must be positive")
        if lease <= 0:
            raise ValueError("lease must be positive")
        self.root = pathlib.Path(root)
        self.store: ResultStore = open_store(self.root, backend)
        self.queue = WorkQueue(self.root, max_attempts=max_attempts,
                               backoff=backoff)
        self.poll = poll
        self.lease = lease

    def __repr__(self) -> str:
        return (f"Fabric({str(self.root)!r}, "
                f"backend={self.store.backend!r})")

    # -------------------------------------------------------- scenarios
    def key_for(self, scenario: _t.Any) -> str:
        """The scenario's content-addressed cache key — identical to
        what the serial sweep path uses, so fabric and local caches
        interoperate byte-for-byte."""
        from ..scenarios.run import scenario_cache_key
        return scenario_cache_key(scenario)

    def record_scenario(self, scenario: _t.Any) -> str:
        """Teach the fabric the key ↔ scenario binding (so the result
        service can serve ``/result/<key>`` losslessly); returns the
        key."""
        key = self.key_for(scenario)
        self.queue.record_scenario(key, scenario.to_json())
        return key

    def enqueue_scenario(self, scenario: _t.Any) -> str:
        """Queue one cold scenario for the workers; returns its key.
        Warm keys should be served from :attr:`store` instead —
        ``repro.sweep(..., fabric=...)`` does both."""
        key = self.key_for(scenario)
        self.queue.enqueue(key, scenario.to_json())
        return key

    # ---------------------------------------------------------- results
    def load_result(self, key: str) -> _t.Optional[_t.Any]:
        """The stored :class:`~repro.scenarios.run.ModeRun` for ``key``,
        or ``None`` on a miss.  A failed read or a corrupt payload is a
        miss with a warning (:func:`~repro.fabric.store.read_result`),
        so a poisoned entry recomputes instead of crashing the fabric."""
        return read_result(self.store, key)[1]

    def put_result(self, key: str, mode_run: _t.Any) -> None:
        """Store one computed result — the exact bytes the sweep cache
        writes (:func:`~repro.fabric.store.write_result`)."""
        write_result(self.store, key, mode_run)

    # ---------------------------------------------------------- workers
    def drain(self, max_points: _t.Optional[int] = None) -> int:
        """Run the worker loop inline until the queue is empty (or
        ``max_points`` is hit); returns the number of points processed.
        The single-host convenience: tests and small sweeps need no
        daemon."""
        from .worker import drain
        return drain(self, max_points=max_points)

    def stats(self) -> _t.Dict[str, _t.Any]:
        """One combined snapshot: store + queue counters."""
        return {"store": self.store.stats().as_dict(),
                "queue": self.queue.stats().as_dict()}

    def close(self) -> None:
        """Close every store and queue connection, on any thread; the
        next use reopens them."""
        self.store.close()
        self.queue.close()

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()
