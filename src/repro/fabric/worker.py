"""The fabric worker: pull scenario hashes, run them, push bytes.

``python -m repro.fabric.worker --root DIR`` starts one daemon against
a fabric root.  The loop is deliberately tiny:

1. :meth:`~repro.fabric.queue.WorkQueue.lease` the oldest ready key;
2. decode the recorded scenario JSON and run it through the *same*
   execution path every sweep uses
   (:func:`repro.scenarios.run._run_scenario` — determinism makes the
   result a pure function of the scenario, whoever computes it);
3. :meth:`~repro.fabric.core.Fabric.put_result` the pickled
   :class:`~repro.scenarios.run.ModeRun` bytes (byte-identical to what
   a serial cached sweep would store) and ``ack``.

A worker that is SIGKILLed mid-point loses nothing but its lease: the
queue re-readies the item after the lease expires (one ``worker-lost``
attempt, exponential backoff) and another worker re-runs it — the
re-run stores the *same bytes*, so resumption is invisible in the
results.  SIGTERM stops the daemon the same way, except that it first
closes its connections and exits 0 (Ctrl-C: 130).  A run that raises
charges a failed attempt via
:meth:`~repro.fabric.queue.WorkQueue.fail`; after ``max_attempts`` the
item parks as ``failed`` and waiting sweeps surface it as a
:class:`repro.perf.PointFailure`.

Any number of workers may share one root — the queue's SQLite
transactions arbitrate — which is the fan-out story: point-level
parallelism across processes and hosts that share a filesystem.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import time
import typing as _t

from ..perf.retry import RetryPolicy
from .core import Fabric
from .queue import Lease

__all__ = ["drain", "main", "process_one", "run_worker"]


class _Terminated(BaseException):
    """Raised by :func:`main`'s SIGTERM handler.  Not an ``Exception``,
    so :func:`process_one` does not charge the running point a failed
    attempt: the point keeps its lease until the lease expires."""


def _terminate(signum: int, frame: _t.Any) -> None:
    raise _Terminated


def default_worker_id() -> str:
    """``host:pid`` — unique per live process, stable for its life
    (lease ownership checks key on it)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def process_one(fabric: Fabric, worker_id: str,
                lease: _t.Optional[Lease] = None) -> _t.Optional[str]:
    """Lease and run one point; returns its key, or ``None`` when the
    queue had nothing ready.  A raising run is charged to the queue's
    retry budget and never propagates (one poisoned scenario must not
    take down the daemon)."""
    if lease is None:
        lease = fabric.queue.lease(worker_id, fabric.lease)
    if lease is None:
        return None
    try:
        from ..scenarios.run import _run_scenario
        from ..scenarios.spec import Scenario
        scenario = Scenario.from_json(lease.scenario_json)
        mode_run = _run_scenario(scenario)
    except Exception as exc:  # noqa: BLE001 — any point failure is
        # queue accounting, not a daemon crash
        fabric.queue.fail(lease.key, worker_id, RetryPolicy.tag(
            "error", f"{type(exc).__name__}: {exc}"))
        return lease.key
    fabric.put_result(lease.key, mode_run)
    fabric.queue.ack(lease.key, worker_id)
    return lease.key


def drain(fabric: Fabric, max_points: _t.Optional[int] = None,
          worker_id: _t.Optional[str] = None) -> int:
    """Process ready points inline until the queue yields none (no
    waiting on backoff delays or other workers' leases); returns the
    number processed."""
    worker_id = worker_id or default_worker_id()
    done = 0
    while max_points is None or done < max_points:
        if process_one(fabric, worker_id) is None:
            break
        done += 1
    return done


def run_worker(fabric: Fabric, *,
               worker_id: _t.Optional[str] = None,
               max_points: _t.Optional[int] = None,
               idle_exit: _t.Optional[float] = None,
               log: _t.Optional[_t.Callable[[str], None]] = None) -> int:
    """The daemon loop: drain the queue, sleep ``fabric.poll`` between
    empty polls, exit after ``idle_exit`` seconds with no work (or run
    forever), or after ``max_points`` points.  Returns the number of
    points processed."""
    worker_id = worker_id or default_worker_id()
    done = 0
    idle_since: _t.Optional[float] = None
    while max_points is None or done < max_points:
        key = process_one(fabric, worker_id)
        if key is not None:
            done += 1
            idle_since = None
            if log is not None:
                log(f"[{worker_id}] processed {key[:12]}… "
                    f"({done} total)")
            continue
        now = time.monotonic()
        if idle_since is None:
            idle_since = now
        if idle_exit is not None and now - idle_since >= idle_exit:
            break
        time.sleep(fabric.poll)
    return done


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.worker",
        description="Run one fabric worker daemon: lease queued "
                    "scenario hashes, simulate them, store the result "
                    "bytes.")
    parser.add_argument("--root", required=True, metavar="DIR",
                        help="the fabric root (shared store + queue)")
    parser.add_argument("--backend", choices=("file", "sqlite"),
                        default=None,
                        help="result-store backend (default: the "
                             "REPRO_CACHE_BACKEND selection)")
    parser.add_argument("--max-points", type=int, default=None,
                        metavar="N",
                        help="exit after processing N points")
    parser.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with an empty "
                             "queue (default: run forever)")
    parser.add_argument("--poll", type=float, default=0.05,
                        metavar="SECONDS",
                        help="sleep between empty queue polls "
                             "(default: 0.05)")
    parser.add_argument("--lease", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-point lease duration (default: 60)")
    parser.add_argument("--backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base retry backoff (default: 0.5)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        metavar="N",
                        help="attempts before a point parks as failed "
                             "(default: 3)")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="lease-ownership identity "
                             "(default: host:pid)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    args = parser.parse_args(argv)
    if args.max_points is not None and args.max_points < 1:
        parser.error("--max-points must be >= 1")
    if args.poll <= 0 or args.lease <= 0:
        parser.error("--poll and --lease must be positive")

    fabric = Fabric(args.root, backend=args.backend, poll=args.poll,
                    lease=args.lease, max_attempts=args.max_attempts,
                    backoff=args.backoff)
    log = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True))
    # SIGTERM unwinds like Ctrl-C, so the fabric's connections close
    # (checkpointing the WAL) before the worker exits
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        done = run_worker(fabric, worker_id=args.worker_id,
                          max_points=args.max_points,
                          idle_exit=args.idle_exit, log=log)
    except KeyboardInterrupt:
        return 130
    except _Terminated:
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        fabric.close()
    if log is not None:
        log(f"worker exiting after {done} point(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
