"""One retry curve: serial retries, pool retry rounds and work-queue
re-readies all wait :meth:`RetryPolicy.delay` after failed attempt k.

The sweep side records the driver's ``time.sleep`` calls; the queue
side reads each re-ready time back through ``lease(now=...)``.  The
base delay makes the curve reach its 30 s cap inside the budget.
"""

import pytest

from repro.fabric.queue import WorkQueue
from repro.perf import PointFailure, run_sweep
from repro.perf import sweep as sweep_mod
from repro.perf.retry import RetryPolicy

RETRIES = 5
BACKOFF = 4.0
POLICY = RetryPolicy(RETRIES + 1, BACKOFF)
EXPECTED = [POLICY.delay(k) for k in range(1, RETRIES + 1)]
KEY = "cd" + "3" * 61


def _always_fails(x):
    raise ValueError(f"boom {x}")


def _sweep_waits(monkeypatch, workers, points):
    slept = []
    monkeypatch.setattr(sweep_mod.time, "sleep", slept.append)
    out = run_sweep(points, _always_fails, workers=workers,
                    retries=RETRIES, backoff=BACKOFF, on_error="return")
    assert all(isinstance(v, PointFailure) and v.attempts == RETRIES + 1
               for v in out)
    return slept


def _leased_after(q, t0):
    """Lease the re-readied item; return its delay past ``t0``: the
    first candidate ``d`` at which it leases while a microsecond
    earlier it does not (``None`` if no candidate fits)."""
    for d in sorted(set(EXPECTED)):
        if q.lease("w", lease_s=1.0, now=t0 + d - 1e-6) is not None:
            return None
        if q.lease("w", lease_s=1.0, now=t0 + d) is not None:
            return d
    return None


def _queue_waits(tmp_path, expire):
    """Fail the leased item RETRIES + 1 times, measuring the re-ready
    delay after each failure but the last, which parks it."""
    q = WorkQueue(tmp_path, max_attempts=RETRIES + 1, backoff=BACKOFF)
    try:
        q.enqueue(KEY, "{}", now=0.0)
        waits = []
        now = 0.0
        assert q.lease("w", lease_s=1.0, now=now) is not None
        for k in range(1, RETRIES + 2):
            if expire:
                failed_at = now + 2.0          # past the lease
                q.expire_stale(now=failed_at)
            else:
                failed_at = now
                q.fail(KEY, "w", RetryPolicy.tag("error", "boom"),
                       now=failed_at)
            if k > RETRIES:
                break
            wait = _leased_after(q, failed_at)
            if wait is None:
                return waits
            waits.append(wait)
            now = failed_at + wait
        item = q.get(KEY)
        assert (item.state, item.attempts) == ("failed", RETRIES + 1)
        assert RetryPolicy.kind_of(item.error) == (
            "worker-lost" if expire else "error")
        return waits
    finally:
        q.close()


@pytest.mark.parametrize("path", ["serial", "pool", "queue-fail",
                                  "queue-lease-expiry"])
def test_retries_wait_the_policy_delay(path, monkeypatch, tmp_path):
    assert EXPECTED == [4.0, 8.0, 16.0, 30.0, 30.0]   # 30 s cap reached
    if path == "serial":
        waits = _sweep_waits(monkeypatch, 1, [1])
    elif path == "pool":
        waits = _sweep_waits(monkeypatch, 2, [1, 2])
    else:
        waits = _queue_waits(tmp_path, expire=path == "queue-lease-expiry")
    assert waits == EXPECTED


def test_failure_kind_reads_only_the_tag_prefix():
    lost = RetryPolicy.tag("worker-lost", "lease by w expired")
    assert RetryPolicy.kind_of(lost) == "worker-lost"
    # a message that merely mentions another kind keeps its own tag
    raised = RetryPolicy.tag("error", "RuntimeError: worker-lost: no")
    assert RetryPolicy.kind_of(raised) == "error"
    assert RetryPolicy.kind_of("untagged message") == "error"
    with pytest.raises(ValueError):
        RetryPolicy.tag("crashed", "not in the vocabulary")
