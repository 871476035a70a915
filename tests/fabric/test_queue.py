"""WorkQueue: durable lease/ack/retry semantics.

The queue carries the sweep driver's retry policy (attempt accounting,
exponential backoff capped at 30 s, worker-lost attribution) into a
durable, multi-process form; ``now=`` injection keeps every timing
assertion deterministic.  The shared delay curve itself is pinned in
``tests/perf/test_retry_policy.py``.
"""

import pytest

from repro.fabric.queue import QUEUE_FILENAME, WorkQueue

KEY = "ab" + "2" * 61
SCEN = '{"app": "x"}'


@pytest.fixture
def q(tmp_path):
    queue = WorkQueue(tmp_path, max_attempts=3, backoff=0.5)
    yield queue
    queue.close()


def test_enqueue_then_lease_roundtrip(q):
    assert q.enqueue(KEY, SCEN) is True
    lease = q.lease("w1", 60.0)
    assert lease.key == KEY
    assert lease.scenario_json == SCEN
    assert q.lease("w2", 60.0) is None    # nothing else ready


def test_enqueue_is_idempotent_while_pending(q):
    assert q.enqueue(KEY, SCEN) is True
    assert q.enqueue(KEY, SCEN) is False  # already queued
    assert q.stats().ready == 1


def test_ack_requires_the_leaseholder(q):
    q.enqueue(KEY, SCEN)
    q.lease("w1", 60.0)
    assert q.ack(KEY, "imposter") is False
    assert q.ack(KEY, "w1") is True
    assert q.stats().done == 1


def test_expired_lease_counts_worker_lost_and_backs_off(q):
    q.enqueue(KEY, SCEN, now=0.0)
    q.lease("w1", lease_s=5.0, now=0.0)
    # within the lease nothing expires
    q.expire_stale(now=4.0)
    assert q.stats().leased == 1
    # past it: one worker-lost attempt, re-readied with backoff
    q.expire_stale(now=6.0)
    item = q.get(KEY)
    assert item.state == "ready"
    assert item.attempts == 1
    assert item.worker_lost == 1
    assert "worker-lost" in item.error
    # the backoff delay gates the next lease
    assert q.lease("w2", now=6.0) is None
    assert q.lease("w2", now=6.0 + q.policy.delay(1)).key == KEY


def test_exhausted_attempts_park_as_failed(q):
    q.enqueue(KEY, SCEN, now=0.0)
    now = 0.0
    for attempt in range(1, 4):
        now += 100.0
        assert q.lease("w", lease_s=60.0, now=now) is not None
        q.fail(KEY, "w", f"error: boom {attempt}", now=now)
    item = q.get(KEY)
    assert item.state == "failed"
    assert item.attempts == 3
    assert "boom 3" in item.error
    assert q.lease("w", now=now + 1000.0) is None


def test_reenqueue_after_failed_gets_fresh_attempt_budget(q):
    q.enqueue(KEY, SCEN, now=0.0)
    for i in range(3):
        q.lease("w", now=100.0 * (i + 1))
        q.fail(KEY, "w", "error: boom", now=100.0 * (i + 1))
    assert q.get(KEY).state == "failed"
    assert q.enqueue(KEY, SCEN, now=1000.0) is True
    item = q.get(KEY)
    assert item.state == "ready"
    assert item.attempts == 0


def test_reenqueue_after_done_reruns_the_point(q):
    q.enqueue(KEY, SCEN)
    q.lease("w", 60.0)
    q.ack(KEY, "w")
    assert q.enqueue(KEY, SCEN) is True
    assert q.stats().ready == 1


def test_lease_order_is_fifo(q):
    keys = [f"{i:02d}" + "f" * 61 for i in range(3)]
    for i, k in enumerate(keys):
        q.enqueue(k, SCEN, now=float(i))
    got = [q.lease(f"w{i}", 60.0).key for i in range(3)]
    assert got == keys


def test_scenario_binding_survives_queue_clear(q):
    q.enqueue(KEY, SCEN)
    q.lease("w", 60.0)
    q.ack(KEY, "w")
    assert q.clear() == 1
    assert q.get(KEY) is None
    assert q.scenario_for(KEY) == SCEN    # bindings are not queue state


def test_record_scenario_without_enqueue(q):
    q.record_scenario(KEY, SCEN)
    assert q.scenario_for(KEY) == SCEN
    assert q.stats().depth == 0


def test_stats_snapshot(q, tmp_path):
    q.enqueue(KEY, SCEN)
    st = q.stats()
    assert (st.ready, st.leased, st.done, st.failed) == (1, 0, 0, 0)
    assert st.depth == 1
    assert st.as_dict()["ready"] == 1
    assert (tmp_path / QUEUE_FILENAME).is_file()


def test_durability_across_handles(tmp_path):
    with WorkQueue(tmp_path) as q1:
        q1.enqueue(KEY, SCEN)
    with WorkQueue(tmp_path) as q2:
        lease = q2.lease("w", 60.0)
        assert lease is not None and lease.key == KEY
