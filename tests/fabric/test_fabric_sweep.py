"""``repro.sweep(..., fabric=...)``: differential parity with the
serial driver, resumability, and failure surfacing."""

import threading

import pytest

import repro
from repro.fabric import Fabric
from repro.fabric.worker import run_worker
from repro.scenarios import Scenario
from repro.apps.hpccg import KernelBenchConfig

NAMES = ["example:hpccg:intra", "example:hpccg:native",
         "example:hpccg:sdr", "example:hpccg:intra"]  # dup on purpose


def _background_worker(fab, idle_exit=8.0):
    t = threading.Thread(target=run_worker,
                         kwargs=dict(fabric=fab, idle_exit=idle_exit),
                         daemon=True)
    t.start()
    return t


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_fabric_sweep_json_identical_to_serial(backend, tmp_path):
    serial = repro.sweep(NAMES, cache=True, cache_dir=tmp_path / "s")
    with Fabric(tmp_path / "f", backend=backend, poll=0.01) as fab, \
            Fabric(tmp_path / "f", backend=backend, poll=0.01) as wfab:
        _background_worker(wfab)
        fabric_rs = repro.sweep(NAMES, fabric=fab, timeout=60)
    assert fabric_rs.to_json() == serial.to_json()


def test_fabric_sweep_stored_bytes_identical_to_serial(tmp_path):
    from repro.fabric.store import set_cache_backend
    before = set_cache_backend("file")   # the .pkl oracle layout
    try:
        serial = repro.sweep(NAMES, cache=True, cache_dir=tmp_path / "s")
    finally:
        set_cache_backend(before)
    with Fabric(tmp_path / "f", backend="sqlite", poll=0.01) as fab:
        for name in NAMES:
            fab.enqueue_scenario(repro.scenario(name))
        fab.drain()
        for r in serial:
            key = r.cache_key
            serial_bytes = (tmp_path / "s" / key[:2]
                            / f"{key}.pkl").read_bytes()
            assert fab.store.get(key) == serial_bytes


def test_warm_rerun_is_all_hits_and_identical(tmp_path):
    with Fabric(tmp_path, backend="sqlite", poll=0.01) as fab, \
            Fabric(tmp_path, backend="sqlite", poll=0.01) as wfab:
        _background_worker(wfab)
        first = repro.sweep(NAMES, fabric=fab, timeout=60)
        second = repro.sweep(NAMES, fabric=fab, timeout=10)
    assert all(r.cache_hit for r in second)
    # payloads identical; only cache_hit provenance differs on the
    # cold uniques
    for a, b in zip(first, second):
        assert a.wall_time == b.wall_time and a.value == b.value


def test_interrupted_sweep_resumes_from_worker_results(tmp_path):
    """The resumability story: enqueue, let workers finish while no
    sweep is watching, then a fresh sweep serves warm immediately."""
    with Fabric(tmp_path, backend="sqlite", poll=0.01) as fab:
        for name in NAMES:
            fab.enqueue_scenario(repro.scenario(name))
        # "sweep interrupted" — workers keep draining the durable queue
        fab.drain()
    with Fabric(tmp_path, backend="sqlite", poll=0.01) as fab2:
        rs = repro.sweep(NAMES, fabric=fab2, timeout=5)
    assert all(r.cache_hit for r in rs)
    assert [r.mode for r in rs] == ["intra", "native", "sdr", "intra"]


def test_failed_point_surfaces_as_point_failure(tmp_path):
    bad = Scenario(app="no_such_app",
                   config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                   n_logical=2, mode="native")
    with Fabric(tmp_path, backend="sqlite", poll=0.01,
                max_attempts=1) as fab:
        _background_worker(fab, idle_exit=10.0)
        rs = repro.sweep([bad], fabric=fab, timeout=30,
                         on_error="return")
        assert rs[0].ok is False
        assert rs[0].error.startswith("error:")
        # a later sweep re-enqueues with a fresh budget; the worker
        # fails it again and on_error="raise" escalates
        with pytest.raises(RuntimeError, match="failed after"):
            repro.sweep([bad], fabric=fab, timeout=30)


def test_timeout_without_workers(tmp_path):
    with Fabric(tmp_path, backend="sqlite", poll=0.01) as fab:
        with pytest.raises(TimeoutError, match="still pending"):
            repro.sweep(["example:hpccg:intra"], fabric=fab,
                        timeout=0.05)
        rs = repro.sweep(["example:hpccg:intra"], fabric=fab,
                         timeout=0.05, on_error="return")
        assert rs[0].ok is False
        assert rs[0].error.startswith("timeout:")


def test_waiting_sweep_reads_each_key_once(tmp_path, monkeypatch):
    """Polling reads queue states, not the store: with no workers
    nothing is ever ``done``, so each key's only store read is the
    planner's warm check."""
    names = ["example:hpccg:intra", "example:hpccg:native",
             "example:hpccg:sdr"]
    with Fabric(tmp_path, backend="sqlite", poll=0.01) as fab:
        reads, polls = [], []
        get, get_many = fab.store.get, fab.queue.get_many

        def counted_get(key):
            reads.append(key)
            return get(key)

        def counted_get_many(keys):
            polls.append(len(keys))
            return get_many(keys)

        monkeypatch.setattr(fab.store, "get", counted_get)
        monkeypatch.setattr(fab.queue, "get_many", counted_get_many)
        rs = repro.sweep(names, fabric=fab, timeout=0.2,
                         on_error="return")
    assert [r.ok for r in rs] == [False] * 3
    assert len(polls) > 2 and set(polls) == {3}
    assert len(reads) == 3 and len(set(reads)) == 3


def test_fabric_validates_arguments(tmp_path):
    with pytest.raises(ValueError, match="poll"):
        Fabric(tmp_path, poll=0.0)
    with pytest.raises(ValueError, match="lease"):
        Fabric(tmp_path, lease=-1.0)
    with Fabric(tmp_path) as fab:
        with pytest.raises(ValueError, match="on_error"):
            repro.sweep(["example:hpccg:intra"], fabric=fab,
                        on_error="explode")
