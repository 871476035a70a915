"""The fabric worker loop: lease → simulate → store → ack."""

import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.fabric import Fabric
from repro.fabric.worker import (default_worker_id, drain, main,
                                 process_one, run_worker)
from repro.scenarios import Scenario

TINY = Scenario(app="hpccg_kernels",
                config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                n_logical=2, mode="native")


@pytest.fixture(params=("file", "sqlite"))
def fab(request, tmp_path):
    f = Fabric(tmp_path, backend=request.param, poll=0.01)
    yield f
    f.close()


def test_process_one_computes_stores_and_acks(fab):
    key = fab.enqueue_scenario(TINY)
    assert process_one(fab, "w1") == key
    assert fab.queue.get(key).state == "done"
    mode_run = fab.load_result(key)
    assert mode_run is not None
    assert mode_run.mode == "native"


def test_process_one_empty_queue_returns_none(fab):
    assert process_one(fab, "w1") is None


def test_worker_failure_charges_queue_attempt(fab):
    # an unrunnable scenario: unknown app name raises inside the worker
    bad = Scenario(app="no_such_app",
                   config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                   n_logical=2, mode="native")
    key = fab.enqueue_scenario(bad)
    assert process_one(fab, "w1") == key     # handled, not raised
    item = fab.queue.get(key)
    assert item.attempts == 1
    assert item.error.startswith("error:")
    assert fab.load_result(key) is None      # failures are never stored


def test_drain_processes_everything_ready(fab):
    keys = {fab.enqueue_scenario(TINY.replace(n_logical=n))
            for n in (2, 4, 8)}
    assert fab.drain() == 3
    for key in keys:
        assert fab.load_result(key) is not None
    assert drain(fab) == 0                   # queue is dry


def test_run_worker_idle_exit_and_max_points(fab):
    fab.enqueue_scenario(TINY)
    fab.enqueue_scenario(TINY.replace(n_logical=4))
    assert run_worker(fab, max_points=1) == 1
    assert run_worker(fab, idle_exit=0.05) == 1   # finishes, then exits


def test_worker_bytes_match_serial_cache_bytes(fab, tmp_path):
    from repro.fabric.store import set_cache_backend
    serial_dir = tmp_path / "serial"
    before = set_cache_backend("file")   # the .pkl oracle layout
    try:
        result = repro.run(TINY, cache=True, cache_dir=serial_dir)
    finally:
        set_cache_backend(before)
    key = fab.enqueue_scenario(TINY)
    assert key == result.cache_key           # same scenario-hash keys
    fab.drain()
    serial_bytes = (serial_dir / key[:2] / f"{key}.pkl").read_bytes()
    assert fab.store.get(key) == serial_bytes
    assert pickle.loads(serial_bytes) == fab.load_result(key)


def test_worker_cli_runs_points(tmp_path, capsys):
    with Fabric(tmp_path, backend="sqlite") as fab:
        fab.enqueue_scenario(TINY)
    rc = main(["--root", str(tmp_path), "--backend", "sqlite",
               "--max-points", "1", "--quiet"])
    assert rc == 0
    with Fabric(tmp_path, backend="sqlite") as fab:
        assert fab.load_result(fab.key_for(TINY)) is not None


def test_worker_cli_validates_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["--root", str(tmp_path), "--max-points", "0"])
    with pytest.raises(SystemExit):
        main(["--root", str(tmp_path), "--poll", "-1"])


def test_default_worker_id_is_host_pid():
    assert default_worker_id().endswith(f":{os.getpid()}")


def test_terminated_run_keeps_its_lease(tmp_path, monkeypatch):
    """The SIGTERM exception passes through process_one uncharged: the
    point stays leased (no failed attempt) until its lease expires."""
    from repro.fabric import worker
    from repro.scenarios import run

    def terminated(scenario):
        raise worker._Terminated

    monkeypatch.setattr(run, "_run_scenario", terminated)
    with Fabric(tmp_path, backend="sqlite") as fab:
        key = fab.enqueue_scenario(TINY)
        with pytest.raises(worker._Terminated):
            process_one(fab, "w1")
        item = fab.queue.get(key)
        assert (item.state, item.attempts) == ("leased", 0)


def test_worker_daemon_exits_zero_on_sigterm(tmp_path):
    """SIGTERM closes the worker's connections: exit 0, and no SQLite
    WAL content left behind."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fabric.worker", "--root",
         str(tmp_path), "--backend", "sqlite", "--poll", "0.02",
         "--quiet"], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        wal = tmp_path / "queue.sqlite3-wal"
        for _ in range(1500):           # up to 30 s for the first poll
            if wal.exists():
                break
            assert proc.poll() is None, proc.stderr.read()
            time.sleep(0.02)
        assert wal.exists(), "the worker never polled its queue"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10.0) == 0, proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert [p.name for p in tmp_path.glob("*-wal")
            if p.stat().st_size] == []
