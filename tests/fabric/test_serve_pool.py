"""The result service's handler pool and warm-body memo: connections
kept per handler thread and closed on shutdown, memo hits that still
honour deletions and quarantine, no warning-filter churn, no writes on
warm hits, no pool starvation by silent clients, and an orderly exit on
SIGTERM."""

import collections
import json
import os
import pathlib
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.fabric import Fabric
from repro.fabric import serve
from repro.fabric.serve import make_server
from repro.scenarios import Scenario

TINY = Scenario(app="hpccg_kernels",
                config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                n_logical=2, mode="native")
NAME = "example:hpccg:intra"


class _Opened(list):
    """(thread name, connection) pairs, plus every traced statement."""

    def __init__(self):
        super().__init__()
        self.statements = []


@pytest.fixture
def opened(monkeypatch):
    """Every SQLite connection opened while the test runs, each
    tracing its statements into ``opened.statements``."""
    out = _Opened()
    real = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real(*args, **kwargs)
        conn.set_trace_callback(out.statements.append)
        out.append((threading.current_thread().name, conn))
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    return out


def _is_open(conn):
    try:
        conn.total_changes
    except sqlite3.ProgrammingError:
        return False
    return True


@pytest.fixture
def served(tmp_path, opened):
    fab = Fabric(tmp_path, backend="sqlite", poll=0.01)
    server = make_server(fab)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield fab, server
    server.shutdown()
    server.server_close()
    fab.close()


def _get(url, timeout=10.0):
    """(status, raw body bytes)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _scenario_url(server, name):
    return f"{server.url}/scenario/{urllib.parse.quote(name, safe='')}"


def _run_all(threads, timeout=60.0):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive()


def _warm(fab, server):
    """Bind and compute NAME; returns its cache key."""
    status, body = _get(_scenario_url(server, NAME))
    assert status == 202
    fab.drain()
    return json.loads(body)["cache_key"]


def test_both_routes_and_the_memo_serve_identical_bodies(served):
    fab, server = served
    key = _warm(fab, server)
    first = _get(f"{server.url}/result/{key}")           # decoded
    again = _get(f"{server.url}/result/{key}")           # memo
    by_name = _get(_scenario_url(server, NAME))          # memo
    assert first[0] == again[0] == by_name[0] == 200
    assert first[1] == again[1] == by_name[1]
    assert json.loads(first[1])["cache"]["key"] == key
    stats = json.loads(_get(f"{server.url}/stats")[1])
    assert stats["memo"] == {"entries": 1, "hits": 2}
    assert stats["hits"] == 3


@pytest.mark.parametrize("evict", ["delete", "quarantine"])
def test_key_gone_from_store_leaves_memo_and_answers_202(served, evict):
    fab, server = served
    key = _warm(fab, server)
    assert _get(f"{server.url}/result/{key}")[0] == 200  # memoized
    if evict == "delete":
        assert fab.store.delete(key)
    else:
        assert fab.store.quarantine(key, "test") is not None
    status, body = _get(f"{server.url}/result/{key}")
    assert status == 202
    assert json.loads(body)["cache_key"] == key
    assert fab.queue.get(key).state == "ready"           # re-enqueued
    stats = json.loads(_get(f"{server.url}/stats")[1])
    assert stats["memo"]["entries"] == 0
    fab.drain()
    assert _get(_scenario_url(server, NAME))[0] == 200   # warm again


def test_memo_is_bounded_least_recent_first(served, monkeypatch):
    fab, server = served
    monkeypatch.setattr(serve, "MEMO_ENTRIES", 2)
    for i in range(3):
        server.memo_put(f"k{i}", b"{}")
    server.memo_get("k1")
    server.memo_put("k3", b"{}")
    assert server.memo_get("k0") is None
    assert server.memo_get("k2") is None
    assert server.memo_get("k1") == server.memo_get("k3") == b"{}"


def test_concurrent_requests_leave_warning_filters_alone(served,
                                                         monkeypatch):
    fab, server = served
    key = _warm(fab, server)
    corrupt = fab.record_scenario(TINY)
    fab.store.put(corrupt, b"not a pickle")
    calls = []
    real = warnings.simplefilter
    monkeypatch.setattr(warnings, "simplefilter",
                        lambda *a, **kw: (calls.append(a), real(*a, **kw)))
    before = list(warnings.filters)
    urls = ([f"{server.url}/result/{corrupt}"]
            + [f"{server.url}/result/{key}",
               _scenario_url(server, NAME)] * 8)
    replies = [None] * len(urls)

    def fetch(i):
        replies[i] = _get(urls[i])

    _run_all([threading.Thread(target=fetch, args=(i,))
              for i in range(len(urls))])
    assert calls == []
    assert list(warnings.filters) == before
    assert replies[0][0] == 202
    assert json.loads(replies[0][1])["cache_key"] == corrupt
    assert {status for status, _ in replies[1:]} == {200}
    assert len({body for _, body in replies[1:]}) == 1
    assert fab.store.stats().corrupt == 1


def test_counters_and_memo_survive_many_concurrent_clients(served):
    fab, server = served
    key = _warm(fab, server)
    replies = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_all([threading.Thread(target=lambda: replies.extend(
            _get(f"{server.url}/result/{key}") for _ in range(10)))
            for _ in range(3 * serve.HANDLER_THREADS)])
    finally:
        sys.setswitchinterval(switch)
    assert len(replies) == 30 * serve.HANDLER_THREADS
    assert {status for status, _ in replies} == {200}
    assert len({body for _, body in replies}) == 1
    stats = json.loads(_get(f"{server.url}/stats")[1])
    assert stats["hits"] == len(replies)
    assert stats["misses"] == 1                          # _warm's 202
    assert stats["memo"]["entries"] == 1
    assert 0 < stats["memo"]["hits"] < len(replies)


def test_handler_threads_keep_their_connections(served, opened):
    fab, server = served
    key = _warm(fab, server)
    for _ in range(4 * serve.HANDLER_THREADS):
        assert _get(f"{server.url}/result/{key}")[0] == 200
        assert _get(_scenario_url(server, NAME))[0] == 200
    per_thread = collections.Counter(
        n for n, _ in opened if n.startswith("fabric-handler-"))
    # one store and one queue connection per handler thread, at most
    assert per_thread and max(per_thread.values()) <= 2


def test_shutdown_closes_every_handler_connection(tmp_path, opened):
    fab = Fabric(tmp_path, backend="sqlite", poll=0.01)
    server = make_server(fab)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    key = _warm(fab, server)
    replies = []
    _run_all([threading.Thread(target=lambda: replies.append(
        _get(f"{server.url}/result/{key}")[0])) for _ in range(8)])
    assert replies == [200] * 8
    server.shutdown()
    server.server_close()
    fab.close()
    handler = [c for n, c in opened if n.startswith("fabric-handler-")]
    assert handler
    assert not [c for c in handler if _is_open(c)]
    assert not [c for _, c in opened if _is_open(c)]


def test_warm_scenario_request_runs_no_insert(served, opened):
    fab, server = served
    key = _warm(fab, server)
    url = _scenario_url(server, NAME)
    first = _get(url)
    opened.statements.clear()
    second = _get(url)                                   # memo hit
    server.memo_drop(key)
    third = _get(url)                                    # store read
    assert first == second == third
    assert first[0] == 200
    assert opened.statements
    assert not [s for s in opened.statements
                if s.lstrip().upper().startswith(("INSERT", "BEGIN"))]


def test_idle_clients_cannot_pin_the_pool(served, monkeypatch):
    _, server = served
    assert 0 < serve._Handler.timeout == serve.READ_TIMEOUT_S <= 60
    monkeypatch.setattr(serve._Handler, "timeout", 0.2)
    host, port = server.server_address[:2]
    idle = [socket.create_connection((host, port))
            for _ in range(serve.HANDLER_THREADS)]
    try:
        status, body = _get(f"{server.url}/healthz", timeout=5.0)
    finally:
        for s in idle:
            s.close()
    assert (status, json.loads(body)) == (200, {"status": "ok"})


def test_sigterm_closes_the_service_and_exits_zero(tmp_path):
    """``python -m repro.fabric.serve`` sent SIGTERM with an idle client
    connected exits 0 well before that client's read timeout, having
    closed its SQLite connections: the queue write of a cold request
    leaves no WAL content behind."""
    root = tmp_path / "fabric"
    with Fabric(root, backend="sqlite", poll=0.01) as fab:
        key = fab.enqueue_scenario(TINY)
        fab.drain()
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fabric.serve", "--root", str(root),
         "--backend", "sqlite", "--port", "0"],
        env=dict(os.environ, PYTHONPATH=src),
        stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stderr.readline()
        assert banner.startswith("fabric service on http://"), banner
        url = banner.split()[3]
        host, port = urllib.parse.urlsplit(url).netloc.split(":")
        with socket.create_connection((host, int(port))):
            # the idle connection holds a handler in its read
            status, body = _get(f"{url}/result/{key}")
            assert status == 200
            assert json.loads(body)["cache"]["key"] == key
            assert _get(f"{url}/scenario/{NAME}")[0] == 202  # a write
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=serve.READ_TIMEOUT_S)
            elapsed = time.monotonic() - start
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 0
    assert elapsed < serve.READ_TIMEOUT_S / 2
    wal = [p for p in root.rglob("*-wal") if p.stat().st_size]
    assert not wal
