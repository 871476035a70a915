"""Fabric performance benchmark → ``benchmarks/BENCH_sim_core.json``.

Two measurements, written with the host's ``cpu_count`` under the
``"fabric"`` key:

* **warm-hit service throughput** — concurrent clients hammering
  ``GET /result/<key>`` for a point that is already in the SQLite
  store; the acceptance gate requires ≥ 100 req/s (the ISSUE's service
  performance bar, comfortably cleared by the threaded stdlib server);
* **store get/put microbench** — the same payload written and read
  back through both ``ResultStore`` backends, so the cost of the
  SQLite index relative to the sharded-file oracle is tracked.

Run via ``make bench`` (or ``pytest benchmarks/test_perf_fabric.py -s``).
"""

import concurrent.futures
import json
import os
import pathlib
import tempfile
import time
import urllib.request

import repro
from repro.fabric import Fabric
from repro.fabric.serve import make_server
from repro.fabric.store import open_store

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_sim_core.json"

NAME = "example:hpccg:intra"
CLIENTS = 8
REQUESTS_PER_CLIENT = 50
STORE_OPS = 200


def _service_throughput(tmp) -> dict:
    import threading
    with Fabric(tmp / "fabric", backend="sqlite") as fab:
        key = fab.enqueue_scenario(repro.scenario(NAME))
        fab.drain()                       # warm the store
        server = make_server(fab)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        url = f"{server.url}/result/{key}"

        def one_client(n):
            ok = 0
            for _ in range(n):
                with urllib.request.urlopen(url, timeout=30.0) as resp:
                    ok += resp.status == 200
            return ok

        try:
            one_client(5)                 # connection warm-up
            t0 = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
                done = sum(pool.map(one_client,
                                    [REQUESTS_PER_CLIENT] * CLIENTS))
            dt = time.perf_counter() - t0
        finally:
            server.shutdown()
            server.server_close()
    assert done == CLIENTS * REQUESTS_PER_CLIENT
    return {"clients": CLIENTS, "requests": done,
            "seconds": round(dt, 4),
            "req_per_sec": round(done / dt, 1)}


def _store_microbench(tmp, backend: str) -> dict:
    payload = b"x" * 4096                 # ~a pickled ModeRun's size
    keys = [f"{i:064x}" for i in range(STORE_OPS)]
    store = open_store(tmp / backend, backend)
    t0 = time.perf_counter()
    for k in keys:
        store.put(k, payload)
    put_dt = time.perf_counter() - t0
    t0 = time.perf_counter()
    for k in keys:
        assert store.get(k) is not None
    get_dt = time.perf_counter() - t0
    store.close()
    return {"ops": STORE_OPS,
            "put_per_sec": round(STORE_OPS / put_dt, 1),
            "get_per_sec": round(STORE_OPS / get_dt, 1)}


def test_bench_fabric(save_table):
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        service = _service_throughput(tmp)
        file_store = _store_microbench(tmp, "file")
        sqlite_store = _store_microbench(tmp, "sqlite")

    payload = {
        "host": {"cpu_count": os.cpu_count()},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fabric": {
            "service_warm_hits": service,
            "store_file": file_store,
            "store_sqlite": sqlite_store,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["Fabric benchmark (BENCH_sim_core.json: fabric)",
             "metric                      | value",
             "----------------------------+----------------",
             f"service warm req/s          | "
             f"{service['req_per_sec']:>12,.1f}",
             f"  ({service['clients']} clients x "
             f"{REQUESTS_PER_CLIENT} reqs, SQLite store)",
             f"file store put/s            | "
             f"{file_store['put_per_sec']:>12,.1f}",
             f"file store get/s            | "
             f"{file_store['get_per_sec']:>12,.1f}",
             f"sqlite store put/s          | "
             f"{sqlite_store['put_per_sec']:>12,.1f}",
             f"sqlite store get/s          | "
             f"{sqlite_store['get_per_sec']:>12,.1f}"]
    save_table("bench_fabric", "\n".join(lines))

    # the ISSUE's service bar: >= 100 warm hits/sec under concurrency
    assert service["req_per_sec"] >= 100.0, (
        f"warm-hit service throughput is only "
        f"{service['req_per_sec']:.1f} req/s (need >= 100)")
    # both store backends must stay comfortably usable
    assert sqlite_store["get_per_sec"] > 100.0
    assert file_store["get_per_sec"] > 100.0
