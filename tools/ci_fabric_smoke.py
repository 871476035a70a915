"""CI smoke for the result fabric, end to end with real processes.

Boots the production daemons — ``python -m repro.fabric.worker`` and
``python -m repro.fabric.serve`` — against a temporary SQLite-backed
fabric root, sweeps a small scenario grid through :class:`FabricClient`,
and asserts every served ``RunResult`` is JSON-identical to a warm
serial sweep of the same points.  It then loads the service from
several client threads at once, mixing ``/result`` and ``/scenario``
requests while one raw connection sits idle: every body must equal the
warm serial JSON byte for byte.  Last, with the idle connection still
open, the worker and then the service must each exit with return code
0 within 10 s of SIGTERM, and no SQLite ``-wal`` file may keep any
content (each closed every connection it opened).  Exit 0 on parity, 1
on any mismatch, timeout or unclean exit.

Run locally:  ``PYTHONPATH=src python tools/ci_fabric_smoke.py``
"""

import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro                                      # noqa: E402
from repro.fabric.client import FabricClient      # noqa: E402

NAMES = ["example:hpccg:native", "example:hpccg:sdr",
         "example:hpccg:intra", "example:waxpby:native"]
BOOT_TIMEOUT_S = 30.0
SWEEP_TIMEOUT_S = 300.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 25
EXIT_TIMEOUT_S = 10.0


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn(module: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return subprocess.Popen([sys.executable, "-m", module, *args],
                            env=env)


def _concurrent_mismatches(url: str, points: list) -> list:
    """Send CLIENTS threads of REQUESTS_PER_CLIENT requests each, mixing
    ``/result/<key>`` and ``/scenario/<name>`` over ``points`` (name,
    key, expected body); returns a description of every reply that is
    not 200 with the expected body."""
    bad: list = []

    def client(c: int) -> None:
        for i in range(REQUESTS_PER_CLIENT):
            name, key, want = points[(c + i) % len(points)]
            path = (f"/result/{key}" if (c + i) % 2 else
                    "/scenario/" + urllib.parse.quote(name, safe=""))
            try:
                with urllib.request.urlopen(url + path,
                                            timeout=30.0) as resp:
                    status, body = resp.status, resp.read()
            except OSError as exc:
                status, body = 0, repr(exc).encode()
            if status != 200 or body != want:
                bad.append(f"GET {path}: status {status}")

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return bad


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        fabric_root = pathlib.Path(d) / "fabric"
        port = _free_port()
        serve = _spawn("repro.fabric.serve",
                       "--root", str(fabric_root), "--backend", "sqlite",
                       "--host", "127.0.0.1", "--port", str(port))
        worker = _spawn("repro.fabric.worker",
                        "--root", str(fabric_root), "--backend", "sqlite",
                        "--poll", "0.05", "--quiet")
        client = FabricClient(f"http://127.0.0.1:{port}", poll=0.1)
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while not client.healthz():
                if time.monotonic() >= deadline:
                    print("FAIL: service never became healthy",
                          file=sys.stderr)
                    return 1
                time.sleep(0.1)

            served = client.sweep(NAMES, wait_timeout=SWEEP_TIMEOUT_S)

            # ground truth: a warm serial sweep (same cache-hit
            # provenance as fabric-served results)
            cache_dir = pathlib.Path(d) / "serial"
            repro.sweep(NAMES, cache=True, cache_dir=cache_dir)
            warm = repro.sweep(NAMES, cache=True, cache_dir=cache_dir)

            for name, got, want in zip(NAMES, served, warm):
                if got.to_json() != want.to_json():
                    print(f"FAIL: {name}: fabric-served RunResult "
                          f"differs from the serial sweep",
                          file=sys.stderr)
                    return 1

            with socket.create_connection(("127.0.0.1", port)):
                # the idle connection holds a handler until it times out
                bad = _concurrent_mismatches(
                    f"http://127.0.0.1:{port}",
                    [(name, r.cache_key, r.to_json().encode("utf-8"))
                     for name, r in zip(NAMES, warm)])
                if bad:
                    print(f"FAIL: {len(bad)} concurrent request(s) did "
                          f"not return the warm serial JSON, e.g. "
                          f"{bad[0]}", file=sys.stderr)
                    return 1
                stats = client.stats()
                # the worker goes first, so the service holds the last
                # SQLite connections and its close checkpoints the WAL
                codes = {}
                for name, proc in (("worker", worker), ("service", serve)):
                    proc.terminate()
                    try:
                        codes[name] = proc.wait(timeout=EXIT_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        print(f"FAIL: {name} still running "
                              f"{EXIT_TIMEOUT_S:.0f} s after SIGTERM",
                              file=sys.stderr)
                        return 1
            for name, code in codes.items():
                if code != 0:
                    print(f"FAIL: {name} exited with return code {code} "
                          f"on SIGTERM, not 0", file=sys.stderr)
                    return 1
            wal = sorted(str(p) for p in fabric_root.rglob("*-wal")
                         if p.stat().st_size)
            if wal:
                print(f"FAIL: SQLite WAL content left behind after "
                      f"SIGTERM: {', '.join(wal)}", file=sys.stderr)
                return 1

            print(f"fabric smoke OK: {len(served)} point(s) served "
                  f"with serial parity, "
                  f"{CLIENTS * REQUESTS_PER_CLIENT} concurrent request(s) "
                  f"byte-identical, clean exit on SIGTERM "
                  f"(store entries: {stats['store']['entries']}, "
                  f"queue done: {stats['queue']['done']}, "
                  f"memo hits: {stats['memo']['hits']})")
            return 0
        finally:
            for proc in (worker, serve):
                if proc.poll() is None:
                    proc.terminate()
            for proc in (worker, serve):
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()


if __name__ == "__main__":
    sys.exit(main())
