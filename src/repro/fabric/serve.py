"""The fabric result service: cached simulations over HTTP.

``python -m repro.fabric.serve --root DIR`` exposes one fabric root
(stdlib :class:`~http.server.HTTPServer` plus a fixed pool of handler
threads; no third-party dependencies) so results can be *served*
instead of recomputed:

``GET /healthz``
    200 liveness probe.
``GET /stats``
    200 — service hit/miss counters, the warm-body memo's ``entries``
    and ``hits``, plus the store and queue snapshots.
``GET /result/<cache_key>``
    200 with the lossless :class:`~repro.results.RunResult` JSON on a
    warm hit; 202 (and an enqueue for the workers) when the key is
    known but cold; 404 when the fabric has never seen the key —
    resolve it through ``/scenario/<name>`` first.
``GET /scenario/<name>``
    Resolves a registry name (grid members included) to its cache key,
    records the binding, then behaves like ``/result``: 200 on warm,
    202 + enqueue on cold, 404 (with suggestions) for unknown names.

Responses are JSON; a warm ``RunResult`` round-trips bytes-exactly
through :meth:`~repro.results.RunResult.from_json`, which is what
:class:`~repro.fabric.client.FabricClient` relies on.  The service
never simulates anything itself — cold points go on the durable queue
for ``python -m repro.fabric.worker`` daemons, keeping request latency
flat no matter how expensive the scenario is.

A warm hit costs one indexed store probe and one socket write: each
handler thread keeps its SQLite connections for its whole life, and
the encoded 200 body of every key served warm is memoized (a key's
result is content-addressed, so its body never changes).  Before a
memo hit the handler checks that the key is still in the store; a
deleted or quarantined key leaves the memo and answers 202 like any
cold key.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import queue
import signal
import socket
import sys
import threading
import typing as _t
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer

from .core import Fabric
from .store import read_result

__all__ = ["FabricServer", "main", "make_server"]

#: handler threads: requests are short GIL-bound work, so a few keep
#: the cores busy even while some wait on slow sockets
HANDLER_THREADS = 8
#: warm 200 bodies kept by the memo: more keys than a figure's sweep
#: asks for, yet under 1 MB at the ~1.3 kB a RunResult body takes
MEMO_ENTRIES = 256
#: seconds a handler waits on a silent client before dropping it, so a
#: stalled connection cannot pin one of the few handler threads
READ_TIMEOUT_S = 10.0

_Request = _t.Tuple[socket.socket, _t.Any]


class FabricServer(HTTPServer):
    """One fabric root behind HTTP, served by a fixed pool of
    :data:`HANDLER_THREADS` handler threads that share the fabric, the
    hit/miss counters and the memo of warm response bodies."""

    def __init__(self, address: _t.Tuple[str, int], fabric: Fabric, *,
                 quiet: bool = True) -> None:
        super().__init__(address, _Handler)
        self.fabric = fabric
        self.quiet = quiet
        self.hits = 0
        self.misses = 0
        self.memo_hits = 0
        # guards the counters and the memo
        self._lock = threading.Lock()
        # cache key → encoded 200 body, least recently served first
        self._memo: "collections.OrderedDict[str, bytes]" = (
            collections.OrderedDict())
        self._requests: "queue.SimpleQueue[_t.Optional[_Request]]" = (
            queue.SimpleQueue())
        # accepted connections not yet closed, queued or in a handler
        # (a dict for its order); the lock also keeps a close from
        # racing server_close's shutdown
        self._open: _t.Dict[socket.socket, None] = {}
        self._open_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"fabric-handler-{i}")
            for i in range(HANDLER_THREADS)]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------ handler pool
    def process_request(self, request: _t.Any,
                        client_address: _t.Any) -> None:
        with self._open_lock:
            self._open[request] = None
        self._requests.put((request, client_address))

    def shutdown_request(self, request: _t.Any) -> None:
        with self._open_lock:
            self._open.pop(request, None)
            super().shutdown_request(request)

    def _work(self) -> None:
        while True:
            item = self._requests.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 — log it, keep the worker
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, let the handler threads finish the requests
        already accepted, then close the fabric's connections (the
        fabric stays usable: they reopen on next use).

        The read side of every open connection is shut first: a handler
        waiting on a silent client sees end-of-file at once instead of
        waiting out :data:`READ_TIMEOUT_S`, while responses being
        written still go out."""
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client is already gone
        workers, self._workers = self._workers, []
        for _ in workers:
            self._requests.put(None)
        for worker in workers:
            worker.join()
        self.fabric.close()

    # ------------------------------------------------- counters and memo
    def count(self, hit: bool, memo: bool = False) -> None:
        with self._lock:
            if hit:
                self.hits += 1
                self.memo_hits += memo
            else:
                self.misses += 1

    def memo_get(self, key: str) -> _t.Optional[bytes]:
        with self._lock:
            body = self._memo.get(key)
            if body is not None:
                self._memo.move_to_end(key)
            return body

    def memo_put(self, key: str, body: bytes) -> None:
        with self._lock:
            self._memo[key] = body
            self._memo.move_to_end(key)
            if len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)

    def memo_drop(self, key: str) -> None:
        with self._lock:
            self._memo.pop(key, None)

    def memo_stats(self) -> _t.Dict[str, int]:
        with self._lock:
            return {"entries": len(self._memo), "hits": self.memo_hits}

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: FabricServer  # narrowed — we are only ever FabricServer's
    timeout = READ_TIMEOUT_S

    # ------------------------------------------------------------ plumbing
    def log_message(self, fmt: str, *args: _t.Any) -> None:
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: _t.Mapping[str, _t.Any]
                   ) -> None:
        self._send_body(
            status, json.dumps(payload, sort_keys=True).encode("utf-8"))

    def _send_body(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — http.server's contract
        path = urllib.parse.urlsplit(self.path).path
        try:
            if path in ("/healthz", "/healthz/"):
                return self._send_json(200, {"status": "ok"})
            if path in ("/stats", "/stats/"):
                return self._do_stats()
            if path.startswith("/result/"):
                return self._do_result(path[len("/result/"):])
            if path.startswith("/scenario/"):
                # scenario names contain "/" (grid members), so the
                # whole remainder is the name
                return self._do_scenario(
                    urllib.parse.unquote(path[len("/scenario/"):]))
            self._send_json(404, {
                "error": f"no such route: {path}",
                "routes": ["/healthz", "/stats", "/result/<cache_key>",
                           "/scenario/<name>"]})
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to salvage
        except Exception as exc:  # noqa: BLE001 — one bad request must
            # not kill the handler thread silently
            self._send_json(500, {
                "error": f"{type(exc).__name__}: {exc}"})

    def _do_stats(self) -> None:
        fabric = self.server.fabric
        self._send_json(200, {
            "hits": self.server.hits,
            "misses": self.server.misses,
            "memo": self.server.memo_stats(),
            **fabric.stats()})

    def _send_memo(self, key: str) -> bool:
        """Answer from the memo if ``key`` is still in the store; a key
        gone from the store (deleted, quarantined) leaves the memo and
        takes the cold path."""
        body = self.server.memo_get(key)
        if body is None:
            return False
        if not self.server.fabric.store.has(key):
            self.server.memo_drop(key)
            return False
        self.server.count(hit=True, memo=True)
        self._send_body(200, body)
        return True

    def _serve_key(self, key: str, scenario_json: str) -> None:
        """Common tail of both routes: warm → 200 RunResult JSON, cold
        → enqueue + 202."""
        fabric = self.server.fabric
        # an unreadable entry (quarantined if corrupt) is a miss: the
        # 202 + recompute below is the handling, the log says why
        hit, mode_run = read_result(
            fabric.store, key,
            report=lambda problem: self.log_message("%s", problem))
        if hit:
            from ..results import RunResult
            from ..scenarios.spec import Scenario
            scenario = Scenario.from_json(scenario_json)
            body = RunResult.from_mode_run(
                mode_run, scenario, cache_key=key,
                cache_hit=True).to_json().encode("utf-8")
            # the key's result is content-addressed: this body is what
            # every later warm hit on it would build again
            self.server.memo_put(key, body)
            self.server.count(hit=True)
            return self._send_body(200, body)
        fabric.queue.enqueue(key, scenario_json)
        self.server.count(hit=False)
        self._send_json(202, {
            "status": "pending", "cache_key": key,
            "hint": "a fabric worker will compute this point; "
                    "poll again"})

    def _do_result(self, key: str) -> None:
        if self._send_memo(key):
            return
        fabric = self.server.fabric
        scenario_json = fabric.queue.scenario_for(key)
        if scenario_json is None:
            self.server.count(hit=False)
            return self._send_json(404, {
                "error": f"unknown cache key {key!r}",
                "hint": "resolve it via /scenario/<name> first so the "
                        "fabric learns the key ↔ scenario binding"})
        self._serve_key(key, scenario_json)

    def _do_scenario(self, name: str) -> None:
        from ..api import scenario as resolve_scenario
        from ..scenarios.registry import UnknownScenarioError
        try:
            scenario = resolve_scenario(name)
        except UnknownScenarioError as exc:
            self.server.count(hit=False)
            return self._send_json(404, {
                "error": f"unknown scenario {name!r}",
                "suggestions": list(getattr(exc, "suggestions", ()))})
        fabric = self.server.fabric
        key = fabric.key_for(scenario)
        if self._send_memo(key):
            return  # a memoized key was bound when it was first served
        scenario_json = scenario.to_json()
        fabric.queue.record_scenario(key, scenario_json)
        self._serve_key(key, scenario_json)


def make_server(fabric: Fabric, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = True) -> FabricServer:
    """Bind (``port=0`` → ephemeral) and start the handler threads,
    but do not serve; callers run
    :meth:`~socketserver.BaseServer.serve_forever` on a thread of
    their choosing and ``shutdown()``/``server_close()`` when done."""
    return FabricServer((host, port), fabric, quiet=quiet)


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    """Serve until Ctrl-C (exit 130) or SIGTERM (exit 0).  Both close
    the server and the fabric on the way out, so every SQLite
    connection is closed and the WAL is checkpointed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.serve",
        description="Serve a fabric root over HTTP: warm results "
                    "stream back as lossless RunResult JSON, cold "
                    "points are queued for the workers.")
    parser.add_argument("--root", required=True, metavar="DIR",
                        help="the fabric root (shared store + queue)")
    parser.add_argument("--backend", choices=("file", "sqlite"),
                        default=None,
                        help="result-store backend (default: the "
                             "REPRO_CACHE_BACKEND selection)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8752,
                        help="bind port; 0 picks an ephemeral one "
                             "(default: 8752)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)

    fabric = Fabric(args.root, backend=args.backend)
    server = make_server(fabric, args.host, args.port,
                         quiet=not args.verbose)

    def terminate(signum: int, frame: _t.Any) -> None:
        # serve_forever runs on this thread, and shutdown() waits for
        # it to return, so shutdown() must run on another thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    # installed before the banner: whoever reads it may send SIGTERM
    previous = signal.signal(signal.SIGTERM, terminate)
    print(f"fabric service on {server.url} "
          f"(root={pathlib.Path(args.root)}, "
          f"backend={fabric.store.backend})",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        return 130
    finally:
        server.server_close()
        fabric.close()
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
