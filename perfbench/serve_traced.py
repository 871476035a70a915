"""``python -m repro.fabric.serve`` under the layer tracer.

Takes the service's own arguments.  Spans use per-thread CPU time, so
concurrent handler threads do not count one wall interval twice.  Two
extra routes serve the benchmark: ``GET /_perfbench/reset`` zeroes the
trace and ``GET /_perfbench/trace`` returns it as JSON.
"""

from __future__ import annotations

import pathlib
import sys
import time
import typing as _t

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv: _t.Sequence[str]) -> int:
    from repro.fabric import serve

    t = tracer.Tracer(clock=time.thread_time)
    t.install()
    traced_get = serve._Handler.do_GET

    def do_GET(handler: _t.Any) -> None:  # noqa: N802 — http.server's
        if handler.path == "/_perfbench/reset":
            t.reset()
            return handler._send_json(200, {"reset": True})
        if handler.path == "/_perfbench/trace":
            return handler._send_json(200, t.snapshot())
        traced_get(handler)

    serve._Handler.do_GET = do_GET  # type: ignore[method-assign]
    return serve.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
