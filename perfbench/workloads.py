"""The three workloads: which points each runs, and one timed pass.

Membership is derived from the scenario registry by predicate, never
from name lists, and points are deduplicated by ``scenario_cache_key``:

``figures``
    every registered non-grid scenario with no failure schedule and no
    restart policy, run serially through ``repro.run(name, cache=False)``.
``failure-storms``
    every registered scenario with failures or a restart policy, plus a
    seeded, stratified sample of the grid families whose points carry
    failures or restarts; each pass is a cold SQLite fabric sweep drained
    inline one point per operation.
``result-service``
    ``python -m repro.fabric.serve`` in its own process on a warmed
    SQLite root, driven by a closed loop of client connections.

``repro`` is imported inside :meth:`setup`, so set-up time includes it.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import os
import pathlib
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
import typing as _t
import urllib.parse

import digests

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: canonical name preference when several registry names share a key:
#: the paper's figures first, so figure subtotals keep their points
_PREFERENCE = ("fig5a:", "fig5b:", "fig6", "ablation:", "ext:", "example:")
#: subtotals of ``figures`` by name prefix (reported in the summary table)
GROUPS = {"fig5_s": ("fig5a:", "fig5b:"), "fig6_s": ("fig6",),
          "ablations_s": ("ablation:",)}
#: grid points drawn per combination of non-seed axes
STORM_SEEDS_PER_CELL = 5
#: share of result-service requests that go to ``/scenario/<name>``
SCENARIO_SHARE = 0.1
REQUESTS_PER_PASS = 400


@dataclasses.dataclass
class PassResult:
    wall_s: float
    op_ms: _t.List[float]
    attempted: int
    failed: int
    #: the RunResults this pass simulated (for the per-layer counters)
    simulated: _t.List[_t.Any] = dataclasses.field(default_factory=list)
    #: (path, key, status, body) per request (result-service)
    replies: _t.List[_t.Tuple[str, str, int, bytes]] = dataclasses.field(
        default_factory=list)
    #: results served or read back as cache hits
    hits: int = 0
    errors: _t.List[str] = dataclasses.field(default_factory=list)


def _preference(name: str) -> _t.Tuple[int, str]:
    for rank, prefix in enumerate(_PREFERENCE):
        if name.startswith(prefix):
            return rank, name
    return len(_PREFERENCE), name


def _dedupe(named: _t.Iterable[_t.Tuple[str, _t.Any]]
            ) -> _t.List[_t.Tuple[str, _t.Any, str]]:
    """(name, scenario, key), one per cache key, sorted by name; the
    kept name is the most paper-like of the names sharing the key."""
    from repro.scenarios import scenario_cache_key
    best: _t.Dict[str, _t.Tuple[str, _t.Any]] = {}
    for name, scenario in named:
        key = scenario_cache_key(scenario)
        if key not in best or _preference(name) < _preference(best[key][0]):
            best[key] = (name, scenario)
    return sorted((n, s, k) for k, (n, s) in best.items())


def _stormy(scenario: _t.Any) -> bool:
    from repro.scenarios import NoFailures
    return (not isinstance(scenario.failures, NoFailures)
            or scenario.restart is not None)


def figure_points() -> _t.List[_t.Tuple[str, _t.Any, str]]:
    from repro.scenarios import scenario_entries
    return _dedupe((e.name, e.scenario) for e in scenario_entries()
                   if not _stormy(e.scenario))


def storm_families() -> _t.List[_t.Any]:
    """Grid families whose points carry failures or a restart policy."""
    from repro.scenarios import get_scenario, grid_entries
    return [g for g in grid_entries()
            if _stormy(get_scenario(g.first_point_name()))]


def storm_universe() -> _t.List[_t.Tuple[str, _t.Any, str]]:
    """Every point the ``failure-storms`` workload can draw."""
    from repro.scenarios import get_scenario, scenario_entries
    named = [(e.name, e.scenario) for e in scenario_entries()
             if _stormy(e.scenario)]
    for family in storm_families():
        named += [(n, get_scenario(n)) for n in family.point_names()]
    return _dedupe(named)


def storm_points(seed: int, per_cell: int = STORM_SEEDS_PER_CELL,
                 registered: bool = True
                 ) -> _t.List[_t.Tuple[str, _t.Any, str]]:
    """Registered storm scenarios plus, per grid family, ``per_cell``
    seeds drawn for every combination of the other axes (so every
    schedule kind, detection delay and restart policy is covered)."""
    from repro.scenarios import get_scenario, scenario_entries
    rng = random.Random(f"failure-storms:{seed}")
    named = [(e.name, e.scenario) for e in scenario_entries()
             if _stormy(e.scenario)] if registered else []
    for family in storm_families():
        axes = dict(family.axes)
        seeds = axes.pop("seed")
        for combo in itertools.product(*axes.values()):
            for s in rng.sample(list(seeds), per_cell):
                values = dict(zip(axes, combo), seed=s)
                name = family.point_name(**values)
                named.append((name, get_scenario(name)))
    return _dedupe(named)


def service_points() -> _t.List[_t.Tuple[str, _t.Any, str]]:
    """The warm set: per app, its registered scenario of fewest ranks
    (so every app's payload shape is served), plus the first eight
    points of each storm grid."""
    from repro.scenarios import get_scenario, scenario_entries
    per_app: _t.Dict[str, _t.Tuple[_t.Any, str, _t.Any]] = {}
    for e in scenario_entries():
        s = e.scenario
        rank = (s.n_logical, s.mode != "native", e.name)
        if s.app not in per_app or rank < per_app[s.app][0]:
            per_app[s.app] = (rank, e.name, s)
    named = [(n, s) for _r, n, s in per_app.values()]
    for family in storm_families():
        named += [(n, get_scenario(n))
                  for n in itertools.islice(family.point_names(), 8)]
    return _dedupe(named)


class Workload:
    """One workload: :meth:`setup` then any number of :meth:`run_pass`."""

    name = ""
    #: warm-pass seconds at the commit that introduced the benchmark; a
    #: run makes ``ceil(--seconds / nominal_pass_s)`` warm passes, so the
    #: number of passes does not depend on the speed of the code under test
    nominal_pass_s: float

    def __init__(self, seed: int, workdir: pathlib.Path, smoke: bool
                 ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.reference: _t.Dict[str, str] = {}
        self.points: _t.List[_t.Tuple[str, _t.Any, str]] = []

    def setup(self) -> None:
        import repro.api
        repro.api._ensure_registry()

    def close(self) -> None:
        pass

    def timed_pass(self) -> PassResult:
        """One pass; only its timed region runs here."""
        raise NotImplementedError

    def verify(self, out: PassResult) -> PassResult:
        """Check the pass's outputs; failures count in ``out.failed``."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        return self.verify(self.timed_pass())

    def rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _check(self, result: _t.Any, key: str, out: PassResult) -> None:
        """Count ``result`` as failed unless it is ok and matches the
        reference digest of ``key``."""
        why = None
        if not result.ok:
            why = f"error: {result.error}"
        elif digests.of_result(result) != self.reference.get(key):
            why = "digest mismatch" if key in self.reference else \
                "no reference digest"
        if why is not None:
            out.failed += 1
            out.errors.append(f"{result.scenario!r:.60} {key[:12]}: {why}")


class Figures(Workload):
    name = "figures"
    nominal_pass_s = 9.5

    def setup(self) -> None:
        super().setup()
        self.points = figure_points()
        if self.smoke:
            self.points = [p for p in self.points
                           if p[1].app == "hpccg_kernels"
                           and p[1].n_logical <= 4]

    def timed_pass(self) -> PassResult:
        import repro
        out = PassResult(0.0, [], len(self.points), 0)
        t0 = time.perf_counter()
        for name, _scenario, _key in self.points:
            t = time.perf_counter()
            try:
                result = repro.run(name, cache=False)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                result = exc
            out.op_ms.append((time.perf_counter() - t) * 1e3)
            out.simulated.append(result)
        out.wall_s = time.perf_counter() - t0
        return out

    def verify(self, out: PassResult) -> PassResult:
        for (name, _s, key), result in zip(self.points, out.simulated):
            if isinstance(result, Exception):
                out.failed += 1
                out.errors.append(f"{name}: {type(result).__name__}: "
                                  f"{result}")
            else:
                self._check(result, key, out)
        out.simulated = [r for r in out.simulated
                         if not isinstance(r, Exception)]
        return out


class FailureStorms(Workload):
    name = "failure-storms"
    nominal_pass_s = 1.5

    def setup(self) -> None:
        super().setup()
        self.points = (storm_points(self.seed, per_cell=1, registered=False)
                       if self.smoke else storm_points(self.seed))
        self.passes = 0

    def timed_pass(self) -> PassResult:
        import repro
        from repro.fabric import Fabric
        root = self.root = self.workdir / f"storm-{self.passes}"
        self.passes += 1
        out = PassResult(0.0, [], len(self.points), 0)
        scenarios = [s for _n, s, _k in self.points]
        t0 = time.perf_counter()
        with Fabric(root, backend="sqlite") as fabric:
            for scenario in scenarios:
                fabric.enqueue_scenario(scenario)
            while True:
                t = time.perf_counter()
                if not fabric.drain(max_points=1):
                    break
                out.op_ms.append((time.perf_counter() - t) * 1e3)
            out.simulated = list(repro.sweep(scenarios, fabric=fabric,
                                             on_error="return"))
            parked = fabric.queue.stats().as_dict().get("failed", 0)
        out.wall_s = time.perf_counter() - t0
        missing = len(self.points) - len(out.op_ms)
        if missing or parked:
            out.failed += max(missing, parked)
            out.errors.append(f"drained {len(out.op_ms)} of "
                              f"{len(self.points)} points, {parked} "
                              f"parked as failed")
        return out

    def verify(self, out: PassResult) -> PassResult:
        for (_n, _s, key), result in zip(self.points, out.simulated):
            self._check(result, key, out)
            out.hits += result.cache_hit is True
        shutil.rmtree(self.root, ignore_errors=True)
        return out


class ResultService(Workload):
    """Server in its own process; ``traced`` boots it under the tracer
    (``serve_traced.py``), whose ``/_perfbench/*`` routes reset and
    return the server-side trace."""

    name = "result-service"
    nominal_pass_s = 0.6

    def setup(self) -> None:
        super().setup()
        from repro.fabric import Fabric
        self.points = service_points()
        self.root = self.workdir / "service"
        with Fabric(self.root, backend="sqlite") as fabric:
            for _name, scenario, _key in self.points:
                fabric.enqueue_scenario(scenario)
            fabric.drain()
        self.clients = max(1, os.cpu_count() or 1)
        self.requests = 40 if self.smoke else REQUESTS_PER_PASS
        self.passes = 0
        self.server: _t.Optional[subprocess.Popen[bytes]] = None
        self.boot(traced=False)

    # ----------------------------------------------------------- server
    def boot(self, traced: bool) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        entry = ([str(HERE / "serve_traced.py")] if traced
                 else ["-m", "repro.fabric.serve"])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(self.workdir / "server.log", "ab")
        self.server = subprocess.Popen(
            [sys.executable, *entry, "--root", str(self.root),
             "--backend", "sqlite", "--port", str(self.port)],
            env=env, stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + 60
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if self.server.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("result server did not come up; see "
                                   f"{self.workdir / 'server.log'}")
            time.sleep(0.02)

    def rss_mb(self) -> float:
        """Benchmark process plus the server's peak resident set."""
        own = super().rss_mb()
        if self.server is None:
            return own
        status = pathlib.Path(f"/proc/{self.server.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return own + int(line.split()[1]) / 1024
        return own

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            # SIGTERM, not SIGINT: a shell starts background jobs with
            # SIGINT ignored, and the server inherits that
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if getattr(self, "log", None) is not None:
            self.log.close()
            self.log = None

    def get(self, path: str) -> _t.Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    # ------------------------------------------------------------- load
    def _requests(self) -> _t.List[_t.Tuple[str, str]]:
        """(path, key) — the seeded mix of this pass."""
        rng = random.Random(f"result-service:{self.seed}:{self.passes}")
        self.passes += 1
        out = []
        for _ in range(self.requests):
            name, _s, key = rng.choice(self.points)
            if rng.random() < SCENARIO_SHARE:
                out.append(("/scenario/" + urllib.parse.quote(name, safe=""),
                            key))
            else:
                out.append((f"/result/{key}", key))
        return out

    def timed_pass(self) -> PassResult:
        requests = self._requests()
        out = PassResult(0.0, [0.0] * len(requests), len(requests), 0)
        replies: _t.List[_t.Tuple[int, bytes]] = [(0, b"")] * len(requests)

        def client(first: int) -> None:
            for i in range(first, len(requests), self.clients):
                t = time.perf_counter()
                try:
                    replies[i] = self.get(requests[i][0])
                except OSError as exc:
                    replies[i] = (0, repr(exc).encode())
                out.op_ms[i] = (time.perf_counter() - t) * 1e3

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(self.clients)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        out.wall_s = time.perf_counter() - t0
        out.replies = [(path, key, status, body) for (path, key),
                       (status, body) in zip(requests, replies)]
        return out

    def verify(self, out: PassResult) -> PassResult:
        for path, key, status, body in out.replies:
            if status != 200:
                why = f"status {status}"
            elif digests.of_json(body) != self.reference.get(key):
                why = ("digest mismatch" if key in self.reference
                       else "no reference digest")
            else:
                out.hits += json.loads(body)["cache"]["hit"] is True
                continue
            out.failed += 1
            out.errors.append(f"GET {path[:60]}: {why}")
        out.replies = []
        return out

    def control(self, route: str) -> _t.Dict[str, _t.Any]:
        status, body = self.get(f"/_perfbench/{route}")
        if status != 200:
            raise RuntimeError(f"trace control {route} -> {status}")
        return _t.cast(_t.Dict[str, _t.Any], json.loads(body))


WORKLOADS: _t.Dict[str, _t.Type[Workload]] = {
    w.name: w for w in (Figures, FailureStorms, ResultService)}
