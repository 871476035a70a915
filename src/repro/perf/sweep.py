"""Parallel experiment-sweep driver with on-disk result caching.

Every figure of the reproduction is a *sweep*: a list of independent
(mode, program, problem) points, each of which runs a full discrete-event
simulation.  Points share nothing at runtime (determinism makes each one
a pure function of its descriptor), which makes the sweep embarrassingly
parallel and its results safely cacheable.

:func:`run_sweep` fans the points out over a process pool and memoizes
each point's result on disk, keyed by a *stable* serialization of the
point descriptor (:func:`stable_token` — plain ``repr`` is not stable
for sets/dataclasses across hash seeds).

One planner (:func:`_plan`) keys, dedupes and warm-serves every sweep
and maps each outcome to a :class:`SweepItem`; three executors only run
the cold points it hands them: inline (:func:`_serial_rounds`), a
process pool (:func:`_pool_rounds`) and the distributed fabric
(:func:`_fabric_rounds`, behind ``repro.sweep(..., fabric=...)``).
How each applies ``timeout`` and retries, where it writes results and
in what order it yields is tabulated once, in ``docs/api.md``.

Defaults are conservative: serial and uncached.  The experiment CLI
(``python -m repro.experiments --workers N``) and the perf benchmark
opt in through :func:`configure`; library callers can also pass
``workers=`` / ``cache=`` explicitly.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import hashlib
import pathlib
import time
import typing as _t
from concurrent.futures.process import BrokenProcessPool

from .. import _envflags
from .retry import PointFailure, RetryPolicy

#: bump to invalidate every cached result (e.g. on model changes)
CACHE_VERSION = 2

_DEFAULT_CACHE_DIR = pathlib.Path(".perf_cache")


@dataclasses.dataclass
class SweepConfig:
    """Process-wide defaults for :func:`run_sweep`."""

    workers: int = 1
    cache: bool = False
    cache_dir: pathlib.Path = _DEFAULT_CACHE_DIR


def _env_workers(name: str = "REPRO_WORKERS") -> int:
    """Parse the worker-count env var defensively.

    A garbage value must not make ``import repro.perf.sweep`` raise
    (sweeps are imported by every experiment module), and a value the
    :func:`configure` validation would reject (``workers < 1``) must not
    sneak past it just because it arrived via the environment.  Either
    way :func:`repro._envflags.env_int` warns and falls back to the
    serial default of 1.
    """
    return _envflags.env_int(name, 1, minimum=1)


_config = SweepConfig(
    workers=1,
    cache=_envflags.env_flag("REPRO_SWEEP_CACHE", False),
    cache_dir=pathlib.Path(_envflags.env_str("REPRO_CACHE_DIR",
                                             str(_DEFAULT_CACHE_DIR))),
)


def configure(workers: _t.Optional[int] = None,
              cache: _t.Optional[bool] = None,
              cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None
              ) -> SweepConfig:
    """Set process-wide sweep defaults; returns the live config."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _config.workers = int(workers)
    if cache is not None:
        _config.cache = bool(cache)
    if cache_dir is not None:
        _config.cache_dir = pathlib.Path(cache_dir)
    return _config


def get_config() -> SweepConfig:
    """The live process-wide sweep configuration."""
    return _config


# The env default goes through the same validation as explicit callers
# (``_env_workers`` already clamps to >= 1, so this cannot raise at
# import time).
configure(workers=_env_workers())


# ------------------------------------------------------------ stable keys
def stable_token(obj: _t.Any) -> str:
    """A deterministic, hash-seed-independent serialization of a sweep
    point descriptor.

    Handles the types experiment configs are made of: primitives,
    sequences, dicts, sets/frozensets (sorted), enums, dataclasses,
    callables (by qualified name) and plain attribute objects.  Unknown
    objects fall back to ``repr`` — fine as long as the repr does not
    embed memory addresses (a ``<... at 0x...>`` repr raises instead of
    silently producing an unstable key).
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"enum:{type(obj).__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Fields flagged ``omit_if_default`` are skipped while at their
        # default value, so adding such a field to a descriptor (e.g.
        # ``Scenario.restart``) leaves every pre-existing cache key —
        # where the field necessarily holds its default — unchanged.
        fields = ", ".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
            if not (f.metadata.get("omit_if_default")
                    and getattr(obj, f.name) == f.default))
        return f"dc:{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return f"{kind}[{', '.join(stable_token(v) for v in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"set[{', '.join(sorted(stable_token(v) for v in obj))}]"
    if isinstance(obj, dict):
        items = sorted((stable_token(k), stable_token(v))
                       for k, v in obj.items())
        return f"dict[{', '.join(f'{k}: {v}' for k, v in items)}]"
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"fn:{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return f"obj:{type(obj).__qualname__}({stable_token(attrs)})"
    r = repr(obj)
    if " at 0x" in r:
        raise TypeError(
            f"cannot build a stable cache key for {type(obj).__name__}: "
            f"repr embeds a memory address ({r})")
    return f"repr:{r}"


def _point_key(fn: _t.Callable, point: _t.Any, tag: str) -> str:
    blob = f"v{CACHE_VERSION}|{tag or stable_token(fn)}|{stable_token(point)}"
    return hashlib.sha256(blob.encode()).hexdigest()


def point_cache_key(fn: _t.Callable, point: _t.Any, tag: str = "") -> str:
    """The on-disk cache key :func:`run_sweep` uses for one point — a
    stable hash of the point descriptor (and the tag namespace), so
    callers can reason about result identity (e.g. scenario hashes: see
    :func:`repro.scenarios.scenario_cache_key`)."""
    return _point_key(fn, point, tag)


# ------------------------------------------------------------- disk cache
# The cache's bytes, and what a bad read means, are decided by the codec
# of :mod:`repro.fabric.store` (:func:`~repro.fabric.store.read_result`,
# :func:`~repro.fabric.store.write_result`), on whichever store
# :func:`~repro.fabric.store.open_store` picks for the cache root.  One
# handle is kept per (backend, root), so a long sweep reuses it; pool
# workers drop the inherited handles in :func:`_worker_init`.
_STORES: _t.Dict[_t.Tuple[str, str], _t.Any] = {}


def _result_store(cache_dir: pathlib.Path) -> _t.Any:
    from ..fabric.store import get_cache_backend, open_store
    slot = (get_cache_backend(), str(cache_dir))
    store = _STORES.get(slot)
    if store is None:
        store = _STORES[slot] = open_store(cache_dir, slot[0])
    return store


def clear_result_cache(cache_dir: _t.Optional[_t.Union[str, pathlib.Path]]
                       = None) -> int:
    """Delete all cached sweep results; returns the number removed.

    Uniform across store backends: the file layout also sweeps the
    ``.tmp<pid>`` droppings a crashed writer leaves behind, the
    ``.corrupt`` files a read quarantined, and prunes emptied shard
    directories; the SQLite backend empties its ``results`` *and*
    ``corrupt`` tables.  Residue never counts toward the return value,
    which is cached *results* only.
    """
    root = pathlib.Path(cache_dir) if cache_dir else _config.cache_dir
    return _result_store(root).clear()


# ------------------------------------------------------------- the driver
def _worker_init(cache_backend: _t.Optional[str] = None) -> None:
    """Pool-worker initializer: mirror the parent's cache backend.

    Freshly spawned workers re-read ``REPRO_CACHE_BACKEND`` on import,
    so env-var users inherit the backend for free — but one selected
    programmatically via :func:`repro.fabric.set_cache_backend` lives
    only in the parent process.  Forked workers also drop any memoized
    store handles — an SQLite connection must never cross a ``fork``.
    """
    _STORES.clear()
    if cache_backend is not None:
        from repro.fabric.store import set_cache_backend
        set_cache_backend(cache_backend)


@dataclasses.dataclass
class SweepItem:
    """One completed sweep point, as yielded by :func:`iter_sweep`.

    ``index`` is the point's position in the input sequence (yields
    arrive in *completion* order, not input order).  ``cache_hit`` is
    True when the value came from the on-disk cache or was deduped onto
    an equal point in the same sweep; ``cache_key`` is the on-disk key
    (``None`` when caching is disabled for the sweep).
    """

    index: int
    point: _t.Any
    value: _t.Any
    cache_hit: bool
    cache_key: _t.Optional[str]


#: what an executor reports per cold point: (index, value, error) —
#: ``error`` is ``None`` on success; otherwise ``value`` is the
#: :class:`PointFailure` and ``error`` what ``on_error="raise"`` raises
_Outcome = _t.Tuple[int, _t.Any, _t.Optional[BaseException]]
_Executor = _t.Callable[[_t.List[int]], _t.Iterator[_Outcome]]


def _plan(points: _t.List[_t.Any], execute: _Executor, on_error: str,
          key: _t.Optional[_t.Callable[[_t.Any], str]] = None,
          store: _t.Any = None,
          write: bool = True) -> _t.Iterator[SweepItem]:
    """The sweep planner under every executor.

    Keys every point with ``key`` (``None``: an uncached sweep — no
    dedupe, no reads, no writes) and dedupes equal keys onto their first
    point, the owner.  Then reads each owner's key once from ``store``
    and yields each warm owner followed by its duplicates, and hands
    only the cold owners to ``execute``.  A computed value is written
    to ``store`` (best-effort, and only when ``write``: fabric workers
    store their own) and yielded for the owner, then as a hit for each
    duplicate.  A :class:`PointFailure` is never cached; it goes to the
    owner and its duplicates alike, or under ``on_error="raise"`` the
    executor's exception is raised instead.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', got "
                         f"{on_error!r}")
    duplicates: _t.Dict[int, _t.List[int]] = {}
    keys: _t.List[_t.Optional[str]]

    def fan_out(i: int, value: _t.Any, hit: bool,
                duplicate_hit: bool) -> _t.Iterator[SweepItem]:
        yield SweepItem(i, points[i], value, hit, keys[i])
        for j in duplicates.get(i, ()):
            yield SweepItem(j, points[j], value, duplicate_hit, keys[j])

    if key is None:
        keys = [None] * len(points)
        cold = list(range(len(points)))
    else:
        # imported here, so an uncached sweep never loads the fabric
        from ..fabric.store import read_result, write_result
        keys = [key(p) for p in points]
        owners: _t.Dict[str, int] = {}
        for i, k in enumerate(keys):
            owner = owners.setdefault(k, i)
            if owner != i:
                duplicates.setdefault(owner, []).append(i)
        cold = []
        for i in owners.values():
            hit, value = read_result(store, keys[i])
            if hit:
                yield from fan_out(i, value, True, True)
            else:
                cold.append(i)
    if not cold:
        return
    for i, value, error in execute(cold):
        if error is None:
            if write and store is not None:
                try:
                    write_result(store, keys[i], value)
                except Exception:  # noqa: BLE001 — disk-full, locked
                    pass  # DB, unpicklable: caching never fails a sweep
            yield from fan_out(i, value, False, True)
        elif on_error == "raise":
            raise error
        else:
            yield from fan_out(i, value, False, False)


def iter_sweep(points: _t.Sequence[_t.Any],
               fn: _t.Callable[[_t.Any], _t.Any],
               workers: _t.Optional[int] = None,
               cache: _t.Optional[bool] = None,
               cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None,
               tag: str = "",
               timeout: _t.Optional[float] = None,
               retries: int = 0,
               backoff: float = 0.5,
               on_error: str = "raise") -> _t.Iterator[SweepItem]:
    """Streaming form of :func:`run_sweep`: yield a :class:`SweepItem`
    per point *as results become available* instead of one ordered list
    at the end.

    Cache hits yield first (each followed by its same-key duplicates);
    the cold points follow as the inline or pool executor completes
    them, each followed by the duplicates it resolves.  Keys, stored
    bytes and the in-sweep dedupe are those of :func:`run_sweep` (which
    is implemented on this iterator), so streaming and batch consumers
    share one cache.

    Parameters are those of :func:`run_sweep` plus the robustness
    knobs (also accepted by :func:`run_sweep`); ``docs/api.md`` tabulates
    how each executor applies them:

    * ``timeout`` — soft per-point wall-clock budget in seconds (pool
      runs only; inline execution cannot be preempted).  A round of
      pool work is abandoned once it exceeds one budget per submission
      wave; unfinished points count a ``"timeout"`` attempt.
    * ``retries`` — how many times a failed point (exception, timeout,
      dead worker) is re-attempted, with exponential backoff
      (``backoff * 2**(k-1)`` seconds after failed attempt ``k``,
      capped at 30 s — the retry curve of
      :class:`~repro.perf.retry.RetryPolicy`, which the fabric work
      queue shares).  Worker death never poisons the sweep: completed
      points keep their results and the survivors retry on a fresh
      pool.
    * ``on_error`` — ``"raise"`` (default) re-raises the first point
      that exhausts its attempts; ``"return"`` yields it as a
      :class:`SweepItem` whose value is a structured
      :class:`PointFailure` (never cached) and keeps sweeping.

    The iterator is lazy: nothing runs until the first ``next()``, and
    abandoning it mid-sweep shuts the worker pool down cleanly.
    """
    policy = RetryPolicy(retries + 1, backoff)
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    cfg = _config
    n_workers = cfg.workers if workers is None else workers
    use_cache = cfg.cache if cache is None else cache
    root = pathlib.Path(cache_dir) if cache_dir else cfg.cache_dir
    points = list(points)

    def execute(cold: _t.List[int]) -> _t.Iterator[_Outcome]:
        if n_workers > 1 and len(cold) > 1:
            return _pool_rounds(points, fn, cold, n_workers, timeout,
                                policy)
        return _serial_rounds(points, fn, cold, policy)

    if use_cache:
        yield from _plan(points, execute, on_error,
                         key=lambda p: _point_key(fn, p, tag),
                         store=_result_store(root))
    else:
        yield from _plan(points, execute, on_error)


def _fabric_sweep(points: _t.List[_t.Any], fabric: _t.Any,
                  timeout: _t.Optional[float],
                  on_error: str) -> _t.Iterator[SweepItem]:
    """:func:`iter_sweep` through a :class:`repro.fabric.Fabric`: every
    point's key is recorded with the fabric (so its result service can
    serve it), warm points come from the fabric's store and cold ones
    from its workers (:func:`_fabric_rounds`)."""
    return _plan(points,
                 lambda cold: _fabric_rounds(points, fabric, cold, timeout),
                 on_error, key=fabric.record_scenario, store=fabric.store,
                 write=False)


def _serial_rounds(points: _t.List[_t.Any], fn: _t.Callable,
                   cold: _t.List[int],
                   policy: RetryPolicy) -> _t.Iterator[_Outcome]:
    """The inline executor: bounded retry in this process (no pool, no
    preemption — ``timeout`` does not apply here)."""
    for i in cold:
        for attempt in range(1, policy.attempts + 1):
            try:
                value = fn(points[i])
            except Exception as exc:
                if not policy.exhausted(attempt):
                    time.sleep(policy.delay(attempt))
                    continue
                yield i, PointFailure(f"{type(exc).__name__}: {exc}",
                                      "error", attempt), exc
            else:
                yield i, value, None
            break


def _pool_rounds(points: _t.List[_t.Any], fn: _t.Callable,
                 cold: _t.List[int], n_workers: int,
                 timeout: _t.Optional[float],
                 policy: RetryPolicy) -> _t.Iterator[_Outcome]:
    """The pool executor, in rounds: each round runs the still-pending
    points on a *fresh* pool, so a worker death (which poisons a
    :class:`~concurrent.futures.ProcessPoolExecutor`) costs one attempt
    for the in-flight points — never the results already completed, and
    never the sweep.  Before round ``r + 1`` the driver waits the
    policy's delay after ``r`` failed attempts."""
    attempts: _t.Dict[int, int] = {i: 0 for i in cold}
    failures: _t.Dict[int, PointFailure] = {}
    raisable: _t.Dict[int, BaseException] = {}
    todo = list(cold)
    round_no = 0
    while todo:
        if round_no:
            time.sleep(policy.delay(round_no))
        round_no += 1
        width = min(n_workers, len(todo))
        from repro.fabric.store import get_cache_backend
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=width, initializer=_worker_init,
            initargs=(get_cache_backend(),))
        retry: _t.List[int] = []
        drained = False
        abandoned = False
        try:
            futures = {pool.submit(fn, points[i]): i for i in todo}
            waiting = set(futures)
            deadline = None
            if timeout is not None:
                # soft per-point budget: the round gets one timeout per
                # submission wave (queued points have not started yet)
                deadline = time.monotonic() + timeout * -(-len(todo)
                                                          // width)
            while waiting:
                wait_for = None if deadline is None else max(
                    0.0, deadline - time.monotonic())
                done, waiting = concurrent.futures.wait(
                    waiting, timeout=wait_for,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:
                    # budget exhausted: every straggler counts a
                    # timeout attempt; its worker is abandoned (a
                    # running future cannot be killed, only orphaned).
                    # Stragglers are charged in point order so the
                    # retry round is deterministic (futures are
                    # identity-hashed; raw set order is not).
                    for fut in sorted(waiting, key=futures.__getitem__):
                        i = futures[fut]
                        fut.cancel()
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"timed out after {timeout}s", "timeout",
                            attempts[i])
                        retry.append(i)
                    waiting = set()
                    abandoned = True
                    break
                broken = False
                # completion batches arrive as identity-hashed sets;
                # iterate them in point order so a serial replay of the
                # same wave sequence yields results identically
                for fut in sorted(done, key=futures.__getitem__):
                    i = futures[fut]
                    try:
                        value = fut.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"worker died ({exc})", "worker-lost",
                            attempts[i])
                        retry.append(i)
                    except Exception as exc:
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"{type(exc).__name__}: {exc}", "error",
                            attempts[i])
                        raisable[i] = exc
                        retry.append(i)
                    else:
                        yield i, value, None
                if broken:
                    # the pool is poisoned: in-flight siblings are lost
                    # with it; charge them one attempt and rebuild —
                    # in point order, for a deterministic retry round
                    for fut in sorted(waiting, key=futures.__getitem__):
                        i = futures[fut]
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            "worker died (pool broken)", "worker-lost",
                            attempts[i])
                        retry.append(i)
                    waiting = set()
            drained = True
        finally:
            # A consumer that abandons the stream (GeneratorExit) must
            # not block on the queued remainder, and neither may a
            # timed-out round; a fully drained round has every future
            # done, so waiting is free.
            pool.shutdown(wait=drained and not abandoned,
                          cancel_futures=True)
        todo = []
        for i in retry:
            if not policy.exhausted(attempts[i]):
                todo.append(i)
                continue
            failure = failures[i]
            yield i, failure, raisable.get(i) or RuntimeError(
                f"sweep point {i} failed after {failure.attempts} "
                f"attempt(s): {failure.error}")


def _fabric_rounds(points: _t.List[_t.Any], fabric: _t.Any,
                   cold: _t.List[int],
                   timeout: _t.Optional[float]) -> _t.Iterator[_Outcome]:
    """The fabric executor: enqueue the cold points for the workers
    sharing the fabric's root and poll their results in every
    ``fabric.poll`` seconds.  The workers store the bytes, so nothing
    is written here.  Retries are the queue's (``Fabric(max_attempts=,
    backoff=)``): a point it parks as ``failed`` is a failure.
    ``timeout`` is one budget for the whole wait; when it runs out,
    every point still pending fails as a ``"timeout"``.

    Each poll reads the queue states of all pending keys at once and
    the store only for the ``done`` ones: a worker stores its result
    before it acks the key, so a key that is not ``done`` has nothing
    to read yet.  A ``done`` key whose read misses stays pending."""
    pending = [(i, fabric.enqueue_scenario(points[i])) for i in cold]
    deadline = None if timeout is None else time.monotonic() + timeout
    while pending:
        items = fabric.queue.get_many([key for _i, key in pending])
        still: _t.List[_t.Tuple[int, str]] = []
        for i, key in pending:
            item = items.get(key)
            if item is not None and item.state == "done":
                value = fabric.load_result(key)
                if value is not None:
                    yield i, value, None
                    continue
            elif item is not None and item.state == "failed":
                failure = PointFailure(
                    item.error or "point failed in fabric",
                    RetryPolicy.kind_of(item.error or ""), item.attempts)
                yield i, failure, RuntimeError(
                    f"fabric point {key[:12]}… failed after "
                    f"{item.attempts} attempt(s): {failure.error}")
                continue
            still.append((i, key))
        pending = still
        if not pending:
            return
        if deadline is not None and time.monotonic() >= deadline:
            failure = PointFailure(
                f"fabric sweep timed out with {len(pending)} point(s) "
                f"still pending (are workers running?)", "timeout", 0)
            for i, _key in pending:
                yield i, failure, TimeoutError(failure.error)
            return
        time.sleep(fabric.poll)


def run_sweep(points: _t.Sequence[_t.Any], fn: _t.Callable[[_t.Any], _t.Any],
              workers: _t.Optional[int] = None,
              cache: _t.Optional[bool] = None,
              cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None,
              tag: str = "",
              timeout: _t.Optional[float] = None,
              retries: int = 0,
              backoff: float = 0.5,
              on_error: str = "raise") -> _t.List[_t.Any]:
    """Evaluate ``fn(point)`` for every point, in order.

    This is the single fan-out/caching choke point of the repo: every
    figure, ablation, extension and CLI run routes its points through
    here (scenario sweeps via
    :func:`repro.scenarios.sweep_scenarios`), so ``--workers`` /
    ``--no-cache`` behave uniformly everywhere.  See ``docs/cli.md``
    for the user-facing semantics and ``docs/architecture.md`` for
    where the driver sits in the stack.

    Parameters
    ----------
    points:
        Picklable point descriptors.  Each must be a *pure description*
        of the run (configs, mode names, counts — no live objects):
        results are memoized on the descriptor's stable serialization
        (:func:`stable_token`), so anything that should invalidate a
        cached result must be part of the descriptor.
    fn:
        Module-level callable (picklable by reference when
        ``workers > 1``); must be deterministic in ``point`` — the
        cache stores its first result forever (until
        :data:`CACHE_VERSION` is bumped or the cache is cleared).
    workers:
        Process-pool width; ``None`` uses the :func:`configure`\\ d
        default (CLI ``--workers N``, env ``REPRO_WORKERS``).  With 1
        worker — or a single pending point — everything runs inline in
        this process (no pool, no pickling).  Cache hits never spawn
        workers.
    cache:
        Override the configured on-disk memoization (CLI
        ``--no-cache`` maps to ``False``; env ``REPRO_SWEEP_CACHE``
        sets the default).  Caching is best-effort: unreadable or
        corrupt entries recompute, write failures never fail the sweep.
    cache_dir:
        Cache root (default ``.perf_cache/``, env ``REPRO_CACHE_DIR``).
    tag:
        Cache-key namespace; defaults to ``fn``'s qualified name.
        Scenario sweeps pass one shared tag so equal scenarios dedupe
        *across* figures, examples and CLI runs (see
        :func:`repro.scenarios.scenario_cache_key`).
    timeout, retries, backoff, on_error:
        Robustness knobs, as documented on :func:`iter_sweep`.  Under
        ``on_error="return"`` a point that exhausts its attempts shows
        up in the result list as a :class:`PointFailure` instead of
        raising.

    Returns results in the same order as ``points``.
    """
    points = list(points)
    results: _t.List[_t.Any] = [None] * len(points)
    for item in iter_sweep(points, fn, workers=workers, cache=cache,
                           cache_dir=cache_dir, tag=tag, timeout=timeout,
                           retries=retries, backoff=backoff,
                           on_error=on_error):
        results[item.index] = item.value
    return results
