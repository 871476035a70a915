"""The curated public facade: ``repro.run`` / ``repro.sweep`` /
``repro.iter_sweep`` / ``repro.compare`` / ``repro.scenario``.

One stable, versioned entry layer over the whole reproduction: every
workload — a paper figure point, an example, a CLI invocation, a future
dashboard — names a :class:`~repro.scenarios.Scenario` (directly or by
its registry name) and gets back a structured
:class:`~repro.results.RunResult` / :class:`~repro.results.ResultSet`
with cache provenance attached.  All functions here are re-exported
lazily at the top level (``import repro; repro.run(...)``); see
``docs/api.md`` for the tour and the stability policy.

Design invariants:

* The facade *wraps* the scenario execution layer
  (:mod:`repro.scenarios.run`) and the sweep driver
  (:mod:`repro.perf.sweep`); it never changes what is simulated, how
  results are cached (scenario-hash keys, :class:`ModeRun` bytes) or
  the determinism guarantees underneath.
* Sweeps stream: :func:`iter_sweep` yields results as the worker pool
  completes them; :func:`sweep` is the ordered batch form with an
  optional ``on_result`` progress callback.  Every sweep, local or
  through a fabric, runs on the one planner of :mod:`repro.perf.sweep`;
  how its inline, pool and fabric executors apply ``timeout`` and
  retries is tabulated in ``docs/api.md`` ("Sweep executors").
* Name resolution imports :mod:`repro.experiments` on demand so every
  registered figure/example scenario is addressable without eagerly
  importing the experiment harness at ``import repro`` time.
"""

from __future__ import annotations

import typing as _t

from .perf import PointFailure
from .perf import iter_sweep as _perf_iter_sweep
from .perf.sweep import _fabric_sweep
from .results import ResultSet, RunResult
from .scenarios import Scenario, scenario_cache_key
from .scenarios.run import SCENARIO_SWEEP_TAG, _run_scenario

__all__ = ["ResultSet", "RunResult", "Scenario", "compare",
           "iter_sweep", "run", "scenario", "sweep"]

#: the paper's three execution modes, in canonical comparison order
MODES: _t.Tuple[str, ...] = ("native", "sdr", "intra")

ScenarioLike = _t.Union[str, Scenario]


def _ensure_registry() -> None:
    """Make every registered scenario name resolvable: the figure
    modules register their grids at import, so importing the experiment
    harness (idempotent, lazy) populates the registry."""
    import repro.experiments  # noqa: F401  (import-time registration)


def scenario(name_or_scenario: ScenarioLike,
             **overrides: _t.Any) -> Scenario:
    """Resolve a scenario: a registry name (``"fig5b:p16:intra"``) or a
    :class:`Scenario` instance, with optional field overrides applied
    (``repro.scenario("fig5b:p16:intra", degree=3)``).

    The returned spec is frozen; chain
    :meth:`~repro.scenarios.Scenario.with_overrides` /
    :meth:`~repro.scenarios.Scenario.replace` /
    :meth:`~repro.scenarios.Scenario.with_failures` to derive variants.
    """
    if isinstance(name_or_scenario, Scenario):
        s = name_or_scenario
    elif isinstance(name_or_scenario, str):
        _ensure_registry()
        from .scenarios import get_scenario
        s = get_scenario(name_or_scenario)
    else:
        raise TypeError(f"expected a Scenario or a registered scenario "
                        f"name, got {type(name_or_scenario).__name__}")
    return s.with_overrides(overrides) if overrides else s


def run(name_or_scenario: ScenarioLike, *,
        cache: _t.Optional[bool] = None,
        cache_dir: _t.Optional[_t.Any] = None,
        before_run: _t.Optional[_t.Callable[..., None]] = None,
        retries: int = 0,
        backoff: float = 0.5,
        on_error: str = "raise",
        fabric: _t.Optional[_t.Any] = None,
        **overrides: _t.Any) -> RunResult:
    """Run one scenario end to end; returns a :class:`RunResult`.

    ``cache``/``cache_dir`` override the process-wide sweep-cache
    config (:func:`repro.perf.configure`); the result's ``cache_key`` /
    ``cache_hit`` report how the cache treated this run.

    ``retries``/``backoff``/``on_error`` are the robustness knobs of
    :func:`repro.perf.iter_sweep`; under ``on_error="return"`` a run
    that keeps failing comes back as a failed :class:`RunResult`
    (``result.ok`` False, the failure in ``result.error``) instead of
    raising.

    ``before_run(world, job)`` is the advanced instrumentation hook of
    the scenario runner (e.g. protocol-precise hook-triggered crashes);
    a hooked run is no longer a pure function of the scenario, so it
    always executes fresh and bypasses the cache entirely
    (``cache_key is None``).

    ``fabric`` serves/computes the run through a
    :class:`repro.fabric.Fabric` instead of this process — see
    :func:`sweep`.
    """
    s = scenario(name_or_scenario, **overrides)
    if before_run is not None:
        mode_run = _run_scenario(s, before_run=before_run)
        return RunResult.from_mode_run(mode_run, s)
    result, = iter_sweep([s], cache=cache, cache_dir=cache_dir,
                         retries=retries, backoff=backoff,
                         on_error=on_error, fabric=fabric)
    return result


def iter_sweep(scenarios: _t.Iterable[ScenarioLike], *,
               workers: _t.Optional[int] = None,
               cache: _t.Optional[bool] = None,
               cache_dir: _t.Optional[_t.Any] = None,
               timeout: _t.Optional[float] = None,
               retries: int = 0,
               backoff: float = 0.5,
               on_error: str = "raise",
               fabric: _t.Optional[_t.Any] = None
               ) -> _t.Iterator[RunResult]:
    """Streaming sweep: yield a :class:`RunResult` per scenario *as the
    pool completes them* (cache hits first, then fresh simulations in
    completion order — not input order; each result's ``scenario``
    identifies it).  Lazy: nothing runs until the first ``next()``.

    Layered on :func:`repro.perf.iter_sweep` with the shared scenario
    cache namespace, so streaming consumers, :func:`sweep` and the
    figure harness all dedupe onto the same scenario-hash keys and
    cached bytes.  ``timeout``/``retries``/``backoff``/``on_error``
    are the sweep driver's robustness knobs: with
    ``on_error="return"`` a scenario that exhausts its attempts yields
    a failed :class:`RunResult` (``.ok`` False) and the sweep keeps
    going.

    ``fabric`` (a :class:`repro.fabric.Fabric`) swaps the local worker
    pool for the distributed fabric: warm points stream straight out of
    the fabric's result store, cold points are enqueued for whatever
    ``python -m repro.fabric.worker`` daemons share the root, and the
    iterator polls results in as they land — see :func:`sweep` and the
    executor table of ``docs/api.md``.
    """
    for _i, result in _iter_indexed([scenario(s) for s in scenarios],
                                    workers=workers, cache=cache,
                                    cache_dir=cache_dir, timeout=timeout,
                                    retries=retries, backoff=backoff,
                                    on_error=on_error, fabric=fabric):
        yield result


def _iter_indexed(resolved: _t.List[Scenario], *,
                  workers: _t.Optional[int] = None,
                  cache: _t.Optional[bool] = None,
                  cache_dir: _t.Optional[_t.Any] = None,
                  timeout: _t.Optional[float] = None,
                  retries: int = 0,
                  backoff: float = 0.5,
                  on_error: str = "raise",
                  fabric: _t.Optional[_t.Any] = None
                  ) -> _t.Iterator[_t.Tuple[int, RunResult]]:
    """(input index, RunResult) pairs in completion order — the shared
    core of :func:`iter_sweep` and :func:`sweep`, and the one place
    sweep items become results."""
    if fabric is not None:
        items = _fabric_sweep(resolved, fabric, timeout, on_error)
    else:
        items = _perf_iter_sweep(resolved, _run_scenario,
                                 workers=workers, cache=cache,
                                 cache_dir=cache_dir,
                                 tag=SCENARIO_SWEEP_TAG,
                                 timeout=timeout, retries=retries,
                                 backoff=backoff, on_error=on_error)
    for item in items:
        key = (item.cache_key if item.cache_key is not None
               else scenario_cache_key(item.point))
        if isinstance(item.value, PointFailure):
            yield item.index, RunResult.from_failure(
                item.value, item.point, cache_key=key)
            continue
        hit = item.cache_hit if item.cache_key is not None else None
        yield item.index, RunResult.from_mode_run(
            item.value, item.point, cache_key=key, cache_hit=hit)


def sweep(scenarios: _t.Iterable[ScenarioLike], *,
          workers: _t.Optional[int] = None,
          cache: _t.Optional[bool] = None,
          cache_dir: _t.Optional[_t.Any] = None,
          timeout: _t.Optional[float] = None,
          retries: int = 0,
          backoff: float = 0.5,
          on_error: str = "raise",
          on_result: _t.Optional[_t.Callable[[RunResult], None]] = None,
          fabric: _t.Optional[_t.Any] = None
          ) -> ResultSet:
    """Evaluate a batch of scenarios; returns a :class:`ResultSet` in
    input order.

    ``workers`` fans the points out over a process pool; results are
    memoized on scenario hashes per the perf config.  ``on_result`` is
    invoked once per result *as it completes* (completion order — the
    streaming progress hook), while the returned set is always ordered
    like the input.  The robustness knobs
    (``timeout``/``retries``/``backoff``/``on_error``) pass through to
    :func:`repro.perf.iter_sweep`; under ``on_error="return"`` failed
    points appear in the set as failed :class:`RunResult`\\ s
    (``.ok`` False) rather than aborting the sweep.

    ``fabric`` (a :class:`repro.fabric.Fabric`) runs the sweep through
    the distributed fabric instead of a local pool: warm points serve
    immediately from the fabric's store, cold ones are enqueued for the
    worker daemons sharing its root, and a re-run of an interrupted
    sweep resumes from whatever they completed.  Results are
    byte-identical to the local path (same keys, same stored bytes);
    retry policy moves to the fabric's queue
    (``Fabric(max_attempts=..., backoff=...)``), so the per-sweep
    ``retries``/``backoff``/``workers``/``cache`` knobs are ignored in
    fabric mode and ``timeout`` bounds the total wait for cold points
    (the executor table of ``docs/api.md`` sets the three executors
    side by side).
    """
    resolved = [scenario(s) for s in scenarios]
    ordered: _t.List[_t.Optional[RunResult]] = [None] * len(resolved)
    for i, result in _iter_indexed(resolved, workers=workers,
                                   cache=cache, cache_dir=cache_dir,
                                   timeout=timeout, retries=retries,
                                   backoff=backoff, on_error=on_error,
                                   fabric=fabric):
        ordered[i] = result
        if on_result is not None:
            on_result(result)
    return ResultSet(ordered)


def compare(name_or_scenario: ScenarioLike,
            modes: _t.Sequence[str] = MODES, *,
            workers: _t.Optional[int] = None,
            cache: _t.Optional[bool] = None,
            cache_dir: _t.Optional[_t.Any] = None,
            timeout: _t.Optional[float] = None,
            retries: int = 0,
            backoff: float = 0.5,
            on_error: str = "raise",
            fabric: _t.Optional[_t.Any] = None,
            **overrides: _t.Any) -> ResultSet:
    """The paper's headline artifact as one call: the same workload in
    several execution modes, returned as a :class:`ResultSet` ordered
    like ``modes``.

    ``name_or_scenario`` may be:

    * a registry *family* prefix — ``"example:hpccg"`` — when
      ``<prefix>:<mode>`` is registered for every requested mode (the
      registered points may differ in more than ``mode``, e.g. the
      doubled per-logical problem of the Figure 5 convention);
    * a single registered name or a :class:`Scenario`, from which the
      other modes are derived by replacing ``mode`` only.
    """
    if isinstance(name_or_scenario, str):
        _ensure_registry()
        from .scenarios import get_scenario, scenario_names
        names = set(scenario_names())
        if all(f"{name_or_scenario}:{m}" in names for m in modes):
            points = [get_scenario(f"{name_or_scenario}:{m}")
                      .with_overrides(overrides) for m in modes]
            return sweep(points, workers=workers, cache=cache,
                         cache_dir=cache_dir, timeout=timeout,
                         retries=retries, backoff=backoff,
                         on_error=on_error, fabric=fabric)
    base = scenario(name_or_scenario, **overrides)
    points = [base.replace(mode=m) for m in modes]
    return sweep(points, workers=workers, cache=cache,
                 cache_dir=cache_dir, timeout=timeout, retries=retries,
                 backoff=backoff, on_error=on_error, fabric=fabric)
