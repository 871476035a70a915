"""Fault injection and failure detection (crash-stop model).

The paper assumes crash-stop failures with an (out-of-scope but implied)
failure detector: "It also assumes that trying to receive an update from
a failed replica returns an error" (Algorithm 1).  We implement:

* :class:`FailureInjector` — schedules replica crashes at virtual times
  or on protocol hook events (e.g. "after the update for variable `a` of
  task 3 was injected", the Figure 2 scenario);
* a perfect failure detector with configurable detection delay, driven
  by :class:`~repro.replication.manager.ReplicationManager`: every
  surviving endpoint learns of a crash ``fd_delay`` seconds after it
  happens, failing its pending receives from the dead peer.
* :class:`HookBus` — a synchronous pub/sub bus the intra-parallelization
  runtime publishes protocol events on; injectors subscribe to trigger
  crashes at precise protocol points, which is how the §III-B2 failure
  cases are exercised deterministically.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .manager import ReplicationManager


class HookBus:
    """Synchronous publish/subscribe bus for protocol events.

    Handlers run inline at the emit point (deterministically), so a
    fault-injection handler can crash a replica *between* two protocol
    steps — e.g. between the per-variable update messages of one task.
    """

    def __init__(self) -> None:
        self._handlers: _t.DefaultDict[str, _t.List[_t.Callable]] = \
            collections.defaultdict(list)
        self.events_seen: _t.List[_t.Tuple[str, dict]] = []
        self.record = False

    def subscribe(self, name: str, handler: _t.Callable[..., None]) -> None:
        """Register ``handler(**kwargs)`` for events named ``name``."""
        self._handlers[name].append(handler)

    def emit(self, name: str, **kwargs: _t.Any) -> None:
        """Publish an event; all handlers run synchronously, in
        subscription order."""
        if self.record:
            self.events_seen.append((name, kwargs))
        for handler in list(self._handlers[name]):
            handler(**kwargs)


@dataclasses.dataclass
class CrashPlan:
    """A scheduled crash."""
    logical_rank: int
    replica_id: int
    #: virtual time of the crash (for time-triggered plans)
    at_time: _t.Optional[float] = None
    #: hook event name (for protocol-triggered plans)
    on_hook: _t.Optional[str] = None
    #: predicate over the hook's kwargs; crash fires on first match
    when: _t.Optional[_t.Callable[..., bool]] = None
    fired: bool = False


class FailureInjector:
    """Schedules crash-stop failures against a replicated job."""

    def __init__(self, manager: "ReplicationManager"):
        self.manager = manager
        self.plans: _t.List[CrashPlan] = []

    def kill_at(self, logical_rank: int, replica_id: int,
                time: float) -> CrashPlan:
        """Crash replica ``replica_id`` of ``logical_rank`` at virtual
        ``time``."""
        plan = CrashPlan(logical_rank, replica_id, at_time=time)
        self.plans.append(plan)
        sim = self.manager.world.sim

        def body():
            yield sim.timeout(time - sim.now)
            self._fire(plan)

        sim.process(body(), name=f"crash@{time}")
        return plan

    def kill_on_hook(self, logical_rank: int, replica_id: int, hook: str,
                     when: _t.Optional[_t.Callable[..., bool]] = None
                     ) -> CrashPlan:
        """Crash the replica the first time hook ``hook`` fires with
        kwargs satisfying ``when`` (default: first occurrence).

        Only events emitted *by the victim replica itself* trigger the
        crash (so "kill P#1 after it sent variable a's update" cannot be
        triggered by P#2's traffic).
        """
        plan = CrashPlan(logical_rank, replica_id, on_hook=hook, when=when)
        self.plans.append(plan)

        def handler(**kwargs: _t.Any) -> None:
            if plan.fired:
                return
            if (kwargs.get("logical_rank") == logical_rank
                    and kwargs.get("replica_id") == replica_id
                    and (when is None or when(**kwargs))):
                self._fire(plan)

        self.manager.hooks.subscribe(hook, handler)
        return plan

    def apply(self, events: _t.Iterable[_t.Any]) -> _t.List[CrashPlan]:
        """Schedule a batch of time-triggered crashes.

        ``events`` are ``(logical_rank, replica_id, time)`` triples or
        any objects exposing those attributes (e.g. the materialized
        events of a :class:`repro.scenarios.FailureSchedule`) — the
        uniform installation path for declarative failure workloads.
        """
        plans = []
        for ev in events:
            if isinstance(ev, tuple):
                lrank, rid, at = ev
            else:
                lrank, rid, at = ev.logical_rank, ev.replica_id, ev.time
            plans.append(self.kill_at(lrank, rid, at))
        return plans

    def _fire(self, plan: CrashPlan) -> None:
        if plan.fired:
            return
        plan.fired = True
        self.manager.crash_replica(plan.logical_rank, plan.replica_id)
