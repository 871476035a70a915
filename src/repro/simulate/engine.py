"""The discrete-event simulation kernel.

This module provides the :class:`Simulator` (virtual clock + event heap)
and :class:`Process` (a generator-based coroutine suspended on events).
Everything above it in the stack — the network model, the simulated MPI,
the replication layer and the intra-parallelization runtime — is written
as processes that ``yield`` events.

Determinism
-----------
Events scheduled for the same virtual time are processed in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
is a pure function of its inputs.  Reproduction experiments rely on this:
re-running a failure-injection scenario replays the identical interleaving
(``tests/simulate/test_determinism.py`` pins a golden trace).

Performance
-----------
:meth:`Simulator.run` is the one event loop: it pops, processes and
runs callbacks inline, and :meth:`Process._resume` reads event slots
directly instead of going through properties.  A trace hook is one call
per processed event inside that same loop, so a traced run executes
exactly the code an untraced one does.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return "done at %g" % sim.now
>>> p = sim.process(hello(sim))
>>> sim.run()
>>> p.value
'done at 3'
"""

from __future__ import annotations

import heapq
import inspect
import typing as _t

from .errors import (DeadlockError, NotProcessError, ProcessKilled,
                     SimulationError, UnhandledFailure)
from .events import (_PENDING, _PROCESSED, _TRIGGERED, AllOf, AnyOf, Event,
                     Timeout)


def get_engine_backend() -> str:
    """Name of the engine executing every :class:`Simulator`, as
    recorded in run provenance: always ``"python"`` — the heap engine
    of this module is the only one."""
    return "python"


_INF = float("inf")

#: what :meth:`Simulator.process` accepts: a generator yielding
#: :class:`Event`\ s; the sent/returned sides stay ``Any`` (an event's
#: value is model-defined)
ProcessBody = _t.Generator[Event, _t.Any, _t.Any]


class Simulator:
    """Virtual clock and event queue.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, event)`` invoked for every
        processed event, after its callbacks ran; used by tests that
        assert on protocol traces (e.g. the Figure 1 message/compute
        pattern).  It only observes: the run is the same with or
        without it.
    """

    def __init__(self, trace: _t.Optional[_t.Callable[[float, Event], None]] = None
                 ) -> None:
        self.now: float = 0.0
        self._heap: _t.List[_t.Tuple[float, int, Event]] = []
        self._seq = 0
        self._trace = trace
        #: live (not yet terminated) processes, used for deadlock detection
        self._active_processes: _t.Set["Process"] = set()

    # -- event construction helpers --------------------------------------
    def event(self, label: str = "") -> Event:
        """A fresh pending event, to be triggered by model code."""
        return Event(self, label=label)

    def timeout(self, delay: float, value: _t.Any = None,
                label: str = "") -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, label=label)

    def all_of(self, events: _t.Sequence[Event], label: str = "") -> AllOf:
        """Fires when all ``events`` fired (cf. ``MPI_Waitall``)."""
        return AllOf(self, events, label=label)

    def any_of(self, events: _t.Sequence[Event], label: str = "") -> AnyOf:
        """Fires when the first of ``events`` fires (cf. ``MPI_Waitany``)."""
        return AnyOf(self, events, label=label)

    def process(self, body: "ProcessBody", name: str = "") -> "Process":
        """Register a generator as a new simulated process."""
        return Process(self, body, name=name)

    # -- kernel ------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: _t.Optional[float] = None,
            detect_deadlock: bool = False) -> None:
        """Run until the queue drains or ``until`` is reached.

        With ``detect_deadlock=True``, raise :class:`DeadlockError` if the
        queue drains while registered processes are still alive — the
        standard failure mode of an unmatched ``recv``.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        heappop = heapq.heappop
        trace = self._trace
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            time, _seq, event = heappop(heap)
            self.now = time
            event._state = _PROCESSED
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                waiter(event)
            cbs = event.callbacks
            if cbs is not None:
                event.callbacks = None
                for cb in cbs:
                    cb(event)
            if trace is not None:
                trace(time, event)
            if event._exc is not None and not event.defused:
                raise UnhandledFailure(event._exc)
        if until is not None:
            self.now = until
        if detect_deadlock and self._active_processes:
            waiting = ", ".join(sorted(p.name for p in self._active_processes))
            raise DeadlockError(
                f"event queue drained but processes still waiting: {waiting}")


class Process(Event):
    """A coroutine driven by the simulator.

    A process body is a generator that yields :class:`Event` objects; the
    process suspends until each yielded event fires, receiving the event's
    value as the result of the ``yield`` (or the event's exception raised
    at the ``yield``).  The :class:`Process` itself is an event that fires
    when the body returns — ``yield other_process`` is a *join*.

    Crash injection: :meth:`kill` terminates the process at the current
    virtual time.  The process event *fails* with :class:`ProcessKilled`
    (defused, so an unobserved crash does not abort the run) and a
    ``GeneratorExit`` is thrown into the body so ``finally`` blocks run.
    """

    __slots__ = ("body", "name", "_waiting_on", "_killed", "_resume_cb")

    def __init__(self, sim: Simulator, body: "ProcessBody",
                 name: str = "") -> None:
        if not inspect.isgenerator(body):
            raise NotProcessError(
                f"process body must be a generator, got {type(body).__name__}")
        super().__init__(sim, label=name or "process")
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self._waiting_on: _t.Optional[Event] = None
        self._killed = False
        #: the bound resume method, created once — registering a fresh
        #: bound method per wait would allocate on every suspension and
        #: break identity-based deregistration.
        self._resume_cb = self._resume
        sim._active_processes.add(self)
        # Bootstrap: start executing at the current time.
        start = Event(sim, label=f"start:{self.name}")
        start._waiter = self._resume_cb
        start.succeed()

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the body has not returned and was not killed."""
        return self._state == _PENDING

    @property
    def killed(self) -> bool:
        """True if the process was terminated by :meth:`kill`."""
        return self._killed

    # -- crash injection ---------------------------------------------------
    def kill(self, reason: str = "killed") -> None:
        """Terminate the process now (crash-stop fault injection).

        Idempotent; killing a terminated process is a no-op.  The body's
        ``finally`` blocks run (via ``GeneratorExit``), the process event
        fails with :class:`ProcessKilled` and is defused.

        Self-kill: if the process is killed from within its own stack
        (e.g. a fault injector subscribed to a protocol hook the process
        just emitted), :class:`ProcessKilled` is raised *through the
        caller* — it propagates up the victim's frames (running their
        ``finally`` blocks) until the kernel completes the kill.  Code
        between the victim and the kernel must not swallow it.
        """
        if self._state != _PENDING:
            return
        if getattr(self.body, "gi_running", False):
            self._killed = True
            raise ProcessKilled(reason)
        self._killed = True
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._resume_cb)
            self._waiting_on = None
        self.body.close()
        self.sim._active_processes.discard(self)
        self.defused = True
        self.fail(ProcessKilled(reason))

    # -- kernel ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:  # killed while the wake-up was in flight
            return
        self._waiting_on = None
        body = self.body
        try:
            exc = event._exc
            if exc is not None:
                event.defused = True
                target = body.throw(exc)
            else:
                target = body.send(event._value if event is not self else None)
        except StopIteration as stop:
            self.sim._active_processes.discard(self)
            self.succeed(stop.value)
            return
        except ProcessKilled:
            # A body may re-raise the kill of a subprocess it joined on;
            # treat as its own crash.
            self.sim._active_processes.discard(self)
            self._killed = True
            self.defused = True
            self.fail(ProcessKilled(f"{self.name}: propagated kill"))
            return
        # Fast path: a freshly created (triggered, unwaited) Timeout —
        # the overwhelmingly common "yield sim.timeout(dt)" case.
        if (type(target) is Timeout and target._state == _TRIGGERED
                and target._waiter is None):
            target._waiter = self._resume_cb
            self._waiting_on = target
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event objects (did you forget a .request()/.recv()?)")
        if target._state == _PROCESSED:
            # Already fired: resume immediately (via a zero-delay event to
            # preserve run-to-completion semantics per event).
            bounce = Event(self.sim, label=f"bounce:{self.name}")
            bounce._waiter = self._resume_cb
            if target._exc is not None:
                target.defused = True
                bounce.defused = True
                bounce.fail(target._exc)
            else:
                bounce.succeed(target._value)
            self._waiting_on = bounce
        else:
            target.add_callback(self._resume_cb)
            self._waiting_on = target
