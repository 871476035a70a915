"""Deterministic discrete-event simulation kernel (system S1).

This package is the foundation of the reproduction: simulated MPI ranks,
replicas and the intra-parallelization runtime are all generator-based
:class:`~repro.simulate.engine.Process` coroutines advancing a shared
virtual clock.  The event queue is the heap of
:mod:`repro.simulate.engine`; every simulation result is defined by it.
"""

from .engine import Process, Simulator, get_engine_backend
from .errors import (DeadlockError, NotProcessError, ProcessKilled,
                     SimulationError, StaleEventError, UnhandledFailure)
from .events import AllOf, AnyOf, ConditionError, Event, Timeout
from .resources import Resource, Store

__all__ = [
    "AllOf", "AnyOf", "ConditionError", "DeadlockError", "Event",
    "NotProcessError", "Process", "ProcessKilled", "Resource",
    "SimulationError", "Simulator", "StaleEventError", "Store", "Timeout",
    "UnhandledFailure", "get_engine_backend",
]
