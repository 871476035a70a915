"""Determinism regression for the engine loop.

The simulation kernel promises that a run is a pure function of its
inputs: events scheduled for the same virtual time process in scheduling
order, so re-running a failure-injection scenario replays the identical
interleaving.  Every change to ``Simulator.run`` and the event
primitives (lazy callbacks, the single-waiter slot, the inlined loop)
must leave that ordering exactly as the seed engine produced it.

The scenario: HPCCG under intra-parallelization on two logical ranks,
with replica 1 of logical rank 0 crash-injected at ``CRASH_AT``.  That
time falls after the solve ends (~0.15 ms of virtual time), so the
trace covers a failure-free solve followed by the crash and its
failure detection; ``test_trace_parity.py`` crashes a replica
mid-solve.  Every processed event is recorded as ``(time, event type,
label)`` and the full stream is fingerprinted.

``golden_trace_failure.json`` was generated against the *seed* engine
(commit bb8776c) by running this file as a script::

    PYTHONPATH=src python tests/simulate/test_determinism.py --regen

so the test asserts bit-identical event interleaving between the seed
engine and today's.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.apps.hpccg import HpccgConfig, hpccg_program
from repro.intra import launch_intra_job
from repro.mpi import MpiWorld
from repro.netmodel import GRID5000_MACHINE, GRID5000_NETWORK, Cluster
from repro.replication import FailureInjector

GOLDEN = pathlib.Path(__file__).parent / "golden_trace_failure.json"

#: crash replica 1 of logical rank 0 at this virtual time (after the
#: solve; the golden trace was recorded with it)
CRASH_AT = 0.002


def run_scenario():
    """Run the failure-injection scenario; return (trace, results).

    ``trace`` is a list of ``[time_repr, type_name, label]`` triples, one
    per processed event, in processing order.
    """
    trace = []

    def record(time, event):
        trace.append([repr(time), type(event).__name__, event.label])

    config = HpccgConfig(nx=4, ny=4, nz=8, max_iter=3,
                         intra_kernels=frozenset({"ddot", "spmv"}))
    world = MpiWorld(Cluster(4, GRID5000_MACHINE), GRID5000_NETWORK,
                     trace=record)
    job = launch_intra_job(world, hpccg_program, 2, args=(config,))
    FailureInjector(job.manager).kill_at(0, 1, CRASH_AT)
    world.run()
    values = [[info.app_process.value.value
               for info in row if info.alive]
              for row in job.manager.replicas]
    return trace, values


def fingerprint(trace):
    blob = "\n".join(":".join(entry) for entry in trace)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_trace_matches_seed_golden():
    """The engine replays the seed engine's exact event interleaving
    (count, per-event type/label/time, final clock)."""
    golden = json.loads(GOLDEN.read_text())
    trace, values = run_scenario()
    assert len(trace) == golden["n_events"]
    assert fingerprint(trace) == golden["sha256"]
    # head and tail spot checks make a mismatch debuggable
    assert trace[:10] == golden["head"]
    assert trace[-10:] == golden["tail"]
    assert repr(values) == golden["values_repr"]


def test_trace_is_replayable():
    """Two runs of the same scenario are bit-identical event-for-event."""
    trace_a, values_a = run_scenario()
    trace_b, values_b = run_scenario()
    assert trace_a == trace_b
    assert repr(values_a) == repr(values_b)


if __name__ == "__main__":
    import sys

    trace, values = run_scenario()
    payload = {
        "scenario": "hpccg intra 2 logical ranks, kill (0,1) at %r"
                    % CRASH_AT,
        "n_events": len(trace),
        "sha256": fingerprint(trace),
        "head": trace[:10],
        "tail": trace[-10:],
        "values_repr": repr(values),
    }
    if "--regen" in sys.argv:
        GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {GOLDEN} ({payload['n_events']} events)")
    else:
        print(json.dumps(payload, indent=2))
