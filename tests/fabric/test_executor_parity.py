"""One sweep, three executors: inline, a process pool and the fabric
report the same provenance and the same results for the same points."""

import threading

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.fabric import Fabric
from repro.fabric.worker import run_worker
from repro.scenarios import Scenario, scenario_cache_key

WARM = Scenario(app="hpccg_kernels",
                config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
                n_logical=2, mode="native")
COLD = WARM.replace(n_logical=4)
# the raising point of test_fabric_sweep.py's failure test
BAD = Scenario(app="no_such_app",
               config=KernelBenchConfig(nx=8, ny=8, nz=8, reps=1),
               n_logical=2, mode="native")
POINTS = [WARM, COLD, WARM, COLD, BAD]
ATTEMPTS = 3          # retries=2 locally, max_attempts=3 in the fabric


def _local(workers, root):
    repro.run(WARM, cache=True, cache_dir=root)
    return repro.sweep(POINTS, workers=workers, cache=True, cache_dir=root,
                       retries=ATTEMPTS - 1, backoff=0.0,
                       on_error="return")


def _fabric(root):
    with Fabric(root, backend="sqlite", poll=0.01, max_attempts=ATTEMPTS,
                backoff=0.0) as fab:
        fab.enqueue_scenario(WARM)
        fab.drain()
        # one run of COLD plus every attempt at BAD, then the worker
        # stops on its own
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(fabric=fab, max_points=1 + ATTEMPTS), daemon=True)
        worker.start()
        rs = repro.sweep(POINTS, fabric=fab, timeout=60,
                         on_error="return")
        worker.join(timeout=60)
        assert not worker.is_alive()
    return rs


def _sweep(executor, root):
    if executor == "fabric":
        return _fabric(root)
    return _local(1 if executor == "inline" else 2, root)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _sweep("inline", tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("executor", ["inline", "pool", "fabric"])
def test_executors_agree(executor, reference, tmp_path):
    rs = _sweep(executor, tmp_path)
    w, c, b = (scenario_cache_key(s) for s in (WARM, COLD, BAD))
    assert {i: (r.ok, r.cache_hit, r.cache_key)
            for i, r in enumerate(rs)} == {
        0: (True, True, w), 1: (True, False, c), 2: (True, True, w),
        3: (True, True, c), 4: (False, False, b)}
    assert [r.to_json() for r in rs if r.ok] == [
        r.to_json() for r in reference if r.ok]
    assert rs[4].error.startswith("error:")
    assert rs[4].error.endswith(f"({ATTEMPTS} attempts)")
