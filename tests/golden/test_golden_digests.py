"""Golden result digests: the committed oracle for "behaviour unchanged".

Every registered non-grid scenario and the ``failure-storms`` seed-0
grid sample of the benchmark are simulated fresh (``cache=False``) and
the sha256 of each canonical ``RunResult`` JSON is compared with the
digest recorded in ``perfbench/digests.json`` under the point's scenario
cache key.  A change that alters any simulated result — event order,
timing, statistics, values — fails here with the names of the points it
moved.  Re-recording the digests (``python3 perfbench/digests.py``) is
an explicit step whose diff reviewers see.

The point list is enumerated in a fresh interpreter, so scenarios and
grids that other tests register in this process do not leak into it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import typing as _t

import pytest

import repro
from repro.scenarios import Scenario, scenario_cache_key

ROOT = pathlib.Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import digests  # noqa: E402

#: prints {"registered": [[name, json]...], "storms": [...]} as the
#: package registers them, with nothing else imported
_ENUMERATE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repro.api, workloads
from repro.scenarios import scenario_entries
repro.api._ensure_registry()
print(json.dumps({
    "registered": [[e.name, e.scenario.to_json()]
                   for e in scenario_entries()],
    "storms": [[n, s.to_json()]
               for n, s, _k in workloads.storm_points(0, registered=False)],
}))
"""


@pytest.fixture(scope="module")
def points() -> _t.Dict[str, _t.List[_t.Tuple[str, Scenario]]]:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _ENUMERATE, str(PERFBENCH)],
        capture_output=True, text=True, env=env, check=True)
    raw = json.loads(done.stdout)
    return {group: [(name, Scenario.from_json(js)) for name, js in named]
            for group, named in raw.items()}


def _mismatches(named: _t.Iterable[_t.Tuple[str, Scenario]]
                ) -> _t.List[str]:
    reference = digests.load()
    seen: _t.Set[str] = set()
    bad = []
    for name, scenario in named:
        key = scenario_cache_key(scenario)
        if key in seen:
            continue
        seen.add(key)
        if key not in reference:
            bad.append(f"{name}: no recorded digest")
        elif (digests.of_result(repro.run(scenario, cache=False))
              != reference[key]):
            bad.append(f"{name}: digest differs")
    return bad


def test_registered_scenarios_match_golden_digests(points):
    assert len(points["registered"]) > 50
    assert _mismatches(points["registered"]) == []


def test_failure_storm_sample_matches_golden_digests(points):
    assert len(points["storms"]) > 50
    assert _mismatches(points["storms"]) == []
