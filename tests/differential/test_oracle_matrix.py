"""The oracle matrix: random scenarios × fresh / cold-cached / warm
legs, all byte-identical under one cache key.

The fresh (uncached) run is the reference; the cold cached run that
writes the cache and the warm run that reads those bytes back must
reproduce its :class:`RunResult` JSON byte for byte and agree on the
scenario's cache key.  On failure, hypothesis shrinks the scenario and
the assertion message carries the exact
``python -m repro.experiments run --scenario-json`` command replaying
it.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings

import oracle_matrix as om


@settings(max_examples=om.budget("matrix"), deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(scenario=om.scenarios())
def test_matrix_all_legs_bit_identical(scenario):
    tmp = tempfile.mkdtemp(prefix="oracle-matrix-")
    try:
        # the reference: fresh, no cache anywhere
        fresh = om.run_leg(scenario)
        want = om.canonical(fresh)
        key = om.expected_cache_key(scenario)
        assert json.loads(want)["cache"]["key"] == key

        # the cold cached leg writes the cache dir; the warm leg reads
        # those bytes back — both must match the reference
        cold = om.run_leg(scenario, cache_dir=tmp)
        assert om.canonical(cold) == want, om.describe(scenario, "cold")
        warm = om.run_leg(scenario, cache_dir=tmp)
        assert om.canonical(warm) == want, om.describe(scenario, "warm")
        assert fresh.cache_key == cold.cache_key == warm.cache_key == key
        if fresh.ok:
            # failures are never cached, so hit provenance only
            # applies to successful runs
            assert warm.cache_hit is True, om.describe(
                scenario, "warm-miss")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ------------------------------------------------- harness meta-tests

def test_differential_profile_meets_the_standing_budget():
    # the acceptance floor: >= 200 generated scenarios per nightly run,
    # each across all cache legs; keep tier-1's smoke budget small
    assert om.PROFILES["differential"]["matrix"] >= 200
    assert om.PROFILES["smoke"]["matrix"] <= 20
    for name, budgets in om.PROFILES.items():
        assert set(budgets) == set(om.PROFILES["smoke"]), name


def test_unknown_profile_falls_back_to_smoke(monkeypatch, recwarn):
    monkeypatch.setenv("REPRO_FUZZ_PROFILE", "nightlyy")
    assert om.active_profile() == "smoke"
    assert any("REPRO_FUZZ_PROFILE" in str(w.message) for w in recwarn)
    monkeypatch.setenv("REPRO_FUZZ_PROFILE", "differential")
    assert om.active_profile() == "differential"
    monkeypatch.delenv("REPRO_FUZZ_PROFILE")
    assert om.active_profile() == "smoke"


def test_repro_command_replays_a_leg_verbatim():
    import shlex

    from repro.scenarios import Scenario

    scenario = Scenario(app="stepsum", config=om.TINY_STEPSUM,
                        n_logical=2, mode="intra")
    cmd = om.repro_command(scenario)
    assert cmd.startswith("python -m repro.experiments run ")
    assert "--scenario-json" in cmd
    # the embedded JSON round-trips to the same scenario
    payload = cmd.split("--scenario-json ", 1)[1].rsplit(
        " --format", 1)[0]
    assert Scenario.from_json(shlex.split(payload)[0]) == scenario
