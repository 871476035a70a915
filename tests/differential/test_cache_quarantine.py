"""Cache corruption inside the differential matrix.

The warm-cache leg trusts on-disk bytes; this suite corrupts the one
shard a scenario hashes to *mid-matrix* and asserts the sweep layer
quarantines it (``<key>.corrupt`` + RuntimeWarning), recomputes
bit-identically, rewrites the shard, and goes back to clean warm hits.
"""

from __future__ import annotations

import warnings

import pytest

import oracle_matrix as om
from repro.scenarios import Scenario


@pytest.fixture
def scenario():
    return Scenario(app="stepsum", config=om.TINY_STEPSUM, n_logical=2,
                    mode="intra")


def _shard(cache_dir, key):
    return cache_dir / key[:2] / f"{key}.pkl"


def test_corrupt_shard_quarantined_and_recomputed_identically(
        scenario, tmp_path):
    key = om.expected_cache_key(scenario)
    reference = om.run_leg(scenario, cache_dir=tmp_path)
    want = om.canonical(reference)
    shard = _shard(tmp_path, key)
    assert shard.is_file()

    # mid-matrix corruption: clobber the shard, then run the warm leg —
    # it must quarantine the shard, recompute and still match
    shard.write_bytes(b"not a pickle")
    quarantined = shard.with_suffix(".corrupt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = om.run_leg(scenario, cache_dir=tmp_path)
    assert om.canonical(first) == want, om.describe(
        scenario, "post-corruption recompute")
    assert quarantined.is_file()
    assert quarantined.read_bytes() == b"not a pickle"
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    # the recompute rewrote the shard: the next run reads it warm,
    # silently, and byte-identically
    assert shard.is_file()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = om.run_leg(scenario, cache_dir=tmp_path)
    assert om.canonical(warm) == want, om.describe(
        scenario, "post-recovery warm")
    assert warm.cache_hit is True


def test_failed_runs_never_reach_the_cache(tmp_path):
    # a schedule harsh enough to exhaust every replica fails the run;
    # the failure must not be written, so the next run recomputes (and
    # fails identically) rather than serving a poisoned hit
    from repro.scenarios import FixedFailures

    doomed = Scenario(
        app="stepsum", config=om.TINY_STEPSUM, n_logical=2, mode="intra",
        failures=FixedFailures(((0, 0, 1e-6), (0, 1, 2e-6))))
    first = om.run_leg(doomed, cache_dir=tmp_path)
    assert not first.ok
    assert not _shard(tmp_path, om.expected_cache_key(doomed)).exists()
    again = om.run_leg(doomed, cache_dir=tmp_path)
    assert om.canonical(again) == om.canonical(first)
    assert again.cache_hit is False
