"""Cache legs over the *registered* generated grids.

The hypothesis matrix explores synthetic scenarios; this suite walks
the real ``grid:*`` catalog — a deterministic, evenly-strided sample
from every family — and runs each point fresh, cold-cached and warm,
asserting byte identity under one cache key.  It pins that the shipped
grid families stay inside the differential envelope as they grow.
"""

from __future__ import annotations

import itertools

import pytest

import oracle_matrix as om
from repro.scenarios import grid_entries

def _sampled_points():
    """An evenly-strided, deterministic sample of point names across
    all registered families, ``budget('grid_points')`` names total."""
    families = grid_entries()
    per_family = max(1, om.budget("grid_points") // max(1, len(families)))
    names = []
    for family in families:
        stride = max(1, family.size // per_family)
        names += itertools.islice(family.point_names(), 0, None, stride)
    return names[:max(om.budget("grid_points"), len(families))]


@pytest.mark.parametrize("name", _sampled_points())
def test_grid_point_identical_across_cache_legs(name, tmp_path):
    from repro.scenarios import get_scenario
    scenario = get_scenario(name)
    want = om.canonical(om.run_leg(scenario))
    for phase in ("cold", "warm"):
        got = om.run_leg(scenario, cache_dir=tmp_path)
        assert om.canonical(got) == want, om.describe(
            scenario, f"grid point {name}, {phase}")


def test_sample_spans_every_family():
    sampled = _sampled_points()
    families = {n.split("/", 1)[0] for n in sampled}
    assert families == {f"grid:{f.name}" for f in grid_entries()}
