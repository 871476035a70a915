"""Reference digests: sha256 of each point's canonical ``RunResult``
JSON (sorted keys, the ``cache`` provenance field removed), keyed by the
point's scenario cache key.

``digests.json`` was recorded once from the commit that introduced the
benchmark and covers every point any workload seed can draw.  Every
simulated or served result is checked against it; a mismatch, or a point
without a reference, counts as a failed operation.  Re-recording is an
explicit step, and its effect shows in the diff of ``digests.json``::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT = HERE / "digests.json"


def of_dict(data: _t.Mapping[str, _t.Any]) -> str:
    canonical = {k: v for k, v in data.items() if k != "cache"}
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def of_result(result: _t.Any) -> str:
    return of_dict(result.to_dict())


def of_json(body: bytes) -> str:
    return of_dict(json.loads(body))


def load() -> _t.Dict[str, str]:
    return _t.cast(_t.Dict[str, str], json.loads(DEFAULT.read_text()))


def record() -> int:
    """Simulate every point of every workload's universe and write the
    digests; returns the number of points."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro
    import workloads
    repro.api._ensure_registry()
    universe = {k: s for _n, s, k in
                workloads.figure_points() + workloads.storm_universe()}
    out = {key: of_result(repro.run(universe[key], cache=False))
           for key in sorted(universe)}
    DEFAULT.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return len(out)


if __name__ == "__main__":
    print(f"recorded {record()} digests to {DEFAULT}")
