"""Self-tests of the benchmark: tiny smoke passes of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import typing as _t

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: pathlib.Path = ROOT
          ) -> subprocess.CompletedProcess[str]:
    """``perfbench/run.py`` of the checkout at ``root``, run from there."""
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=600)


def smoke(workload: str, trace: int = 0, root: pathlib.Path = ROOT
          ) -> _t.Dict[str, _t.Any]:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke", root=root)
    assert done.returncode == 0, done.stderr
    return _t.cast(_t.Dict[str, _t.Any],
                   json.loads(done.stdout.splitlines()[-1]))


def copy_bench(dest: pathlib.Path) -> pathlib.Path:
    """``BENCHMARK.json`` and ``perfbench/`` copied into ``dest``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    return dest


def test_benchmark_json_follows_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names + WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_prints_every_metric(workload: str, trace: int) -> None:
    out = smoke(workload, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    if trace:
        self_s = [v for k, v in values.items() if k.endswith(".self_s")]
        assert min(self_s) >= 0
        assert sum(self_s) == pytest.approx(values["traced.pass_s"],
                                            rel=0.01)
        assert values["trace_overhead"] > 0
    else:
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_digest_counts_as_failed(workload: str,
                                             tmp_path: pathlib.Path) -> None:
    root = copy_bench(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    reference = json.loads((HERE / "digests.json").read_text())
    corrupted = {k: ("1" if d[0] == "0" else "0") + d[1:]
                 for k, d in reference.items()}
    (root / "perfbench" / "digests.json").write_text(json.dumps(corrupted))
    out = smoke(workload, root=root)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_fails_without_the_program_sources(tmp_path: pathlib.Path) -> None:
    done = bench("--workload", "figures", "--seed", "0", "--seconds", "1",
                 "--trace", "0", root=copy_bench(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
