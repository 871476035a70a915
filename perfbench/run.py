"""The repository's end-to-end, layer-attributed benchmark.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Runs one workload (``figures``, ``failure-storms``, ``result-service``;
see ``workloads.py``) from the root of a source checkout.  With
``--trace 0`` it times set-up, a cold pass and a fixed number of warm
passes (at least ``--seconds`` of them at the commit that introduced
the benchmark), and reports the end-to-end metrics.  With
``--trace 1`` it runs a cold and an untraced warm pass, installs the
layer tracer (``tracer.py``) and reports the per-layer metrics of one
traced pass.  Every result is checked against ``digests.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table with units and sample counts.  The full record
(provenance, extra figures, trace) is written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, OTHER, Tracer  # noqa: E402

#: set-ups per run (one in this process, the rest in fresh processes
#: started between warm passes);
#: ``setup_s`` is their median
SETUP_REPEATS = 7
#: the traced pass's ``*.self_s`` must add up to its wall time this closely
SELF_TIME_TOLERANCE = 0.01

Metric = _t.Tuple[float, str, int]   # value, unit, sample count


def percentile(values: _t.Sequence[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def provenance() -> _t.Dict[str, _t.Any]:
    """What the numbers were measured on, and with which settings."""
    import numpy
    from repro.simulate import get_engine_backend
    toggles = {k: v for k, v in sorted(os.environ.items())
               if k.startswith("REPRO_")}
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit,
            "src_sha256": tree.hexdigest(),
            "engine": get_engine_backend(),
            "toggles": toggles,
            "label": ("defaults" if not toggles else "toggles " + ",".join(
                f"{k}={v}" for k, v in toggles.items()))}


def child_setup(args: argparse.Namespace) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                          capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def end_to_end(wl: workloads.Workload, setups: _t.List[float],
               passes: _t.List[workloads.PassResult]) -> _t.Dict[str, Metric]:
    """The fastest of the fixed number of warm passes: its wall time,
    its verified operations per second and, on ``figures`` and
    ``failure-storms``, its operation latencies.  ``result-service``
    pools the latencies of every warm pass, so that at least ten lie
    beyond ``op_p99_ms``.

    The median pass (printed beside it as ``median_pass_s``) spread from
    run to run beyond the 0.25 bound on a shared 2-core host, where the
    fastest pass stayed inside it."""
    warm = passes[1:]
    best = min(warm, key=lambda p: p.wall_s)
    ops = ([ms for p in warm for ms in p.op_ms]
           if isinstance(wl, workloads.ResultService) else best.op_ms)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (best.wall_s, "s", len(warm)),
        "ops_per_s": ((best.attempted - best.failed) / best.wall_s, "1/s",
                      len(warm)),
        "op_p50_ms": (percentile(ops, 50), "ms", len(ops)),
        "op_p90_ms": (percentile(ops, 90), "ms", len(ops)),
        "op_p99_ms": (percentile(ops, 99), "ms", len(ops)),
        "peak_rss_mb": (wl.rss_mb(), "MB", 1),
    }


def extras(wl: workloads.Workload, passes: _t.List[workloads.PassResult],
           warm: _t.List[workloads.PassResult]) -> _t.Dict[str, Metric]:
    """Summary-table figures kept out of ``metrics``: the subtotals and
    ``failed_frac`` are zero on some workloads, and one cold pass or the
    median pass spreads too much from run to run to gate on.  ``warm``
    are the untraced warm passes; the subtotals are of the fastest."""
    attempted = sum(p.attempted for p in passes)
    best = min(warm, key=lambda p: p.wall_s)
    out: _t.Dict[str, Metric] = {
        "cold_pass_s": (passes[0].wall_s, "s", 1),
        "median_pass_s": (statistics.median(p.wall_s for p in warm), "s",
                          len(warm)),
        "failed_frac": (sum(p.failed for p in passes) / attempted, "ratio",
                        attempted)}
    if isinstance(wl, workloads.Figures):
        names = [n for n, _s, _k in wl.points]
        for group, prefixes in workloads.GROUPS.items():
            out[group] = (sum(ms for n, ms in zip(names, best.op_ms)
                              if n.startswith(prefixes)) / 1e3, "s", 1)
    return out


def per_layer(snap: _t.Dict[str, _t.Dict[str, float]],
              traced: workloads.PassResult, base: workloads.PassResult,
              server: bool) -> _t.Dict[str, Metric]:
    """The traced pass's per-layer metrics.

    In this process ``other.self_s`` is the time the tracer measured
    outside every layer span, and :func:`check_self_times` holds the
    ``*.self_s`` to the pass's wall time.  ``result-service`` is traced in
    the server, in per-thread CPU time, so there ``other.self_s`` is the
    client's wall time minus the server's CPU time in layer spans."""
    self_s, calls, sums = snap["self_s"], snap["calls"], snap["sums"]
    out: _t.Dict[str, Metric] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s", 1)
        out[f"{layer}.calls"] = (float(calls.get(layer, 0)), "count", 1)
    out["other.self_s"] = (
        traced.wall_s - sum(self_s.get(layer, 0.0) for layer in LAYERS)
        if server else self_s.get(OTHER, 0.0), "s", 1)

    def total(key: str) -> float:
        return float(sum(float(r.intra.get(key, 0.0))
                         for r in traced.simulated))
    executed = total("tasks_executed")
    handled = sums.get("fabric.serve_handler_s.n", 0.0)
    handler_ms = (1e3 * sums.get("fabric.serve_handler_s", 0.0) / handled
                  if handled else 0.0)
    n = len(traced.simulated)
    counts: _t.Dict[str, _t.Tuple[float, str]] = {
        "kernels.flops": (sums.get("kernels.flops", 0.0), "flop"),
        "kernels.bytes": (sums.get("kernels.bytes", 0.0), "B"),
        "intra.sections": (total("sections"), "count"),
        "intra.tasks": (executed, "count"),
        "intra.update_bytes": (total("update_bytes_sent"), "B"),
        "intra.copy_bytes": (total("copy_bytes"), "B"),
        "mpi.msgs": (sums.get("mpi.msgs", 0.0), "count"),
        "mpi.bytes": (sums.get("mpi.bytes", 0.0), "B"),
        "netmodel.transfers": (sums.get("netmodel.transfers", 0.0),
                               "count"),
        "replication.crashes": (float(sum(len(r.crashes)
                                          for r in traced.simulated)),
                                "count"),
        "replication.replays": (total("recoveries"), "count"),
        "replication.restarts": (total("restarts_completed"), "count"),
        "replication.reexec_ratio": (
            total("tasks_reexecuted") / executed if executed else 0.0,
            "ratio"),
        "scenarios.materialize_s": (sums.get("scenarios.materialize_s",
                                             0.0), "s"),
        "fabric.queue_s": (sums.get("fabric.queue_s", 0.0), "s"),
        "fabric.store_put_s": (sums.get("fabric.store_put_s", 0.0), "s"),
        "fabric.store_get_s": (sums.get("fabric.store_get_s", 0.0), "s"),
        "fabric.hit_ratio": (traced.hits / traced.attempted, "ratio"),
        "fabric.serve_handler_ms": (handler_ms, "ms"),
        "fabric.serve_wait_ms": (
            statistics.fmean(traced.op_ms) - handler_ms if handled else 0.0,
            "ms"),
        "traced.pass_s": (traced.wall_s, "s"),
        "trace_overhead": (traced.wall_s / base.wall_s, "ratio"),
    }
    for name, (value, unit) in counts.items():
        out[name] = (float(value), unit, n if name.startswith(
            ("intra.", "replication.")) else 1)
    return out


def check_self_times(metrics: _t.Dict[str, Metric]) -> None:
    """Raise unless every ``*.self_s`` is >= 0 and they add up to the
    traced pass time (a span counted twice or missed shows here)."""
    self_s = {k: v for k, (v, _u, _n) in metrics.items()
              if k.endswith(".self_s")}
    wall = metrics["traced.pass_s"][0]
    negative = sorted(k for k, v in self_s.items() if v < 0)
    if negative or abs(sum(self_s.values()) - wall) > \
            SELF_TIME_TOLERANCE * wall:
        raise RuntimeError(f"layer self times {self_s} do not add up to "
                           f"the traced pass time {wall} s")


def measure(wl: workloads.Workload, args: argparse.Namespace,
            setups: _t.List[float], repeats: int) -> _t.Tuple[
                _t.Dict[str, Metric], _t.Dict[str, Metric],
                _t.List[workloads.PassResult], _t.Dict[str, _t.Any]]:
    """Run the passes; returns (metrics, extras, passes, trace)."""
    passes = [wl.run_pass()]
    if not args.trace:
        # set-up children run between warm passes, so their median
        # samples the host over the whole run
        for _ in range(math.ceil(args.seconds / wl.nominal_pass_s)):
            passes.append(wl.run_pass())
            if len(setups) < repeats:
                setups.append(child_setup(args))
        setups += [child_setup(args) for _ in range(repeats - len(setups))]
        return (end_to_end(wl, setups, passes),
                extras(wl, passes, passes[1:]), passes, {})
    base = wl.run_pass()
    passes.append(base)
    if isinstance(wl, workloads.ResultService):
        wl.close()
        wl.boot(traced=True)
        passes.append(wl.run_pass())   # warm the traced server
        wl.control("reset")
        traced = wl.timed_pass()
        snap = wl.control("trace")
    else:
        tracer = Tracer()
        tracer.install()
        tracer.reset()
        traced = wl.timed_pass()
        snap = tracer.snapshot()
    passes.append(wl.verify(traced))
    metrics = per_layer(snap, traced, base,
                        server=isinstance(wl, workloads.ResultService))
    check_self_times(metrics)
    return metrics, extras(wl, passes, [base]), passes, snap


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: grid sample and request mix")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure about this long: sets the number of "
                             "warm passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny point sets and one set-up, for the "
                             "self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    repeats = 1 if args.smoke or args.trace or args.setup_only \
        else SETUP_REPEATS
    try:
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                                args.smoke)
        wl.reference = digests.load()
        try:
            wl.setup()
            setups = [time.perf_counter() - t0]
            if args.setup_only:
                print(json.dumps({"setup_s": setups[-1]}))
                return 0
            print(f"# {args.workload}: {len(wl.points)} points, seed "
                  f"{args.seed}", flush=True)
            metrics, more, passes, snap = measure(wl, args, setups,
                                                  repeats)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit, n) in {**metrics, **more}.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} n={n}")
    for line in errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": prov,
              "points": [n for n, _s, _k in wl.points],
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in {**metrics, **more}.items()},
              "passes": [{"wall_s": p.wall_s, "op_ms": p.op_ms}
                         for p in passes],
              "errors": errors, "spans": snap}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _n) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
