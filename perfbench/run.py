"""Seeded, single-process, closed-loop benchmark of vg2s.

    python3 perfbench/run.py --workload policy-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0

One invocation sets up and measures one workload in its own process and
prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  `--all` runs every workload both ways in
child processes, prints every metric with its unit and writes
perfbench/out/results-seed<N>.json with the host description.

The package is imported from src/ of the checkout this file sits in; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_UNITS = 100        # a p90 needs at least ten samples beyond it
TRACE_MIN_UNITS = 10   # per phase of a traced run
SETUP_REPEATS = 5      # setup_s is the median of at least this many set-ups
SETUP_SECONDS = 2.0    # ... and of as many as fit in this time
MAX_SECONDS = 75       # hard stop for one measuring phase; a traced run has two


def pin_threads() -> None:
    """One BLAS/OpenMP thread.  Must run before numpy is first imported:
    OpenBLAS sizes its thread pool when it loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Put the checkout's src/ first on the path and check vg2s comes from it."""
    src = ROOT / "src"
    if not (src / "vg2s" / "__init__.py").is_file():
        raise SystemExit(f"error: no vg2s package under {src}")
    sys.path.insert(0, str(src))
    import vg2s
    if Path(vg2s.__file__).resolve().parent != (src / "vg2s").resolve():
        raise SystemExit(f"error: vg2s imported from {vg2s.__file__}, not {src}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_info() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def make_workloads() -> dict:
    import workloads as w
    return {wl.name: wl for wl in (w.PolicyTrain(), w.ReprTrain(),
                                   w.Eval(OUT), w.Oracle(ROOT))}


def measure(wl, state, rec, seconds: float, min_units: int) -> tuple[int, int]:
    """Run whole blocks until `seconds` have passed and `min_units` units
    were timed, or MAX_SECONDS passed."""
    attempted = failed = 0
    first = len(rec.units)
    t0 = time.perf_counter()
    while True:
        a, f = wl.block(state, rec)
        attempted += a
        failed += f
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(rec.units) - first >= min_units:
            break
        if elapsed >= MAX_SECONDS:
            break
    return attempted, failed


def end_to_end(rec, setups, attempted, failed) -> dict:
    import numpy as np
    ms = np.array(rec.unit_seconds(traced=False)) * 1e3
    return {
        "latency_ms.p50": float(np.percentile(ms, 50)),
        "latency_ms.p90": float(np.percentile(ms, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(names, rec, state) -> dict:
    """Per-layer values per traced unit.  `<span>.calls` counts calls and
    `<span>.s` / `<span>.self_s` is self time; both are per unit."""
    from spans import WRAPS
    spans = {name for _, name in WRAPS} | {"trainer.pool_refresh"}
    totals = rec.layer_totals()
    traced = rec.unit_seconds(traced=True)
    plain = rec.unit_seconds(traced=False)
    n = len(traced)
    unit = totals.get("unit", (0, 0.0, 1.0))
    bnb = totals.get("oracle.branch_and_bound", (0, 0.0, 0.0))
    special = {
        "autodiff.tape_nodes": rec.counts["autodiff.tape_nodes"] / n,
        "autodiff.tape_nodes_walked": rec.counts["autodiff.tape_nodes_walked"] / n,
        "oracle.nodes": rec.counts["oracle.nodes"] / n,
        "oracle.nodes_per_s": rec.counts["oracle.nodes"] / bnb[2] if bnb[2] else 0.0,
        "oracle.proven_frac": rec.counts["oracle.proven"] / n,
        "checkpoint.load_s": getattr(state, "load_s", 0.0),
        "checkpoint.bytes": getattr(state, "ckpt_bytes", 0),
        "trace.overhead_frac": statistics.fmean(traced) / statistics.fmean(plain) - 1.0,
        "trace.attributed_frac": 1.0 - unit[1] / unit[2],
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = float(special[name])
            continue
        span, _, kind = name.rpartition(".")
        if span not in spans or kind not in ("calls", "s", "self_s"):
            raise ValueError(f"per-layer metric {name!r} names no traced span")
        calls, self_s, _ = totals.get(span, (0, 0.0, 0.0))
        out[name] = (calls if kind == "calls" else self_s) / n
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool, spec: dict,
                 min_units: int = MIN_UNITS, trace_min_units: int = TRACE_MIN_UNITS,
                 spans_path: Path | None = None) -> dict:
    """Set up `wl` repeatedly, measure it and return the result object with
    the metrics BENCHMARK.json lists for this trace mode."""
    from spans import Recorder
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
    rec = Recorder()
    if not trace:
        attempted, failed = measure(wl, state, rec, seconds, min_units)
        values = end_to_end(rec, setups, attempted, failed)
        listed = spec["end_to_end"]
    else:
        a1, f1 = measure(wl, state, rec, 0.4 * seconds, trace_min_units)
        rec.install()
        try:
            a2, f2 = measure(wl, state, rec, 0.6 * seconds, trace_min_units)
        finally:
            rec.uninstall()
        attempted, failed = a1 + a2, f1 + f2
        listed = spec["per_layer"]
        values = per_layer([m["name"] for m in listed], rec, state)
        if spans_path is not None:
            rec.write(spans_path, {"workload": wl.name, "seed": seed, "host": host_info()})
    if set(values) != {m["name"] for m in listed}:
        raise ValueError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def run_all(seed: int, seconds: int, spec: dict) -> int:
    """Every workload, untraced then traced, each in a child process."""
    results = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            results[f"{wl['name']}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = True
    for key, res in results.items():
        ok &= res["correct"]
        print(f"== {key}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps({"seed": seed, "seconds": seconds, "host": host_info(),
                                "results": results}, indent=1))
    print(f"wrote {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    group.add_argument("--all", action="store_true", help="every workload, both trace modes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads()
    import_package()
    if args.all:
        return run_all(args.seed, args.seconds, spec)
    wl = make_workloads()[args.workload]
    OUT.mkdir(exist_ok=True)
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace), spec,
                          spans_path=OUT / f"spans-{args.workload}.jsonl")
    print("# host " + json.dumps(host_info()))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
