"""Smoke check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload in-process with tiny blocks, untraced and traced, and
checks that each reports every metric BENCHMARK.json names, with its unit,
and no failure.  Then it corrupts a greedy-solve makespan, a dispatch
schedule and an oracle value in turn and checks that each lowers ok_frac.
Last, it runs run.py in a directory holding only BENCHMARK.json and the
benchmark, where it must fail without printing a result.  Exits 1 on the
first unmet expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys

import run


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)
    print(f"ok: {what}")


@contextlib.contextmanager
def patched(module, attr: str, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def tiny(wl, trace: bool, spec: dict) -> dict:
    return run.run_workload(wl, seed=0, seconds=0, trace=trace, spec=spec,
                            min_units=1, trace_min_units=1)


def main() -> int:
    run.pin_threads()
    run.import_package()
    import workloads as w
    from vg2s import bench, oracle, rules

    spec = run.load_spec()
    run.OUT.mkdir(exist_ok=True)
    eval_wl = w.Eval(run.OUT, pass_size=3)
    oracle_wl = w.Oracle(run.ROOT, library=w.ORACLE_LIBRARY[:1])
    suite = [w.PolicyTrain(block_epochs=2), w.ReprTrain(block_epochs=5), eval_wl, oracle_wl]

    for wl in suite:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = tiny(wl, trace, spec)
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == units, f"{wl.name} trace={int(trace)}: all {len(units)} {key} metrics with units")
            expect(res["correct"] and res["failed"] == 0, f"{wl.name} trace={int(trace)}: no failed unit")

    def off_by_one(solve):
        def corrupt(*args):
            st, c = solve(*args)
            return st, c + 1
        return corrupt

    def shifted(dispatch):
        def corrupt(inst, rule):
            st, c = dispatch(inst, rule)
            last = inst.num_ops - 1
            st.start[last] += 1
            st.end[last] += 1
            return st, c
        return corrupt

    def wrong_value(bnb):
        def corrupt(*args, **kwargs):
            res = bnb(*args, **kwargs)
            return dataclasses.replace(res, c_star=res.c_star - 1)
        return corrupt

    for module, attr, make, wl, what in (
        (bench, "solve_with_model", off_by_one, eval_wl, "greedy-solve makespan off by one"),
        (rules, "dispatch", shifted, eval_wl, "dispatch schedule with a shifted start"),
        (oracle, "branch_and_bound", wrong_value, oracle_wl, "oracle value one below the optimum"),
    ):
        with patched(module, attr, make):
            res = tiny(wl, False, spec)
        expect(res["metrics"]["ok_frac"]["value"] < 1.0 and not res["correct"],
               f"{what} lowers ok_frac")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "eval",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    printed = False
    if lines:
        with contextlib.suppress(json.JSONDecodeError):
            printed = isinstance(json.loads(lines[-1]), dict)
    expect(proc.returncode != 0 and not printed, "without src/ the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
