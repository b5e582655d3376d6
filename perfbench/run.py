"""Benchmark of the impurity-chain solver, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Workloads: presets, grid-pool, scatter (see README.md).

With --trace 0 the run measures set-up time (fresh interpreters), then runs
the workload in a child interpreter for at least S seconds of whole rounds,
and reports setup_s, results_per_s, op_ms_p50 and peak_rss_mb; the times are
scaled to a reference machine speed by a probe sampled while they are
measured (speed.py), and the unscaled ones go to standard error.  With
--trace 1 it runs the same rounds twice, untraced and traced, and reports the
per-layer metrics and the tracing overhead.  Either way every output is
checked against the independent reference in reference.py; the last line of
standard output is one JSON object, and the exit code is 0 only if every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import child
import reference
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# fresh starts measured before and after the timed run, after one discarded
# warm-up start; spreading them over the run evens out slow phases of the machine
SETUP_STARTS = 4
# a workload process runs whole rounds for --seconds; the longest round
# (presets) takes about 40 s
ROUND_ALLOWANCE = 150.0

_COLD_START = """\
import sys
sys.path.insert(0, {src!r})
import impurity_chain as ic
b = ic.measure_bundle(ic.ModelParams(**{par!r}))
print(repr(b.concurrence))
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cold_starts(par: dict, count: int) -> tuple[list, list, list]:
    """Wall times, times scaled by the probe, and printed concurrences of
    fresh `import impurity_chain` plus one evaluated point."""
    code = _COLD_START.format(src=SRC, par=par)
    times, spans, outputs = [], [], []
    with speed.Sampler() as sampler:
        for _ in range(count):
            t0 = time.perf_counter()
            probing = sampler.spent
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            t1 = time.perf_counter()
            times.append(t1 - t0 - (sampler.spent - probing))
            spans.append((t0, t1))
            if proc.returncode != 0:
                raise RuntimeError(f"cold start failed:\n{proc.stderr}")
            outputs.append(float(proc.stdout))
    scaled = [t * sampler.scale(t0, t1) for t, (t0, t1) in zip(times, spans)]
    return times, scaled, outputs


def run_child(spec: dict, workdir: str, tag: str, seconds: float) -> dict:
    spec_path = os.path.join(workdir, f"{tag}-spec.json")
    result_path = os.path.join(workdir, f"{tag}-result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path,
                           result_path], cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + ROUND_ALLOWANCE)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def _rerun_serial(outdir: str):
    """The grid-pool byte check: the same sweep at --workers 1, in this process."""
    sys.path.insert(0, SRC)
    from impurity_chain import cli

    def rerun(op: dict) -> str:
        out = os.path.join(outdir, op["name"] + "-serial.csv")
        if child._main_quiet(cli, child.sweep_argv(op, out, workers=1)) != 0:
            raise RuntimeError(f"serial rerun of {op['name']} failed")
        return out
    return rerun


def check(workload: str, ops: list, result: dict, outdir: str, rng) -> tuple[list, list]:
    """(problems, indices of scatter's fixed fault points that returned wrong values)."""
    problems = []
    miscomputed = []
    if not result["stable"]:
        problems.append("outputs or failures changed between rounds")
    if workload != "scatter" and result["failed"]:
        problems.append(f"{result['failed']} operations failed")
    values = result["values"]
    if workload == "presets":
        problems += checks.check_presets(ops, values, outdir, rng)
    elif workload == "grid-pool":
        problems += checks.check_grids(ops, values, outdir, _rerun_serial(outdir), rng)
    else:
        found, miscomputed = checks.check_scatter(ops, values, result["failures"])
        problems += found
    return problems, miscomputed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "impurity_chain", "__init__.py")):
        return _fail(f"no impurity_chain package under {SRC}")
    if args.workload not in workloads.GENERATORS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.GENERATORS)}")

    rng = random.Random(f"{args.workload}/{args.seed}")
    metrics = {}
    problems = []
    point = dict(J=1.0, Delta=rng.uniform(0.0, 2.0), J0=rng.uniform(0.5, 1.5),
                 gamma=rng.uniform(-0.9, 0.0), B=rng.uniform(0.0, 3.0),
                 T=rng.uniform(0.01, 1.0), **workloads.STD)
    setup_wall, setup_times, outputs = [], [], []
    if not args.trace:
        _, _, outputs = cold_starts(point, 1)
        setup_wall, setup_times, more = cold_starts(point, SETUP_STARTS)
        outputs += more

    ops = workloads.GENERATORS[args.workload](rng)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        outdir = os.path.join(workdir, "out")
        spec = {"src": SRC, "workload": args.workload, "ops": ops, "outdir": outdir,
                "seconds": args.seconds, "rounds": None, "trace": False}
        result = run_child(spec, workdir, "timed", args.seconds)
        found, miscomputed = check(args.workload, ops, result, outdir, rng)
        problems += found
        if args.trace:
            spec_traced = dict(spec, outdir=os.path.join(workdir, "traced"),
                               rounds=result["rounds"], trace=True, miscomputed=miscomputed)
            traced = run_child(spec_traced, workdir, "traced", args.seconds)
            if traced["values"] != result["values"]:
                problems.append("traced run gave different outputs")
            overhead = traced["elapsed"] - result["elapsed"]
            for name, (value, unit) in traced["layers"].items():
                metrics[name] = _metric(value, unit)
            metrics["trace.overhead_s"] = _metric(overhead, "s")
            metrics["trace.overhead_share"] = _metric(overhead / result["elapsed"], "ratio")
        else:
            wall, later, more = cold_starts(point, SETUP_STARTS)
            setup_wall += wall
            setup_times += later
            outputs += more
            metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
            metrics["results_per_s"] = _metric(child.results_per_s(result, miscomputed),
                                               "results/s")
            metrics["op_ms_p50"] = _metric(child.op_ms_p50(result, miscomputed), "ms")
            metrics["peak_rss_mb"] = _metric(result["peak_rss_mb"], "MB")
            unscaled = {
                "setup_s": statistics.median(setup_wall),
                "results_per_s": child.results_per_s(result, miscomputed, "round_seconds"),
                "op_ms_p50": child.op_ms_p50(result, miscomputed, "op_seconds"),
                "probe_ms_p50": result["probe_ms_p50"],
            }
            print(f"perfbench: unscaled: {json.dumps(unscaled)}", file=sys.stderr)
        want = reference.concurrence(reference.limit_state(point))
        if any(abs(v - want) > 1e-10 for v in outputs):
            problems.append(f"cold-start concurrence {outputs}, reference {want!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: WRONG: {problem}", file=sys.stderr)
    # a miscomputed fault point fails in every round, as the rounds agree
    failed = result["failed"] + result["rounds"] * len(miscomputed)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
