"""Run one workload's operations in a fresh interpreter and time them.

    python3 child.py SPEC.json RESULT.json

SPEC holds the package's source directory, the operations, the output
directory, and either `seconds` (repeat whole rounds until at least that long
has passed) or `rounds` (repeat exactly that many).  While the untraced run
measures, the machine's speed is sampled (speed.py), and every operation and
round time is also kept scaled to the probe's reference speed.  With `trace` set, spans
are placed around the package's public functions before the first call, and
the per-layer metrics count results without the operations listed under
`miscomputed` (fixed fault points found wrong in the timed run).
The process writes RESULT and exits; its own peak resident memory is the
workload's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import zlib

import speed


def _elements(st) -> list:
    return [st.r11, st.r22, st.r33, st.r44, st.r23]


def csv_digest(path: str, root: str) -> list:
    """[path under root, CRC-32 and length of the bytes, data rows] of one
    written CSV.  (zlib is loaded with the package already; hashlib would add
    3.5 MB to the workload's peak memory.)"""
    with open(path, "rb") as fh:
        data = fh.read()
    return [os.path.relpath(path, root), f"{zlib.crc32(data):08x}-{len(data)}",
            data.count(b"\n") - 1]


def delivered(result: dict, skip=()) -> int:
    """Result rows of the successful calls, leaving out the operations in skip."""
    return sum(len(times) * rows for i, (times, rows)
               in enumerate(zip(result["op_seconds"], result["rows"])) if i not in skip)


# A shared machine runs the same code up to twice as slow for stretches of
# seconds to minutes: the times are scaled by the probe samples around them
# (speed.py), and medians over rounds damp what the probe misses.

def results_per_s(result: dict, skip=(), key: str = "round_scaled") -> float:
    """Results of one round over the median scaled time of a round; a failed
    operation takes time in its round and delivers nothing."""
    per_round = delivered(result, skip) / result["rounds"]
    return per_round / statistics.median(result[key])


def op_ms_p50(result: dict, skip=(), key: str = "op_scaled") -> float:
    """Median over the successful operations of each one's median scaled
    time over the rounds, leaving out the operations in skip."""
    times = [statistics.median(ts) for i, ts in enumerate(result[key])
             if ts and i not in skip]
    return 1e3 * statistics.median(times) if times else math.nan


class Workload:
    """Turns operation dicts into zero-argument calls into the package."""

    def __init__(self, ic, outdir: str):
        self.ic = ic
        self.cli = ic.cli
        self.outdir = outdir
        self.faults = (ic.OverflowRisk, ic.DegenerateGap)

    def prepare(self, op: dict):
        """(call, convert): convert turns the call's output into a JSON-ready
        value, and for calls that write CSVs into their digests."""
        ic, cli = self.ic, self.cli
        kind = op["kind"]
        p = ic.ModelParams(**op["params"]) if "params" in op else None
        if kind == "preset":
            out = os.path.join(self.outdir, op["name"])

            def digests(paths):
                return [csv_digest(path, self.outdir) for path in paths]
            return (lambda: cli.run_figure(op["name"], out, {}, workers=1)), digests
        if kind == "sweep":
            out = os.path.join(self.outdir, op["name"] + ".csv")
            argv = sweep_argv(op, out, workers=2)

            def digest(code):
                if code != 0:
                    raise RuntimeError(f"sweep exited with {code}")
                return [csv_digest(out, self.outdir)]
            return (lambda: _main_quiet(cli, argv)), digest
        if kind == "state":
            return (lambda: ic.impurity_density_matrix(p)), _elements
        if kind == "bundle":
            def bundle(b):
                return [b.concurrence, b.coherence_l1, b.sxsx, b.szsz, b.qfi, b.qfi_dB]
            return (lambda: ic.measure_bundle(p, with_derivative=True)), bundle
        if kind == "teleport":
            channel = ic.XState(**op["channel"])
            inp = ic.InputState(theta=op["theta"], phi=op["phi"])

            def teleported(t):
                flat = [[z.real, z.imag] for row in t.matrix.tolist() for z in row]
                return [t.c, t.f, t.g, t.kappa.real, t.kappa.imag, flat]
            return (lambda: ic.teleport_output(channel, inp)), teleported
        if kind == "ring":
            return (lambda: ic.finite_n_density_matrix(p, op["n"])), _elements
        if kind == "logz":
            return (lambda: ic.partition_function(p, op["n"])), float
        raise ValueError(f"unknown operation kind {kind!r}")


def sweep_argv(op: dict, out: str, workers: int) -> list:
    """The `sweep` command line for a grid operation."""
    argv = ["sweep"]
    for key, value in op["params"].items():
        argv += ["--set", f"{key}={value!r}"]
    for key, (name, start, stop, count) in zip(("axis", "axis2"), op["axes"]):
        argv += ["--set", f"{key}={name} {start!r} {stop!r} {count}"]
    argv += ["--set", f"quantities={op['quantities']}", "--out", out,
             "--workers", str(workers)]
    return argv


def _main_quiet(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import impurity_chain as ic
    import impurity_chain.cli  # noqa: F401  (run_figure, main)
    if not os.path.abspath(ic.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise RuntimeError(f"imported {ic.__file__}, not the package under {spec['src']}")

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    work = Workload(ic, spec["outdir"])
    ops = spec["ops"]
    prepared = [work.prepare(op) for op in ops]
    catch = work.faults if spec["workload"] == "scatter" else ()
    first: list = [None] * len(ops)
    first_failures: list = []
    op_seconds: list = [[] for _ in ops]
    op_starts: list = [[] for _ in ops]
    rounds_at: list = []         # [start, end, wall time less probe time]
    rows: list = [1] * len(ops)
    attempted = failed = rounds = 0
    stable = True

    # the probe runs in the timed run only: spans would time it as the package's
    sampler = speed.Sampler()
    with contextlib.nullcontext() if tracer else sampler:
        start = time.perf_counter()
        start_probing = sampler.spent
        while True:
            round_start = time.perf_counter()
            round_probing = sampler.spent
            failures = []
            for i, (call, convert) in enumerate(prepared):
                if tracer:
                    tracer.next_op()
                attempted += 1
                t0 = time.perf_counter()
                probing = sampler.spent
                try:
                    out = call()
                except catch as exc:
                    failed += 1
                    failures.append([i, type(exc).__name__, str(exc)])
                else:
                    probed = sampler.spent - probing
                    op_seconds[i].append(time.perf_counter() - t0 - probed)
                    op_starts[i].append(t0)
                    value = convert(out)
                    if rounds == 0:
                        first[i] = value
                        if ops[i]["kind"] in ("preset", "sweep"):
                            rows[i] = sum(digest[2] for digest in value)
                    elif value != first[i]:
                        stable = False
            if rounds == 0:
                first_failures = failures
            elif [f[0] for f in failures] != [f[0] for f in first_failures]:
                stable = False
            rounds += 1
            round_end = time.perf_counter()
            rounds_at.append([round_start, round_end,
                              round_end - round_start - (sampler.spent - round_probing)])
            if spec.get("rounds"):
                if rounds >= spec["rounds"]:
                    break
            elif time.perf_counter() - start >= spec["seconds"]:
                break
        elapsed = time.perf_counter() - start - (sampler.spent - start_probing)
    if tracer:
        tracer.next_op()

    result = {
        "elapsed": elapsed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "op_seconds": op_seconds,
        "round_seconds": [net for _, _, net in rounds_at],
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "values": first,
        "failures": first_failures,
        "stable": stable,
    }
    if not tracer:
        result["op_scaled"] = [[t * sampler.scale(t0, t0 + t) for t0, t in zip(starts, times)]
                               for starts, times in zip(op_starts, op_seconds)]
        result["round_scaled"] = [net * sampler.scale(a, b) for a, b, net in rounds_at]
        result["probe_ms_p50"] = 1e3 * statistics.median(sampler.value)
    else:
        skip = set(spec.get("miscomputed", ()))
        result["layers"] = tracing.layer_metrics(tracer, delivered(result, skip))
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
