"""Check a run's outputs against the independent reference.

Every function returns a list of problems; an empty list means the outputs
are correct.  Tolerances:

- state elements and every measure of one state: 1e-10 absolute (the solver
  keeps states exact to about 1e-15; QFI gets 1e-9 relative to max(1, F));
- qfi_dB: anywhere between the exact derivative and the central difference
  at the solver's step (both from the reference), widened by 1e-6 relative,
  so an exact derivative passes as well as today's central difference;
- log Z: 1e-11 relative to max(1, |log Z|);
- teleportation output matrix: 1e-12 absolute against the Kraus composition;
- a threshold must be a local sign change of the reference concurrence
  within 1e-5 in T.
"""

from __future__ import annotations

import csv
import math
import os

import child
import reference as ref
import workloads

TOL = 1e-10
STATE_KEYS = ("r11", "r22", "r33", "r44", "r23")
FAULT_NAMES = ("OverflowRisk", "DegenerateGap")
T_EPS = 1e-5
# preset -> (files, rows per file, quantity columns)
PRESET_SHAPES = {
    "fig3": (6, 601, ("concurrence",)),
    "fig5": (8, 400, ("coherence",)),
    "fig-qfi": (4, 601, ("qfi",)),
    "fig-dbqfi": (4, 601, ("qfi_dB",)),
    "fig8": (8, 400, ("favg",)),
    "fig10": (6, 601, ("favg",)),
    "fig22-threshold": (2, 81, None),
}
# the fixed panel parameters of fig22-threshold (Delta is the row's)
FIG22_BASE = dict(J=1.0, J0=0.7, B=0.5, **workloads.STD)
FIG22_T_RANGE = (0.01, 1.2)
ROWS_PER_PRESET = 3
ROWS_PER_GRID = 3


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def compare(label: str, got: dict, want: dict) -> list:
    """Compare the named values of one result with the reference's."""
    problems = []
    for key, value in got.items():
        if key == "qfi_dB":
            lo = min(want["qfi_dB"], want["qfi_dB_central"])
            hi = max(want["qfi_dB"], want["qfi_dB_central"])
            slack = 1e-6 * max(1.0, abs(lo), abs(hi))
            ok = math.isfinite(value) and lo - slack <= value <= hi + slack
        elif key == "qfi":
            ok = _close(value, want[key], 1e-9 * max(1.0, abs(want[key])))
        else:
            ok = _close(value, want[key])
        if not ok:
            problems.append(f"{label}: {key} = {value!r}, reference {want[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# thresholds (fig22-threshold)

def threshold_problem(par: dict, t: float) -> str | None:
    """None if C changes between zero and positive across [t - eps, t + eps]."""
    below = ref.wootters_margin(ref.limit_state(dict(par, T=t - T_EPS))) > 0
    above = ref.wootters_margin(ref.limit_state(dict(par, T=t + T_EPS))) > 0
    if below == above:
        return f"threshold {t!r} at {par}: concurrence positive={below} on both sides"
    return None


# ---------------------------------------------------------------------------
# scatter

def _fault_problem(op: dict, failure: list) -> str | None:
    _, name, message = failure
    if name not in FAULT_NAMES:
        return f"{op['kind']} at {op['params']} raised {name}: {message}"
    if not op["ref"]["valid"]:
        return f"{op['kind']} at {op['params']}: reference state is not valid"
    return None


def _scatter_problems(label: str, op: dict, value) -> list:
    want = op["ref"]
    kind = op["kind"]
    if kind in ("state", "ring"):
        return compare(label, dict(zip(STATE_KEYS, value)), want)
    if kind == "bundle":
        names = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "qfi_dB")
        return compare(label, dict(zip(names, value)), want)
    if kind == "logz":
        if not _close(value, want["logz"], 1e-11 * max(1.0, abs(want["logz"]))):
            return [f"{label}: log Z = {value!r}, reference {want['logz']!r}"]
        return []
    c, f, g, k_re, k_im, flat = value
    matrix = [complex(*z) for z in flat]
    kraus = [complex(*z) for row in want["matrix"] for z in row]
    worst = max(abs(a - b) for a, b in zip(matrix, kraus))
    named = max(abs(c - kraus[0].real), abs(c - kraus[15].real),
                abs(f - kraus[5].real), abs(g - kraus[10].real),
                abs(complex(k_re, k_im) - kraus[6]))
    if not max(worst, named) <= 1e-12:
        return [f"{label}: output deviates from the Kraus composition "
                f"by {max(worst, named):.3e}"]
    return []


def check_scatter(ops: list, values: list, failures: list) -> tuple[list, list]:
    """(problems, indices of the fixed "wrong" fault points that returned a
    wrong state); those count as failed operations, not as problems."""
    problems, miscomputed = [], []
    failed = {f[0]: f for f in failures}
    for i, (op, value) in enumerate(zip(ops, values)):
        label = f"{op['kind']} #{i} at {op['params']}"
        if i in failed:
            found = _fault_problem(op, failed[i])
            if found:
                problems.append(found)
            continue
        found = _scatter_problems(label, op, value)
        if found and op.get("fault") == "wrong" and op["ref"]["valid"]:
            miscomputed.append(i)
        else:
            problems += found
    return problems, miscomputed


# ---------------------------------------------------------------------------
# CSV outputs: presets and grids

def _read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _row_params(header: list, row: list) -> dict:
    return {k: float(row[header.index(k)]) for k in ref.PARAM_KEYS}


def check_rows(label: str, header: list, rows: list, picks: list, quantities) -> list:
    """Compare sampled CSV rows with the reference state of their parameter point."""
    problems = []
    for i in picks:
        par = _row_params(header, rows[i])
        got = {q: float(rows[i][header.index(q)]) for q in quantities}
        rho = ref.limit_state(par)
        want = ref.state_summary(rho, teleport=bool({"favg", "cout"} & set(got)))
        if "qfi_dB" in got:
            want["qfi_dB"], want["qfi_dB_central"] = ref.qfi_derivatives(par, workloads.DELTA_B)
        problems += compare(f"{label} row {i + 1}", got, want)
    return problems


def _fig22_problems(paths: list, rng) -> list:
    problems = []
    for path in paths:
        gamma = float(os.path.basename(path)[len("fig22_threshold_gamma"):-len(".csv")])
        header, rows = _read_csv(path)
        if header != ["Delta", "T_threshold", "n_brackets"] or len(rows) != 81:
            problems.append(f"{path}: unexpected header {header} or {len(rows)} rows")
            continue
        solved = [r for r in rows if r[1]]
        for row in rng.sample(solved, min(2, len(solved))):
            par = dict(FIG22_BASE, Delta=float(row[0]), gamma=gamma)
            found = threshold_problem(par, float(row[1]))
            if found:
                problems.append(f"{path}: {found}")
        # one row's bracket count, from the reference on the finder's own scan
        row = rng.choice(rows)
        par = dict(FIG22_BASE, Delta=float(row[0]), gamma=gamma)
        margins = [ref.wootters_margin(ref.limit_state(dict(par, T=t)))
                   for t in workloads.scan(*FIG22_T_RANGE)]
        if all(abs(m) > 1e-9 for m in margins):
            signs = [m > 0 for m in margins]
            count = sum(a != b for a, b in zip(signs, signs[1:]))
            if count != int(row[2]):
                problems.append(f"{path}: Delta {row[0]} has {row[2]} brackets, "
                                f"reference {count}")
    return problems


def check_presets(ops: list, values: list, outdir: str, rng) -> list:
    """Shapes of every preset's files and sampled rows.  A preset runs twice
    in a round and must write the same bytes both times (and in every round,
    see child.py)."""
    problems = []
    seen = {}
    for op, digests in zip(ops, values):
        name = op["name"]
        if name in seen:
            if digests != seen[name]:
                problems.append(f"{name}: the two passes of a round wrote different CSVs")
            continue
        seen[name] = digests
        paths = [os.path.join(outdir, rel) for rel, _, _ in digests]
        n_files, n_rows, quantities = PRESET_SHAPES[name]
        if len(paths) != n_files:
            problems.append(f"{name}: {len(paths)} files, expected {n_files}")
            continue
        if quantities is None:
            problems += _fig22_problems(paths, rng)
            continue
        for path in paths:
            header, rows = _read_csv(path)
            if header != list(ref.PARAM_KEYS) + list(quantities) or len(rows) != n_rows:
                problems.append(f"{path}: header {header}, {len(rows)} rows")
        for path in rng.sample(paths, ROWS_PER_PRESET):
            header, rows = _read_csv(path)
            problems += check_rows(path, header, rows, [rng.randrange(len(rows))], quantities)
    return problems


def check_grids(ops: list, values: list, outdir: str, rerun, rng) -> list:
    """Sampled rows against the reference, and bytes against a 1-worker rerun."""
    problems = []
    quantities = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "favg", "cout",
                  "r11", "r22", "r33", "r44", "r23")
    for op, [(rel, digest, _)] in zip(ops, values):
        path = os.path.join(outdir, rel)
        header, rows = _read_csv(path)
        expected_rows = op["axes"][0][3] * op["axes"][1][3]
        if header != list(ref.PARAM_KEYS) + list(quantities) or len(rows) != expected_rows:
            problems.append(f"{path}: header {header}, {len(rows)} rows")
            continue
        picks = rng.sample(range(len(rows)), ROWS_PER_GRID)
        problems += check_rows(path, header, rows, picks, quantities)
        serial = rerun(op)
        if child.csv_digest(serial, outdir)[1] != digest:
            problems.append(f"{path}: bytes differ from the same grid at --workers 1")
    return problems
