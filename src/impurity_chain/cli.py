"""Command-line driver: parameter sweeps, finders and deterministic CSV output.

Subcommands:
  point      compute every requested quantity at a single parameter point
  sweep      run a 1- or 2-axis grid and write one CSV row per grid point
  threshold  locate the largest temperature at which the concurrence dies
  critical   locate a critical field (concurrence max, QFI min, dQFI/dB peak)
  figure     run a named preset that reproduces one figure's data files

Configuration is plain `key = value` text (# comments), overridable with
repeated --set key=value flags.  CSV output is RFC-4180 style with 17
significant digits, byte-identical across reruns and worker counts.

Exit codes: 0 success, 2 configuration error (a bad or unused key, or an
unwritable output path), 3 numerical failure (a non-finite result or a solver
exception, reported with its parameter point), 4 nothing found (finders).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .measures import (
    coherence_batch,
    concurrence_batch,
    correlators_batch,
    correlators_shortcut_batch,
    qfi_batch,
    qfi_dB_batch,
)
from .model import ModelParams, OverflowRisk
from .teleport import InputState, average_fidelity_batch, output_concurrence_batch
from .xfer import DegenerateGap, InvalidN, NotAState, limit_states

__all__ = [
    "ConfigError",
    "NotFound",
    "NonFiniteError",
    "SweepConfig",
    "SweepRecord",
    "run_point",
    "run_sweep",
    "threshold_temperatures",
    "find_threshold_temperature",
    "concurrence_sign_brackets",
    "find_critical_field",
    "run_figure",
    "FIGURE_PRESETS",
    "main",
]


class ConfigError(ValueError):
    """Unusable configuration file, key or value."""


class NotFound(RuntimeError):
    """A finder's coarse scan saw no interior extremum or bracket."""


class NonFiniteError(ArithmeticError):
    """A computed quantity came out non-finite; the parameter point is reported."""


PARAM_COLUMNS = ("J", "Delta", "J0", "g1", "g2", "g3", "gamma", "B", "T")
SWEEPABLE = ("B", "T", "Delta", "J0", "gamma")

QUANTITY_COLUMNS = {
    "concurrence": ("concurrence",),
    "coherence": ("coherence",),
    "sxsx": ("sxsx",),
    "szsz": ("szsz",),
    "qfi": ("qfi",),
    "qfi_dB": ("qfi_dB",),
    "favg": ("favg",),
    "cout": ("cout",),
    "rho_elements": ("r11", "r22", "r33", "r44", "r23"),
}
ALT_CORRELATOR_COLUMNS = ("sxsx_alt", "szsz_alt")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# quantities of state batches

# the output concurrence is reported for the maximally entangled input
_COUT_INPUT = InputState(theta=math.pi / 2.0)

# quantity -> its column as an array function of (5, n) states; qfi_dB and
# rho_elements are filled in by _quantity_values
_MEASURES = {
    "concurrence": concurrence_batch,
    "coherence": coherence_batch,
    "sxsx": lambda states: correlators_batch(states)[0],
    "szsz": lambda states: correlators_batch(states)[1],
    "qfi": qfi_batch,
    "favg": average_fidelity_batch,
    "cout": lambda states: output_concurrence_batch(states, _COUT_INPUT.input_concurrence),
}


def _quantity_values(states: np.ndarray, quantities, qfi_db, alt: bool) -> dict:
    """Every requested column, one array each, in CSV column order."""
    values = {}
    for q in quantities:
        if q == "rho_elements":
            values.update(zip(QUANTITY_COLUMNS[q], states))
        elif q == "qfi_dB":
            values[q] = qfi_db
        else:
            values[q] = _MEASURES[q](states)
    if alt:
        values["sxsx_alt"], values["szsz_alt"] = correlators_shortcut_batch(states)
    return values


def _check_finite(values: dict, point_at) -> None:
    """Raise NonFiniteError naming the first point with a non-finite column."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in values.values()])
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        bad = [k for k, v in values.items() if not math.isfinite(v[i])]
        raise NonFiniteError(f"non-finite {bad} at {point_at(i)}")


# ---------------------------------------------------------------------------
# single point

@dataclass(frozen=True)
class SweepRecord:
    """One grid point: the parameters used plus every computed column."""

    params: ModelParams
    values: dict[str, float]


def run_point(p: ModelParams, quantities, delta_b: float = 1e-3,
              alt_correlators: bool = False) -> SweepRecord:
    """Evaluate the requested quantities at one parameter point.

    A batch of one of the sweep path, with the same bits as that point in a
    sweep; raises NonFiniteError (with the point attached) if any output
    fails to be finite.
    """
    unknown = [q for q in quantities if q not in QUANTITY_COLUMNS]
    if unknown:
        raise ConfigError(f"unknown quantities {unknown}; valid: {sorted(QUANTITY_COLUMNS)}")
    columns = {name: np.array([value]) for name, value in vars(p).items()}
    values = _sweep_chunk((columns, quantities, delta_b, alt_correlators))
    return SweepRecord(params=p, values={k: float(v[0]) for k, v in values.items()})


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep: fixed parameters, 1-2 axes, quantities, output path."""

    params: ModelParams
    axes: tuple[tuple[str, float, float, int], ...]
    quantities: tuple[str, ...]
    out: str
    delta_b: float = 1e-3
    impurity: bool = True
    alt_correlators: bool = False

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError(f"need 1 or 2 sweep axes, got {len(self.axes)}")
        seen = set()
        for name, start, stop, count in self.axes:
            if name not in SWEEPABLE:
                raise ConfigError(f"axis {name!r} not sweepable; choose from {SWEEPABLE}")
            if name in seen:
                raise ConfigError(f"axis {name!r} given twice")
            seen.add(name)
            if count < 2:
                raise ConfigError(f"axis {name!r} needs count >= 2, got {count}")
            if not -math.inf < start < stop < math.inf:
                raise ConfigError(f"axis {name!r} needs finite start < stop")
            if name == "T" and not start > 0.0:
                raise ConfigError(f"axis 'T' needs positive temperatures, got start {start!r}")
        if not self.quantities:
            raise ConfigError("no quantities requested")
        unknown = [q for q in self.quantities if q not in QUANTITY_COLUMNS]
        if unknown:
            raise ConfigError(f"unknown quantities {unknown}")
        _check_positive("delta_b", self.delta_b)

    def columns(self) -> list[str]:
        cols = list(PARAM_COLUMNS)
        for q in self.quantities:
            cols.extend(QUANTITY_COLUMNS[q])
        if self.alt_correlators:
            cols.extend(ALT_CORRELATOR_COLUMNS)
        return cols

    def grid(self) -> dict[str, np.ndarray]:
        """Grid points in row order, last axis fastest like nested loops:
        one array per ModelParams field."""
        values = [_axis_values(start, stop, count) for (_, start, stop, count) in self.axes]
        if len(values) == 2:
            values = [np.repeat(values[0], len(values[1])), np.tile(values[1], len(values[0]))]
        n = len(values[0])
        grid = {name: np.full(n, getattr(self.params, name)) for name in PARAM_COLUMNS}
        for (name, *_), column in zip(self.axes, values):
            grid[name] = column
        return grid


def _sweep_chunk(task) -> dict:
    """Every column of a contiguous run of grid points, in one kernel call."""
    columns, quantities, delta_b, alt = task
    states = limit_states(**columns)
    qfi_db = qfi_dB_batch(columns, delta_b) if "qfi_dB" in quantities else None
    values = _quantity_values(states, quantities, qfi_db, alt)
    _check_finite(values, lambda i: ModelParams(**{k: float(v[i]) for k, v in columns.items()}))
    return values


def _axis_values(start: float, stop: float, count: int) -> np.ndarray:
    """`count` evenly spaced values from start to stop inclusive."""
    return start + (stop - start) * np.arange(count) / (count - 1)


def _format(v: float) -> str:
    return f"{v:.16e}"


def _write_csv(path, header, template: str, rows) -> None:
    """A header line, then `template % row` for each row, with \\r\\n endings.

    Writes to `path` (see _create), or to stdout when path is None.
    Every field is a name, an empty string or a finite number formatted with
    `%.16e` (_format's format) or `%d`; none needs quoting, so these are the
    bytes csv.writer would write.
    """
    line = template + "\r\n"
    target = contextlib.nullcontext(sys.stdout) if path is None else _create(path, newline="")
    with target as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def _create(path: str, **kwargs):
    """open(path, "w") after making its directory; a path that cannot be
    written raises ConfigError naming it."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_sweep(cfg: SweepConfig, workers: int = 1) -> str:
    """Run the grid and write the CSV plus a run-manifest sidecar.

    Output bytes depend only on the configuration, not on the worker count:
    every point is computed independently of the batch it sits in, and with
    workers > 1 each worker takes one contiguous chunk of the grid.  With the
    impurity off the kernel sees gamma = 0 and the CSV the configured gamma.
    """
    grid = cfg.grid()
    evaluated = _with_impurity(grid, cfg.impurity)
    rows = len(grid["B"])
    task = (cfg.quantities, cfg.delta_b, cfg.alt_correlators)
    if workers > 1:
        size = -(-rows // workers)
        chunks = [{k: v[i:i + size] for k, v in evaluated.items()} for i in range(0, rows, size)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, [(c, *task) for c in chunks]))
        values = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    else:
        values = _sweep_chunk((evaluated, *task))

    # fixed parameters are formatted once into the row template, every other
    # column is a %.16e slot
    axes = {name for name, *_ in cfg.axes}
    template = ",".join(["%.16e" if c in axes else _format(getattr(cfg.params, c))
                         for c in PARAM_COLUMNS] + ["%.16e"] * len(values))
    columns = [grid[c].tolist() for c in PARAM_COLUMNS if c in axes]
    columns += [values[c].tolist() for c in cfg.columns()[len(PARAM_COLUMNS):]]
    _write_csv(cfg.out, cfg.columns(), template, zip(*columns))
    _write_manifest(cfg)
    return cfg.out


def _write_manifest(cfg: SweepConfig) -> None:
    lines = [f"tool = impurity-chain {__version__}"]
    for f in fields(ModelParams):
        lines.append(f"{f.name} = {getattr(cfg.params, f.name)!r}")
    for i, (name, start, stop, count) in enumerate(cfg.axes, start=1):
        lines.append(f"axis{i} = {name} {start!r} {stop!r} {count}")
    lines.append(f"quantities = {','.join(cfg.quantities)}")
    lines.append(f"impurity = {'on' if cfg.impurity else 'off'}")
    lines.append(f"delta_b = {cfg.delta_b!r}")
    lines.append(f"out = {cfg.out}")
    with _create(cfg.out + ".manifest.txt") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# finders

def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def _check_range(name: str, bounds, floor: float = -math.inf) -> None:
    """A finder's scan range must be finite and increasing (and above floor)."""
    lo, hi = bounds
    if not floor < lo < hi < math.inf:
        raise ConfigError(f"bad {name} range {tuple(bounds)}: need {floor:g} < lo < hi < inf")


def concurrence_sign_brackets(p: ModelParams, t_range, points: int = 64) -> int:
    """(C > 0) sign changes of C(T) on threshold_temperatures' scan, same ConfigErrors."""
    return int(_coarse_scan([p], t_range, points)[2].sum())


# most kernel points per coarse-scan call of threshold_temperatures: the
# size of a preset sweep, which keeps the kernel's temporaries small
_SCAN_BLOCK = 601


def _coarse_scan(points: list, t_range, count: int):
    """The scan temperatures, C > 0 at each per point, its flips between neighbours
    and the points' other parameters; at most 601 kernel points a call."""
    _check_range("temperature", t_range, floor=0.0)
    if count < 2:
        raise ConfigError(f"points_per_scan must be at least 2, got {count!r}")
    temps = _axis_values(*t_range, count)
    params = {name: np.array([getattr(p, name) for p in points], dtype=float)
              for name in PARAM_COLUMNS if name != "T"}
    positive = np.empty((len(points), len(temps)), dtype=bool)
    block = max(1, _SCAN_BLOCK // len(temps))
    for start in range(0, len(points), block):
        rows = slice(start, start + block)
        block_params = {k: np.repeat(v[rows], len(temps)) for k, v in params.items()}
        states = limit_states(**block_params, T=np.tile(temps, len(positive[rows])))
        positive[rows] = (concurrence_batch(states) > 0.0).reshape(-1, len(temps))
    return temps, positive, positive[:, :-1] != positive[:, 1:], params


def threshold_temperatures(points, t_range, points_per_scan: int = 64, tol: float = 1e-6):
    """Largest temperature where the concurrence changes between zero and
    positive, for each parameter point (its own T is not used).

    Every point gets a coarse scan of `points_per_scan` temperatures.  The
    scans run whole points at a time in blocks of at most 601 kernel points
    (9 points of 64 temperatures, the size of a preset sweep), which bounds
    the kernel's working memory; every point's sign flips, their count and
    its last bracket are then read from one (points, points_per_scan)
    boolean array.  The last bracket of every point that has one is bisected
    in lockstep, one kernel call per step over the points still active; a
    point stops when its bracket is no wider than `tol` or its midpoint
    equals an end.  Returns (thresholds, bracket_counts): a threshold is
    None where C is identically zero or strictly positive on the scan, and
    a count is the number of sign changes on that scan.  Raises ConfigError
    (a ValueError) for a range that is not finite with 0 < lo < hi, a tol
    that is not positive and finite or a scan of fewer than 2 temperatures.
    """
    _check_positive("tol", tol)
    points = list(points)
    temps, positive, flips, params = _coarse_scan(points, t_range, points_per_scan)
    counts = flips.sum(axis=1)
    found = np.flatnonzero(counts)
    last = points_per_scan - 2 - np.argmax(flips[found, ::-1], axis=1)
    params = {k: v[found] for k, v in params.items()}
    t_lo, t_hi = temps[last], temps[last + 1]
    side = positive[found, last]
    while True:
        mid = 0.5 * (t_lo + t_hi)
        active = np.flatnonzero((t_hi - t_lo > tol) & (mid != t_lo) & (mid != t_hi))
        if not active.size:
            break
        m = mid[active]
        states = limit_states(**{k: v[active] for k, v in params.items()}, T=m)
        keep = (concurrence_batch(states) > 0.0) == side[active]
        t_lo[active] = np.where(keep, m, t_lo[active])
        t_hi[active] = np.where(keep, t_hi[active], m)
    thresholds = [None] * len(points)
    for k, t_th in zip(found.tolist(), (0.5 * (t_lo + t_hi)).tolist()):
        thresholds[k] = t_th
    return thresholds, counts.tolist()


def find_threshold_temperature(p: ModelParams, t_range, points: int = 64, tol: float = 1e-6):
    """Largest temperature where the concurrence changes between zero and positive.

    A batch of one of threshold_temperatures: coarse scan with `points`
    samples, then bisection of the last bracket down to `tol`.  Returns None
    when C is identically zero or strictly positive over the whole range.
    """
    return threshold_temperatures([p], t_range, points, tol)[0][0]


def find_critical_field(p: ModelParams, b_range, target: str, points: int = 64,
                        tol: float = 1e-4, delta_b: float = 1e-3) -> float:
    """Field value extremizing the chosen functional inside b_range.

    target: 'max_concurrence' (maximize C), 'qfi_min' (minimize F) or
    'dqfi_peak' (maximize |dF/dB|).  Coarse scan in one batched call, then
    golden-section refinement of the best interior sample down to `tol` in
    B through the same scan on one field at a time.  Raises NotFound when
    the coarse scan is monotone (extremum at a boundary), and ConfigError (a
    ValueError) for a range that is not finite and increasing, a tol that is
    not positive and finite or a scan of fewer than 3 fields (an interior
    sample needs at least 3).
    """
    _check_range("field", b_range)
    _check_positive("tol", tol)
    if points < 3:
        raise ConfigError(f"points must be at least 3, got {points!r}")

    if target == "max_concurrence":
        def scan(b: np.ndarray) -> np.ndarray:
            return -concurrence_batch(limit_states(**dict(vars(p), B=b)))
    elif target == "qfi_min":
        def scan(b: np.ndarray) -> np.ndarray:
            return qfi_batch(limit_states(**dict(vars(p), B=b)))
    elif target == "dqfi_peak":
        def scan(b: np.ndarray) -> np.ndarray:
            return -np.abs(qfi_dB_batch(dict(vars(p), B=b), delta_b))
    else:
        raise ConfigError(f"unknown target {target!r}")

    grid = _axis_values(*b_range, points)
    best = int(np.argmin(scan(grid)))
    if best in (0, points - 1):
        raise NotFound(f"{target} has no interior extremum in {b_range}")
    return _golden_section(lambda b: float(scan(np.array([b]))[0]),
                           float(grid[best - 1]), float(grid[best + 1]), tol)


def _golden_section(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b], reusing evaluations."""
    h = b - a
    c, d = b - _GOLDEN * h, a + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
        h *= _GOLDEN
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# figure presets

# name -> (file stem, fixed parameters, curve sets, axis, output).  Each
# combination of the curve sets' values is one curve, written to
# <stem>_<tag>.csv (fig3_gamma-0.8_T0.05.csv).  A sweep preset's output is the
# quantities it sweeps along the axis; an output ("T", lo, hi) names a scan
# instead, and the CSV has the threshold temperature over it at each axis
# value.  The fixed parameters may be overridden; the curve, axis and scan
# parameters are the preset's own.
FIGURE_PRESETS = {
    "fig3": ("fig3", dict(Delta=0.5, J0=1.0),
             [("gamma", (0.0, -0.8)), ("T", (0.01, 0.05, 0.2))],
             ("B", 0.0, 3.0, 601), ("concurrence",)),
    "fig5": ("fig5", dict(Delta=0.0, J0=1.0),
             [("gamma", (0.0, -0.8)), ("B", (0.0, 0.5, 1.282, 2.0))],
             ("T", 0.01, 2.0, 400), ("coherence",)),
    "fig-qfi": ("fig_qfi", dict(gamma=-0.8, J0=1.0, T=0.05),
                [("Delta", (0.0, 0.5, 1.0, 2.0))], ("B", 0.0, 3.0, 601), ("qfi",)),
    "fig-dbqfi": ("fig_dbqfi", dict(gamma=-0.8, J0=1.0, T=0.05),
                  [("Delta", (0.0, 0.5, 1.0, 2.0))], ("B", 0.0, 3.0, 601), ("qfi_dB",)),
    "fig8": ("fig8", dict(Delta=0.5, J0=1.0),
             [("gamma", (0.0, -0.8)), ("B", (0.0, 0.5, 1.282, 2.0))],
             ("T", 0.01, 2.0, 400), ("favg",)),
    "fig10": ("fig10", dict(J=4.0, Delta=0.5, J0=1.0),
              [("gamma", (0.0, -0.8)), ("T", (0.1, 0.6, 1.0))],
              ("B", 0.0, 5.0, 601), ("favg",)),
    "fig22-threshold": ("fig22_threshold", dict(J0=0.7, B=0.5),
                        [("gamma", (0.0, -0.8))], ("Delta", 0.0, 2.0, 81), ("T", 0.01, 1.2)),
}


def _owned_keys(name: str) -> set[str]:
    """The parameters a preset sets per curve, axis value or scan point."""
    _, _, curves, axis, output = FIGURE_PRESETS[name]
    return {key for key, _ in curves} | {axis[0]} | ({output[0]} & set(PARAM_COLUMNS))


def _preset_jobs(name: str, outdir: str, overrides: dict) -> list:
    """(parameters, CSV path) of every curve of a preset, in file order."""
    stem, defaults, curves, _, _ = FIGURE_PRESETS[name]
    try:
        base = ModelParams(**dict(defaults, **overrides))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    combos = [{}]
    for key, values in curves:
        combos = [dict(c, **{key: v}) for c in combos for v in values]
    jobs = []
    for combo in combos:
        tag = "_".join(f"{k}{v:g}" for k, v in combo.items())
        jobs.append((replace(base, **combo), os.path.join(outdir, f"{stem}_{tag}.csv")))
    return jobs


def _write_thresholds(jobs, axis, scan) -> list[str]:
    """One CSV per curve: the threshold temperature over the scan and its
    bracket count at every axis value.  The rows of all curves are one
    threshold_temperatures call, in one process."""
    name, start, stop, count = axis
    values = _axis_values(start, stop, count).tolist()
    rows = [replace(params, **{name: v}) for params, _ in jobs for v in values]
    thresholds, counts = threshold_temperatures(rows, scan[1:])
    cells = ["" if t is None else _format(t) for t in thresholds]
    for k, (_, out) in enumerate(jobs):
        part = slice(count * k, count * (k + 1))
        _write_csv(out, (name, "T_threshold", "n_brackets"), "%.16e,%s,%d",
                   zip(values, cells[part], counts[part]))
    return [out for _, out in jobs]


def run_figure(name: str, outdir: str, overrides: dict, workers: int = 1) -> list[str]:
    """Write every data file of one figure preset; returns the paths.

    `overrides` may set any parameter the preset holds fixed; one it sets
    per curve, axis value or scan point raises ConfigError before any file
    is written.  `workers` is the process count of each sweep preset; a
    threshold preset runs in one process.
    """
    if name not in FIGURE_PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {sorted(FIGURE_PRESETS)}")
    owned = _owned_keys(name)
    for key in overrides:
        if key in owned:
            raise ConfigError(f"preset {name!r} sets {key!r} per curve, row, axis or scan, "
                              f"so it cannot be overridden")
    _, _, _, axis, output = FIGURE_PRESETS[name]
    jobs = _preset_jobs(name, outdir, overrides)
    if output[0] in PARAM_COLUMNS:
        return _write_thresholds(jobs, axis, output)
    return [run_sweep(SweepConfig(params=params, axes=(axis,), quantities=output, out=out),
                      workers=workers)
            for params, out in jobs]


# ---------------------------------------------------------------------------
# configuration plumbing

# the configuration keys each subcommand uses; any other key is an error.
# threshold scans T and critical scans B, so neither takes that parameter.
_POINT_KEYS = PARAM_COLUMNS + ("quantities", "impurity", "delta_b")
_COMMAND_KEYS = {
    "point": _POINT_KEYS,
    "sweep": _POINT_KEYS + ("axis", "axis1", "axis2", "out"),
    "threshold": tuple(k for k in PARAM_COLUMNS if k != "T") + ("impurity",),
    "critical": tuple(k for k in PARAM_COLUMNS if k != "B") + ("impurity", "delta_b"),
    "figure": PARAM_COLUMNS,
}
_TRUE_WORDS = ("1", "true", "on", "yes")
_FALSE_WORDS = ("0", "false", "off", "no")


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                mapping[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return mapping


def _parse_impurity(mapping: dict[str, str]) -> bool:
    value = mapping.get("impurity", "on")
    low = value.strip().lower()
    if low not in _TRUE_WORDS + _FALSE_WORDS:
        raise ConfigError(f"impurity: expected on/off, got {value!r}")
    return low in _TRUE_WORDS


def _with_impurity(params, impurity: bool):
    """The parameters (a ModelParams or a sweep grid) the solver evaluates for
    the `impurity` key: `off` is the homogeneous chain, the chain at gamma = 0."""
    if impurity:
        return params
    if isinstance(params, ModelParams):
        return replace(params, gamma=0.0)
    return dict(params, gamma=np.zeros_like(params["gamma"]))


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"axis needs 'name start stop count', got {text!r}")
    name, start, stop, count = parts
    try:
        return name, float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad axis {text!r}: {exc}") from exc


def _parse_delta_b(mapping: dict[str, str]) -> float:
    text = mapping.get("delta_b", "1e-3")
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"delta_b: not a number: {text!r}") from exc
    _check_positive("delta_b", value)
    return value


def _parse_params(mapping: dict[str, str]) -> dict[str, float]:
    """The parameter keys of a mapping, in its order, as floats."""
    values = {}
    for key, text in mapping.items():
        if key in PARAM_COLUMNS:
            try:
                values[key] = float(text)
            except ValueError as exc:
                raise ConfigError(f"{key}: not a number: {text!r}") from exc
    return values


def _parse_quantities(mapping: dict[str, str], default: str) -> tuple[str, ...]:
    return tuple(q.strip() for q in mapping.get("quantities", default).split(",") if q.strip())


def build_params(mapping: dict[str, str]) -> ModelParams:
    try:
        return ModelParams(**_parse_params(mapping))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_sweep_config(mapping: dict[str, str], alt_correlators: bool = False) -> SweepConfig:
    params = build_params(mapping)
    axes = []
    for key in ("axis", "axis1", "axis2"):
        if key in mapping:
            axes.append(_parse_axis(mapping[key]))
    if not axes:
        raise ConfigError("no sweep axis given (use 'axis = NAME START STOP COUNT')")
    return SweepConfig(
        params=params,
        axes=tuple(axes),
        quantities=_parse_quantities(mapping, "concurrence"),
        out=mapping.get("out", "sweep.csv"),
        delta_b=_parse_delta_b(mapping),
        impurity=_parse_impurity(mapping),
        alt_correlators=alt_correlators,
    )


def _collect_mapping(args) -> dict[str, str]:
    mapping = parse_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    valid = _COMMAND_KEYS[args.command]
    unknown = [key for key in mapping if key not in valid]
    if unknown:
        raise ConfigError(f"configuration key {unknown[0]!r} is not used by "
                          f"{args.command!r}; valid: {', '.join(valid)}")
    return mapping


def _workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impurity-chain",
        description="Exact solver for the Ising-XXZ chain with one impurity dimer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value configuration file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")

    sp = sub.add_parser("point", help="evaluate one parameter point")
    common(sp)
    sp.add_argument("--out", help="write the one-row CSV here instead of stdout")
    sp.add_argument("--debug-paper-correlators", action="store_true",
                    help="also emit the shortcut correlator variants")

    sp = sub.add_parser("sweep", help="run a parameter grid to CSV")
    common(sp)
    sp.add_argument("--out", help="output CSV path (overrides config)")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--debug-paper-correlators", action="store_true",
                    help="also emit the shortcut correlator variants")

    sp = sub.add_parser("threshold", help="largest temperature where C(T) dies")
    common(sp)
    sp.add_argument("--t-min", type=float, default=0.01)
    sp.add_argument("--t-max", type=float, default=2.0)

    sp = sub.add_parser("critical", help="critical field of a chosen functional")
    common(sp)
    sp.add_argument("--b-min", type=float, default=0.0)
    sp.add_argument("--b-max", type=float, default=3.0)
    sp.add_argument("--target", default="max-concurrence",
                    choices=("max-concurrence", "qfi-min", "dqfi-peak"))
    sp.add_argument("--tol", type=float, default=1e-4)

    sp = sub.add_parser("figure", help="write a figure preset's data files")
    common(sp)
    sp.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    sp.add_argument("--out", default="figures", help="output directory")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes per sweep; fig22-threshold runs in one process")

    return parser


def _cmd_point(args) -> int:
    mapping = _collect_mapping(args)
    params = build_params(mapping)
    quantities = _parse_quantities(mapping, ",".join(QUANTITY_COLUMNS))
    impurity = _parse_impurity(mapping)
    delta_b = _parse_delta_b(mapping)
    record = run_point(_with_impurity(params, impurity), quantities, delta_b=delta_b,
                       alt_correlators=args.debug_paper_correlators)
    row = tuple(vars(params).values()) + tuple(record.values.values())
    _write_csv(args.out, PARAM_COLUMNS + tuple(record.values),
               ",".join(["%.16e"] * len(row)), [row])
    return 0


def _cmd_sweep(args) -> int:
    mapping = _collect_mapping(args)
    if args.out:
        mapping["out"] = args.out
    cfg = build_sweep_config(mapping, alt_correlators=args.debug_paper_correlators)
    path = run_sweep(cfg, workers=_workers(args))
    print(path)
    return 0


def _cmd_threshold(args) -> int:
    mapping = _collect_mapping(args)
    params = _with_impurity(build_params(mapping), _parse_impurity(mapping))
    t_th = find_threshold_temperature(params, (args.t_min, args.t_max))
    if t_th is None:
        print("none")
        return 4
    print(_format(t_th))
    return 0


def _cmd_critical(args) -> int:
    mapping = _collect_mapping(args)
    params = _with_impurity(build_params(mapping), _parse_impurity(mapping))
    delta_b = _parse_delta_b(mapping)
    target = args.target.replace("-", "_")
    b_star = find_critical_field(params, (args.b_min, args.b_max), target,
                                 tol=args.tol, delta_b=delta_b)
    print(_format(b_star))
    return 0


def _cmd_figure(args) -> int:
    overrides = _parse_params(_collect_mapping(args))
    for path in run_figure(args.preset, args.out, overrides, workers=_workers(args)):
        print(path)
    return 0


_COMMANDS = {
    "point": _cmd_point,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "critical": _cmd_critical,
    "figure": _cmd_figure,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteError, FloatingPointError, OverflowRisk, DegenerateGap, NotAState,
            InvalidN) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
