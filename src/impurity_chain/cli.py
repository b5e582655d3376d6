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

Exit codes: 0 success, 2 configuration error (including keys the subcommand
does not use), 3 numerical failure (a non-finite result or a solver
exception, reported with its parameter point), 4 nothing found (finders).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .measures import (
    coherence_batch,
    concurrence_batch,
    concurrence_x,
    correlators_batch,
    correlators_shortcut_batch,
    qfi,
    qfi_batch,
    qfi_dB_batch,
    qfi_field_derivative,
)
from .model import ModelParams, OverflowRisk
from .teleport import InputState, average_fidelity_batch, output_concurrence_batch
from .xfer import DegenerateGap, InvalidN, NotAState, impurity_density_matrix, limit_states

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


def run_point(p: ModelParams, quantities, impurity: bool = True,
              delta_b: float = 1e-3, alt_correlators: bool = False) -> SweepRecord:
    """Evaluate the requested quantities at one parameter point.

    Deterministic; raises NonFiniteError (with the point attached) if any
    output fails to be finite.
    """
    unknown = [q for q in quantities if q not in QUANTITY_COLUMNS]
    if unknown:
        raise ConfigError(f"unknown quantities {unknown}; valid: {sorted(QUANTITY_COLUMNS)}")
    st = impurity_density_matrix(p, impurity=impurity)
    qfi_db = None
    if "qfi_dB" in quantities:
        qfi_db = np.array([qfi_field_derivative(p, delta_b=delta_b, impurity=impurity)])
    values = _quantity_values(st.column(), quantities, qfi_db, alt_correlators)
    _check_finite(values, lambda i: p)
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
            if not start < stop:
                raise ConfigError(f"axis {name!r} needs start < stop")
            if name == "T" and not start > 0.0:
                raise ConfigError(f"axis 'T' needs positive temperatures, got start {start!r}")
        if not self.quantities:
            raise ConfigError("no quantities requested")
        unknown = [q for q in self.quantities if q not in QUANTITY_COLUMNS]
        if unknown:
            raise ConfigError(f"unknown quantities {unknown}")

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
        values = [start + (stop - start) * np.arange(count) / (count - 1)
                  for (_, start, stop, count) in self.axes]
        if len(values) == 2:
            values = [np.repeat(values[0], len(values[1])), np.tile(values[1], len(values[0]))]
        n = len(values[0])
        grid = {name: np.full(n, getattr(self.params, name)) for name in PARAM_COLUMNS}
        for (name, *_), column in zip(self.axes, values):
            grid[name] = column
        return grid


def _sweep_chunk(task) -> dict:
    """Every column of a contiguous run of grid points, in one kernel call."""
    columns, quantities, impurity, delta_b, alt = task
    states = limit_states(**columns, impurity=impurity)
    qfi_db = qfi_dB_batch(columns, delta_b, impurity) if "qfi_dB" in quantities else None
    values = _quantity_values(states, quantities, qfi_db, alt)
    _check_finite(values, lambda i: ModelParams(**{k: float(v[i]) for k, v in columns.items()}))
    return values


def _format(v: float) -> str:
    return f"{v:.16e}"


def run_sweep(cfg: SweepConfig, workers: int = 1) -> str:
    """Run the grid and write the CSV plus a run-manifest sidecar.

    Output bytes depend only on the configuration, not on the worker count:
    every point is computed independently of the batch it sits in, and with
    workers > 1 each worker takes one contiguous chunk of the grid.
    """
    grid = cfg.grid()
    rows = len(grid["B"])
    task = (cfg.quantities, cfg.impurity, cfg.delta_b, cfg.alt_correlators)
    if workers > 1:
        size = -(-rows // workers)
        chunks = [{k: v[i:i + size] for k, v in grid.items()} for i in range(0, rows, size)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, [(c, *task) for c in chunks]))
        values = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    else:
        values = _sweep_chunk((grid, *task))

    # One %-format row template per sweep: fixed parameters are formatted
    # once and embedded, every other column is a %.16e slot (_format's
    # format).  Finite numbers never need CSV quoting, and _check_finite has
    # run, so the bytes are those of csv.writer.
    axes = {name for name, *_ in cfg.axes}
    template = ",".join(
        ["%.16e" if c in axes else _format(getattr(cfg.params, c)).replace("%", "%%")
         for c in PARAM_COLUMNS] + ["%.16e"] * len(values)) + "\r\n"
    columns = [grid[c].tolist() for c in PARAM_COLUMNS if c in axes]
    columns += [values[c].tolist() for c in cfg.columns()[len(PARAM_COLUMNS):]]
    out_dir = os.path.dirname(os.path.abspath(cfg.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(cfg.out, "w", newline="") as fh:
        fh.write(",".join(cfg.columns()) + "\r\n")
        fh.writelines(template % row for row in zip(*columns))
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
    with open(cfg.out + ".manifest.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# finders

def _concurrence_at(p: ModelParams, impurity: bool) -> float:
    return concurrence_x(impurity_density_matrix(p, impurity=impurity))


def _states_along(p: ModelParams, name: str, values: np.ndarray, impurity: bool) -> np.ndarray:
    """States at p with one parameter replaced by an array, in one kernel call."""
    return limit_states(**dict(vars(p), **{name: values}), impurity=impurity)


def _coarse_grid(lo: float, hi: float, points: int) -> np.ndarray:
    return lo + (hi - lo) * np.arange(points) / (points - 1)


def _sign_flips(p: ModelParams, temps: np.ndarray, impurity: bool):
    """C > 0 at each temperature, and the indices i where it differs from
    i + 1; one batched call."""
    positive = concurrence_batch(_states_along(p, "T", temps, impurity)) > 0.0
    return positive, np.flatnonzero(positive[:-1] != positive[1:])


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")


def concurrence_sign_brackets(p: ModelParams, t_range, impurity: bool = True,
                              points: int = 64) -> int:
    """Number of (C > 0) sign changes of C(T) on a uniform coarse scan."""
    return len(_sign_flips(p, _coarse_grid(*t_range, points), impurity)[1])


# most kernel points per coarse-scan call of threshold_temperatures: the
# size of a preset sweep, which keeps the kernel's temporaries small
_SCAN_BLOCK = 601


def threshold_temperatures(points, t_range, impurity: bool = True,
                           points_per_scan: int = 64, tol: float = 1e-6):
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
    a count is the number of sign changes on that scan.  Raises ValueError
    for a bad range and ConfigError (a ValueError) for a tol that is not
    positive and finite or a scan of fewer than 2 temperatures.
    """
    lo, hi = t_range
    if not 0.0 < lo < hi:
        raise ValueError(f"bad temperature range {t_range}")
    _check_tol(tol)
    if points_per_scan < 2:
        raise ConfigError(f"points_per_scan must be at least 2, got {points_per_scan!r}")
    points = list(points)
    temps = _coarse_grid(lo, hi, points_per_scan)
    params = {name: np.array([getattr(p, name) for p in points], dtype=float)
              for name in PARAM_COLUMNS if name != "T"}
    positive = np.empty((len(points), points_per_scan), dtype=bool)
    block = max(1, _SCAN_BLOCK // points_per_scan)
    for start in range(0, len(points), block):
        rows = slice(start, start + block)
        block_params = {k: np.repeat(v[rows], points_per_scan) for k, v in params.items()}
        states = limit_states(**block_params, T=np.tile(temps, len(positive[rows])),
                              impurity=impurity)
        positive[rows] = (concurrence_batch(states) > 0.0).reshape(-1, points_per_scan)
    flips = positive[:, :-1] != positive[:, 1:]
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
        states = limit_states(**{k: v[active] for k, v in params.items()}, T=m,
                              impurity=impurity)
        keep = (concurrence_batch(states) > 0.0) == side[active]
        t_lo[active] = np.where(keep, m, t_lo[active])
        t_hi[active] = np.where(keep, t_hi[active], m)
    thresholds = [None] * len(points)
    for k, t_th in zip(found.tolist(), (0.5 * (t_lo + t_hi)).tolist()):
        thresholds[k] = t_th
    return thresholds, counts.tolist()


def find_threshold_temperature(p: ModelParams, t_range, impurity: bool = True,
                               points: int = 64, tol: float = 1e-6):
    """Largest temperature where the concurrence changes between zero and positive.

    A batch of one of threshold_temperatures: coarse scan with `points`
    samples, then bisection of the last bracket down to `tol`.  Returns None
    when C is identically zero or strictly positive over the whole range.
    """
    return threshold_temperatures([p], t_range, impurity, points, tol)[0][0]


def find_critical_field(p: ModelParams, b_range, target: str,
                        impurity: bool = True, points: int = 64,
                        tol: float = 1e-4, delta_b: float = 1e-3) -> float:
    """Field value extremizing the chosen functional inside b_range.

    target: 'max_concurrence' (maximize C), 'qfi_min' (minimize F) or
    'dqfi_peak' (maximize |dF/dB|).  Coarse scan in one batched call, then
    golden-section refinement of the best interior sample down to `tol` in
    B, one point at a time.  Raises NotFound when the coarse scan is
    monotone (extremum at a boundary), and ConfigError (a ValueError) for a
    tol that is not positive and finite or a scan of fewer than 3 fields
    (an interior sample needs at least 3).
    """
    lo, hi = b_range
    if not lo < hi:
        raise ValueError(f"bad field range {b_range}")
    _check_tol(tol)
    if points < 3:
        raise ConfigError(f"points must be at least 3, got {points!r}")

    if target == "max_concurrence":
        def scan(b: np.ndarray) -> np.ndarray:
            return -concurrence_batch(_states_along(p, "B", b, impurity))

        def objective(b: float) -> float:
            return -_concurrence_at(replace(p, B=b), impurity)
    elif target == "qfi_min":
        def scan(b: np.ndarray) -> np.ndarray:
            return qfi_batch(_states_along(p, "B", b, impurity))

        def objective(b: float) -> float:
            return qfi(impurity_density_matrix(replace(p, B=b), impurity=impurity))
    elif target == "dqfi_peak":
        def scan(b: np.ndarray) -> np.ndarray:
            return -np.abs(qfi_dB_batch(dict(vars(p), B=b), delta_b, impurity))

        def objective(b: float) -> float:
            return -abs(qfi_field_derivative(replace(p, B=b), delta_b=delta_b,
                                             impurity=impurity))
    else:
        raise ConfigError(f"unknown target {target!r}")

    grid = _coarse_grid(lo, hi, points)
    best = int(np.argmin(scan(grid)))
    if best in (0, points - 1):
        raise NotFound(f"{target} has no interior extremum in {b_range}")
    return _golden_section(objective, float(grid[best - 1]), float(grid[best + 1]), tol)


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

def _preset_params(overrides: dict[str, float], **defaults) -> ModelParams:
    merged = dict(defaults)
    merged.update(overrides)
    try:
        return ModelParams(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _curve_sweeps(outdir, stem, base, curve_sets, axis, quantities):
    """One SweepConfig per combination in curve_sets (list of (field, values))."""
    jobs = []
    combos = [{}]
    for field_name, values in curve_sets:
        combos = [dict(c, **{field_name: v}) for c in combos for v in values]
    for combo in combos:
        tag = "_".join(f"{k}{v:g}" for k, v in combo.items())
        out = os.path.join(outdir, f"{stem}_{tag}.csv")
        jobs.append(SweepConfig(
            params=replace(base, **combo),
            axes=(axis,),
            quantities=quantities,
            out=out,
        ))
    return jobs


def _figure_fig3(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, Delta=0.5, J0=1.0, T=0.01)
    return _curve_sweeps(outdir, "fig3", base,
                         [("gamma", (0.0, -0.8)), ("T", (0.01, 0.05, 0.2))],
                         ("B", 0.0, 3.0, 601), ("concurrence",))


def _figure_fig5(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, Delta=0.0, J0=1.0)
    return _curve_sweeps(outdir, "fig5", base,
                         [("gamma", (0.0, -0.8)), ("B", (0.0, 0.5, 1.282, 2.0))],
                         ("T", 0.01, 2.0, 400), ("coherence",))


def _figure_qfi(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, gamma=-0.8, J0=1.0, T=0.05)
    return _curve_sweeps(outdir, "fig_qfi", base,
                         [("Delta", (0.0, 0.5, 1.0, 2.0))],
                         ("B", 0.0, 3.0, 601), ("qfi",))


def _figure_dbqfi(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, gamma=-0.8, J0=1.0, T=0.05)
    return _curve_sweeps(outdir, "fig_dbqfi", base,
                         [("Delta", (0.0, 0.5, 1.0, 2.0))],
                         ("B", 0.0, 3.0, 601), ("qfi_dB",))


def _figure_fig8(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, Delta=0.5, J0=1.0)
    return _curve_sweeps(outdir, "fig8", base,
                         [("gamma", (0.0, -0.8)), ("B", (0.0, 0.5, 1.282, 2.0))],
                         ("T", 0.01, 2.0, 400), ("favg",))


def _figure_fig10(outdir: str, ov: dict) -> list[SweepConfig]:
    base = _preset_params(ov, J=4.0, Delta=0.5, J0=1.0)
    return _curve_sweeps(outdir, "fig10", base,
                         [("gamma", (0.0, -0.8)), ("T", (0.1, 0.6, 1.0))],
                         ("B", 0.0, 5.0, 601), ("favg",))


def _figure_fig22(outdir: str, ov: dict) -> list[str]:
    """Threshold temperature against anisotropy, one file per gamma value.

    Runs in one process: one threshold_temperatures call for the rows of
    both files, whose coarse scans also give the bracket counts.
    """
    base = _preset_params(ov, Delta=0.0, J0=0.7, B=0.5, T=0.05)
    gammas = (0.0, -0.8)
    rows = [replace(base, Delta=2.0 * i / 80.0, gamma=gamma)
            for gamma in gammas for i in range(81)]
    thresholds, counts = threshold_temperatures(rows, (0.01, 1.2))
    written = []
    os.makedirs(outdir, exist_ok=True)
    for k, gamma in enumerate(gammas):
        part = slice(81 * k, 81 * (k + 1))
        out = os.path.join(outdir, f"fig22_threshold_gamma{gamma:g}.csv")
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Delta", "T_threshold", "n_brackets"])
            writer.writerows(
                [_format(p.Delta), "" if t_th is None else _format(t_th), str(n)]
                for p, t_th, n in zip(rows[part], thresholds[part], counts[part]))
        written.append(out)
    return written


FIGURE_PRESETS = {
    "fig3": _figure_fig3,
    "fig5": _figure_fig5,
    "fig-qfi": _figure_qfi,
    "fig-dbqfi": _figure_dbqfi,
    "fig8": _figure_fig8,
    "fig10": _figure_fig10,
    "fig22-threshold": _figure_fig22,
}

# the parameters each preset sets per curve, row, axis or scan; overriding
# one of them is an error, since the preset would silently replace it
_PRESET_OWNED = {
    "fig3": ("gamma", "T", "B"),
    "fig5": ("gamma", "B", "T"),
    "fig-qfi": ("Delta", "B"),
    "fig-dbqfi": ("Delta", "B"),
    "fig8": ("gamma", "B", "T"),
    "fig10": ("gamma", "T", "B"),
    "fig22-threshold": ("Delta", "gamma", "T"),
}


def run_figure(name: str, outdir: str, overrides: dict, workers: int = 1) -> list[str]:
    """Write every data file of one figure preset; returns the paths.

    `overrides` may set any parameter the preset holds fixed; one it sets
    per curve, row, axis or scan raises ConfigError.  `workers` is the
    process count of each sweep preset; fig22-threshold runs in one process.
    """
    if name not in FIGURE_PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {sorted(FIGURE_PRESETS)}")
    owned = [key for key in overrides if key in _PRESET_OWNED[name]]
    if owned:
        raise ConfigError(f"preset {name!r} sets {owned[0]!r} per curve, row, axis or scan, "
                          f"so it cannot be overridden")
    if name == "fig22-threshold":
        return _figure_fig22(outdir, overrides)
    jobs = FIGURE_PRESETS[name](outdir, overrides)
    return [run_sweep(cfg, workers=workers) for cfg in jobs]


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


def _parse_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise ConfigError(f"{key}: expected on/off, got {value!r}")


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
    if not value > 0.0:
        raise ConfigError(f"delta_b must be positive, got {text!r}")
    return value


def build_params(mapping: dict[str, str]) -> ModelParams:
    kwargs = {}
    for key in PARAM_COLUMNS:
        if key in mapping:
            try:
                kwargs[key] = float(mapping[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: not a number: {mapping[key]!r}") from exc
    try:
        return ModelParams(**kwargs)
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
    quantities = tuple(
        q.strip() for q in mapping.get("quantities", "concurrence").split(",") if q.strip()
    )
    delta_b = _parse_delta_b(mapping)
    return SweepConfig(
        params=params,
        axes=tuple(axes),
        quantities=quantities,
        out=mapping.get("out", "sweep.csv"),
        delta_b=delta_b,
        impurity=_parse_bool("impurity", mapping.get("impurity", "on")),
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
    quantities = tuple(
        q.strip() for q in mapping.get("quantities", ",".join(QUANTITY_COLUMNS)).split(",")
        if q.strip()
    )
    impurity = _parse_bool("impurity", mapping.get("impurity", "on"))
    delta_b = _parse_delta_b(mapping)
    record = run_point(params, quantities, impurity=impurity, delta_b=delta_b,
                       alt_correlators=args.debug_paper_correlators)
    columns = list(PARAM_COLUMNS) + list(record.values)
    row = [_format(getattr(params, c)) for c in PARAM_COLUMNS]
    row += [_format(record.values[c]) for c in list(record.values)]
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(columns)
        writer.writerow(row)
    finally:
        if args.out:
            target.close()
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
    params = build_params(mapping)
    impurity = _parse_bool("impurity", mapping.get("impurity", "on"))
    if not 0.0 < args.t_min < args.t_max:
        raise ConfigError(f"need 0 < --t-min < --t-max, got {args.t_min} and {args.t_max}")
    t_th = find_threshold_temperature(params, (args.t_min, args.t_max), impurity=impurity)
    if t_th is None:
        print("none")
        return 4
    print(_format(t_th))
    return 0


def _cmd_critical(args) -> int:
    mapping = _collect_mapping(args)
    params = build_params(mapping)
    impurity = _parse_bool("impurity", mapping.get("impurity", "on"))
    delta_b = _parse_delta_b(mapping)
    target = args.target.replace("-", "_")
    if not args.b_min < args.b_max:
        raise ConfigError(f"need --b-min < --b-max, got {args.b_min} and {args.b_max}")
    b_star = find_critical_field(params, (args.b_min, args.b_max), target,
                                 impurity=impurity, tol=args.tol, delta_b=delta_b)
    print(_format(b_star))
    return 0


def _cmd_figure(args) -> int:
    mapping = _collect_mapping(args)
    overrides = {}
    for key, value in mapping.items():
        if key in PARAM_COLUMNS:
            try:
                overrides[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
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
