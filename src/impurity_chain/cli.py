"""Command-line driver: parameter sweeps, finders and deterministic CSV output.

Subcommands:
  point      compute every requested quantity at a single parameter point
  sweep      run a 1- or 2-axis grid and write one CSV row per grid point
  threshold  locate the largest temperature at which the concurrence dies
  critical   locate a critical field (concurrence max, QFI min, dQFI/dB peak)
  figure     run a named preset that reproduces one figure's data files

Configuration is plain `key = value` text (# comments), overridable with
repeated --set key=value flags; each subparser declares its handler and the
keys it accepts, and any other key is an error.  The parser is built once,
when this module is imported, and every `main` call parses with it.  CSV
output is RFC-4180 style with 17 significant digits in numpy's exact `%.16e`
(_format_array), byte-identical across reruns and worker counts.  Library
callers import run_point, run_sweep and the finders from here.

Exit codes: 0 success, 2 configuration error (a bad or unused key, or an
unwritable output path), 3 numerical failure (a non-finite result or a solver
exception, reported with its parameter point), 4 nothing found (finders).
One `measures.measure_columns` call evaluates each sweep, all the curves of a
figure preset together, each finder's coarse scan and each bisection step.
"""

from __future__ import annotations

import argparse
import concurrent.futures  # perfbench/tracing.py patches its pool class; nothing starts one
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .measures import QUANTITY_COLUMNS, measure_columns
from .model import DELTA_B, ModelParams, OverflowRisk, _point_text
from .xfer import DegenerateGap, InvalidN, NotAState

__all__ = [
    "ConfigError",
    "NotFound",
    "NonFiniteError",
    "SweepConfig",
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


PARAM_COLUMNS = tuple(f.name for f in fields(ModelParams))
SWEEPABLE = ("B", "T", "Delta", "J0", "gamma")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the finders' defaults: temperatures or fields in a coarse scan, and the
# bracket width where the threshold bisection and the critical field's
# golden section stop
_SCAN_POINTS = 64
_THRESHOLD_TOL = 1e-6
_CRITICAL_TOL = 1e-4


# ---------------------------------------------------------------------------
# quantities

def _check_quantities(quantities) -> None:
    """Raise ConfigError for an empty list of quantities, or naming an unknown
    or repeated entry."""
    if not quantities:
        raise ConfigError("no quantities requested")
    for i, q in enumerate(quantities):
        if q not in QUANTITY_COLUMNS:
            raise ConfigError(f"unknown quantity {q!r}; valid: {', '.join(QUANTITY_COLUMNS)}")
        if q in quantities[:i]:
            raise ConfigError(f"quantity {q!r} requested twice")


# ---------------------------------------------------------------------------
# single point

def run_point(p: ModelParams, quantities, delta_b: float = DELTA_B,
              alt_correlators: bool = False) -> dict[str, float]:
    """Every column of the requested quantities at one parameter point.

    A batch of one of the sweep path, with the same bits as that point in a
    sweep; raises ConfigError for an empty list or an unknown or repeated
    quantity, and NonFiniteError (with the point attached) if any output
    fails to be finite.
    """
    _check_quantities(quantities)
    values = _sweep_chunk(vars(p), quantities, delta_b, alt_correlators)
    return {k: float(v[0]) for k, v in values.items()}


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep: fixed parameters, 1-2 axes, quantities, output path."""

    params: ModelParams
    axes: tuple[tuple[str, float, float, int], ...]
    quantities: tuple[str, ...]
    out: str
    delta_b: float = DELTA_B
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
            _axis_values(name, start, stop, count, floor=0.0 if name == "T" else -math.inf)
        _check_quantities(self.quantities)
        _check_positive("delta_b", self.delta_b)


def _grid(cfgs) -> dict[str, np.ndarray]:
    """The points of sweeps that share their axes, one array per ModelParams
    field broadcasting to (sweeps, axis1[, axis2]): each sweep, and each of
    its axes, on its own array axis."""
    axes = cfgs[0].axes
    grid = {c: np.array([getattr(cfg.params, c) for cfg in cfgs]).reshape((-1,) + (1,) * len(axes))
            for c in PARAM_COLUMNS}
    for k, axis in enumerate(axes, start=1):
        grid[axis[0]] = _axis_values(*axis).reshape((1,) * k + (-1,) + (1,) * (len(axes) - k))
    return grid


def _sweep_chunk(columns: dict, quantities, delta_b: float, alt: bool) -> dict:
    """Every column of the points in `columns` (scalars or arrays broadcasting
    to the points' shape), in one evaluator call; with `alt`, the shortcut
    correlators sxsx_alt and szsz_alt last.  Raises NonFiniteError naming
    the first point, in row order, with a non-finite column."""
    requested = tuple(quantities) + (("sxsx_alt", "szsz_alt") if alt else ())
    values = measure_columns(columns, requested, delta_b)
    finite = np.logical_and.reduce([np.isfinite(v) for v in values.values()])
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        bad = [k for k, v in values.items() if not math.isfinite(v.flat[i])]
        point = _point_text([columns[c] for c in PARAM_COLUMNS], i)
        raise NonFiniteError(f"non-finite {bad} at {point}")
    return values


def _axis_values(name: str, start: float, stop: float, count: int,
                 floor: float = -math.inf) -> np.ndarray:
    """`count` >= 2 evenly spaced values from start to stop inclusive; a range
    that is not increasing above `floor`, or a value that is not finite (the
    ends, or an overflow between them), raises ConfigError naming the range."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = start + (stop - start) * np.arange(count) / (count - 1)
    if not (floor < start < stop and np.isfinite(values).all()):
        raise ConfigError(f"bad {name} range ({start!r}, {stop!r}): need {floor:g} < lo < hi "
                          f"and {count} finite values")
    return values


def _format(v: float) -> str:
    return f"{v:.16e}"


def _decimal_tables():
    """_format_array's tables for 10^p, p = -324..340, from exact integers:
    (H + L) 2^E = 10^p with H in [0.5, 1], H's upper 26 bits and the rest
    (Veltkamp's split), and the smallest double >= 10^p."""
    rows = []
    for p in range(-324, 341):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        shift = 130 - num.bit_length() + den.bit_length()
        w = (num << max(shift, 0)) // (den << max(-shift, 0))  # 10^p 2^shift, 130 bits
        bits, high = w.bit_length(), float(w)
        near = num / den if p <= 308 else math.inf
        n, d = near.as_integer_ratio() if p <= 308 else (1, 0)
        rows.append((math.ldexp(high, -bits), math.ldexp(float(w - int(high)), -bits),
                     bits - shift, near if n * den >= num * d else math.nextafter(near, math.inf)))
    high, low, exponent, ceiling = (np.array(column) for column in zip(*rows))
    t = high * (2.0 ** 27 + 1.0)
    high1 = t - (t - high)
    return high, high1, high - high1, low, exponent.astype(np.int32), ceiling


_HIGH, _HIGH1, _HIGH2, _LOW, _EXPONENT, _CEILING = _decimal_tables()
# uint32 words of text: "0000" .. "9999" at i; "\0-d." or "\0\0d." (sign, lead
# digit d) at 10000 + 10 sign + d; "e-324" .. "e+308" null-padded to two words
# at 10020 + 2 (k + 324)
_WORDS = np.frombuffer(
    "".join(f"{i:04d}" for i in range(10000)).encode()
    + b"".join(b"\0" + sign + b"%d." % d for sign in (b"\0", b"-") for d in range(10))
    + b"".join(f"e{k:+03d}".encode().ljust(8, b"\0") for k in range(-324, 309)), np.uint32)
_WIDTH = 28  # bytes of one formatted number
_BLOCK_NUMBERS = 4096  # numbers per _format_array call of _write_csv


def _format_array(x: np.ndarray) -> np.ndarray:
    """`'%.16e' % v` for every v of the float array x, as (len(x), 28) bytes
    padded with nulls.  k = floor(log10 |v|) is corrected against the
    smallest double >= 10^k; N = round(|v| 10^(16 - k)) is frexp's mantissa
    times a double-double 10^(16 - k), with Dekker's exact product (Numer.
    Math. 18 (1971) 224), to within about 2^-47.  A v whose N has a fraction
    within 2^-36 of 1/2 (a tie %.16e rounds to even) or that is not finite
    is _format's."""
    a = np.abs(x)
    zero = a == 0.0
    finite = a < np.inf
    a = np.where(finite & ~zero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    k += (a >= _CEILING.take(k + 325)) - (a < _CEILING.take(k + 324)).astype(np.intp)
    m, e = np.frexp(a)
    i = 340 - k  # 10^(16 - k)
    t = m * (2.0 ** 27 + 1.0)
    m1 = t - (t - m)
    m2 = m - m1
    h, h1, h2 = _HIGH.take(i), _HIGH1.take(i), _HIGH2.take(i)
    high = m * h
    rest = (((m1 * h1 - high) + m1 * h2 + m2 * h1) + m2 * h2) + m * _LOW.take(i)
    e += _EXPONENT.take(i)
    # high is an integer, as N >= 10^16 > 2^53, and N - high is small
    high, rest = np.ldexp(high, e), np.ldexp(rest, e)
    whole = np.floor(rest)
    frac = rest - whole
    n = np.where(zero, 0, high.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5))
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    top, low = n // 10 ** 8, n % 10 ** 8
    words = np.stack([top // 10 ** 8 + 10 * np.signbit(x) + 10000, top // 10 ** 4 % 10 ** 4,
                      top % 10 ** 4, low // 10 ** 4, low % 10 ** 4, 2 * k + 10668, 2 * k + 10669],
                     axis=1)
    text = _WORDS.take(words).view(np.uint8)
    for j in np.flatnonzero(~finite | (np.abs(frac - 0.5) < 2.0 ** -36)).tolist():
        text[j] = np.frombuffer(_format(float(x[j])).encode().ljust(_WIDTH, b"\0"), np.uint8)
    return text


def _write_csv(path, header, columns) -> None:
    """A header line, then a row per element of `columns` (float arrays, or
    numpy bytes arrays of text) with \\r\\n endings, to `path` in a directory
    that _make_dir made, or to stdout when path is None.  Blocks of about
    _BLOCK_NUMBERS numbers are one _format_array call and one byte matrix,
    written without its null padding.  No field (a name, an empty string, a
    finite number or `%d` text) needs quoting: these are csv.writer's bytes.
    """
    widths = [_WIDTH if c.dtype.kind == "f" else c.itemsize for c in columns]
    starts = np.cumsum([0] + [w + 1 for w in widths])  # each field, then its separator
    line = np.frombuffer(b",".join(b"\0" * w for w in widths) + b"\r\n", np.uint8)
    numbers = [c for c in columns if c.dtype.kind == "f"]
    step = max(1, _BLOCK_NUMBERS // len(numbers))
    with contextlib.nullcontext() if path is None else _create(path, "wb") as fh:
        # the CSV is ASCII, and sys.stdout may be a text stream without a byte buffer
        write = fh.write if fh is not None else lambda data: sys.stdout.write(bytes(data).decode())
        write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), step):
            part = [c[start:start + step] for c in columns]
            text = iter(_format_array(np.concatenate([c for c in part if c.dtype.kind == "f"]))
                        .reshape(len(numbers), len(part[0]), _WIDTH))
            block = np.tile(line, (len(part[0]), 1))
            for c, at, width in zip(part, starts, widths):
                block[:, at:at + width] = (next(text) if c.dtype.kind == "f"
                                           else c.view(np.uint8).reshape(-1, width))
            write(block[block != 0])


def _make_dir(path: str) -> None:
    """Make the directory of the output file `path`, before anything is
    computed; a `path` that is a directory, a directory that cannot be made,
    or no write permission (on the file if it exists, else on its directory)
    raises ConfigError naming the path."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")


def _create(path: str, mode: str = "w"):
    """open(path, mode); a path that cannot be written raises ConfigError naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_sweep(cfg: SweepConfig, workers: int = 1) -> str:
    """Run the grid and write the CSV plus a run-manifest sidecar.

    The whole grid is evaluated in this process, whatever `workers` is: a
    process pool cost more to start than the grid it shared out, so `workers`
    changes no byte.  With the impurity off the kernel sees gamma = 0 and the
    CSV the configured gamma.  An output or manifest path that cannot be
    written raises ConfigError before the grid is computed; the files are
    written once every value is finite.  A batch of one of _write_sweeps.
    """
    return _write_sweeps([cfg])[0]


def _write_sweeps(cfgs) -> list[str]:
    """run_sweep of sweeps that differ only in fixed parameters and output
    paths, with one evaluator call over all their points (_grid)."""
    for cfg in cfgs:
        _make_dir(cfg.out)
        _make_dir(cfg.out + ".manifest.txt")
    first = cfgs[0]
    grid = _grid(cfgs)
    values = _sweep_chunk(_with_impurity(grid, first.impurity), first.quantities,
                          first.delta_b, first.alt_correlators)
    # the axes and values over the whole grid (with the impurity off, no
    # value varies along gamma)
    arrays = dict({name: grid[name] for name, *_ in first.axes}, **values)
    arrays = dict(zip(arrays, np.broadcast_arrays(*arrays.values())))
    rows = arrays[first.axes[0][0]][0].size  # of each sweep
    for i, cfg in enumerate(cfgs):
        # fixed parameters are formatted once, as text columns
        columns = [arrays[c][i].ravel() if c in arrays
                   else np.full(rows, _format(getattr(cfg.params, c)).encode())
                   for c in PARAM_COLUMNS]
        _write_csv(cfg.out, PARAM_COLUMNS + tuple(values),
                   columns + [arrays[k][i].ravel() for k in values])
        _write_manifest(cfg)
    return [cfg.out for cfg in cfgs]


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


def concurrence_sign_brackets(p: ModelParams, t_range, points: int = _SCAN_POINTS) -> int:
    """(C > 0) sign changes of C(T) on threshold_temperatures' scan, same ConfigErrors."""
    return int(_coarse_scan([p], t_range, points)[2].sum())


def _coarse_scan(points: list, t_range, count: int):
    """The scan temperatures, C > 0 at each per point, its flips between neighbours
    and the points' other parameters; one evaluator call for every point."""
    if count < 2:
        raise ConfigError(f"points_per_scan must be at least 2, got {count!r}")
    temps = _axis_values("temperature", *t_range, count, floor=0.0)
    params = {name: np.array([getattr(p, name) for p in points], dtype=float)
              for name in PARAM_COLUMNS if name != "T"}
    scan = {k: v[:, None] for k, v in params.items()}
    positive = measure_columns(dict(scan, T=temps[None, :]), ("concurrence",))["concurrence"] > 0.0
    return temps, positive, positive[:, :-1] != positive[:, 1:], params


def threshold_temperatures(points, t_range, points_per_scan: int = _SCAN_POINTS,
                           tol: float = _THRESHOLD_TOL):
    """Largest temperature where the concurrence changes between zero and
    positive, for each parameter point (its own T is not used).

    Every point gets a coarse scan of `points_per_scan` temperatures, all in
    one measure_columns call; every point's sign flips, their count and its
    last bracket are then read from one (points, points_per_scan) boolean
    array.  The last bracket of every point that has one is bisected in
    lockstep, one evaluator call per step over the points still active; a
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
        step = measure_columns(dict({k: v[active] for k, v in params.items()}, T=m),
                               ("concurrence",))
        keep = (step["concurrence"] > 0.0) == side[active]
        t_lo[active] = np.where(keep, m, t_lo[active])
        t_hi[active] = np.where(keep, t_hi[active], m)
    thresholds = [None] * len(points)
    for k, t_th in zip(found.tolist(), (0.5 * (t_lo + t_hi)).tolist()):
        thresholds[k] = t_th
    return thresholds, counts.tolist()


def find_threshold_temperature(p: ModelParams, t_range, points: int = _SCAN_POINTS,
                               tol: float = _THRESHOLD_TOL):
    """Largest temperature where the concurrence changes between zero and positive.

    A batch of one of threshold_temperatures: coarse scan with `points`
    samples, then bisection of the last bracket down to `tol`.  Returns None
    when C is identically zero or strictly positive over the whole range.
    """
    return threshold_temperatures([p], t_range, points, tol)[0][0]


# target -> (quantity, sign): find_critical_field minimizes sign * |quantity|
_TARGETS = {"max_concurrence": ("concurrence", -1.0), "qfi_min": ("qfi", 1.0),
            "dqfi_peak": ("qfi_dB", -1.0)}


def find_critical_field(p: ModelParams, b_range, target: str, points: int = _SCAN_POINTS,
                        tol: float = _CRITICAL_TOL, delta_b: float = DELTA_B) -> float:
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
    _check_positive("tol", tol)
    if points < 3:
        raise ConfigError(f"points must be at least 3, got {points!r}")

    if target not in _TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    quantity, sign = _TARGETS[target]

    def scan(b: np.ndarray) -> np.ndarray:
        return sign * np.abs(measure_columns(dict(vars(p), B=b), (quantity,), delta_b)[quantity])

    grid = _axis_values("field", *b_range, points)
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
    base = _model_params(dict(defaults, **overrides))
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
    values = _axis_values(name, start, stop, count)
    rows = [replace(params, **{name: v}) for params, _ in jobs for v in values.tolist()]
    thresholds, counts = threshold_temperatures(rows, scan[1:])
    cells = np.array([b"" if t is None else _format(t).encode() for t in thresholds])
    counts = np.array(counts).astype(bytes)
    for k, (_, out) in enumerate(jobs):
        part = slice(count * k, count * (k + 1))
        _write_csv(out, (name, "T_threshold", "n_brackets"),
                   [values, cells[part], counts[part]])
    return [out for _, out in jobs]


def run_figure(name: str, outdir: str, overrides: dict, workers: int = 1) -> list[str]:
    """Write every data file of one figure preset; returns the paths.

    `overrides` may set any parameter the preset holds fixed; one it sets
    per curve, axis value or scan point raises ConfigError before any file
    is written, as does a bad output path.  A sweep preset's curves are one
    (curves, axis) grid of one evaluator call, so no file is written unless
    the whole preset is finite.  Every preset runs in this process;
    `workers` is accepted as in run_sweep and changes no byte.
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
    if output[0] not in PARAM_COLUMNS:
        return _write_sweeps([SweepConfig(params=params, axes=(axis,), quantities=output, out=out)
                              for params, out in jobs])
    for _, out in jobs:
        _make_dir(out)
    return _write_thresholds(jobs, axis, output)


# ---------------------------------------------------------------------------
# configuration plumbing

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
    return dict(params, gamma=0.0)


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"axis needs 'name start stop count', got {text!r}")
    name, start, stop, count = parts
    try:
        return name, float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad axis {text!r}: {exc}") from exc


def _number(key: str, text: str) -> float:
    """The value of a number key; text that is not a number raises ConfigError."""
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {text!r}") from exc


def _parse_delta_b(mapping: dict[str, str]) -> float:
    value = _number("delta_b", mapping["delta_b"]) if "delta_b" in mapping else DELTA_B
    _check_positive("delta_b", value)
    return value


def _parse_params(mapping: dict[str, str]) -> dict[str, float]:
    """The parameter keys of a mapping, in its order, as floats."""
    return {key: _number(key, text) for key, text in mapping.items() if key in PARAM_COLUMNS}


def _parse_quantities(mapping: dict[str, str], default: str) -> tuple[str, ...]:
    return tuple(q.strip() for q in mapping.get("quantities", default).split(",") if q.strip())


def _model_params(values: dict) -> ModelParams:
    """ModelParams(**values); a key or value it rejects raises ConfigError."""
    try:
        return ModelParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_params(mapping: dict[str, str]) -> ModelParams:
    return _model_params(_parse_params(mapping))


def build_sweep_config(mapping: dict[str, str], alt_correlators: bool = False) -> SweepConfig:
    params = build_params(mapping)
    if "axis" in mapping and "axis1" in mapping:
        raise ConfigError("keys 'axis' and 'axis1' both name the first sweep axis; give one")
    axes = [_parse_axis(mapping[key]) for key in ("axis", "axis1", "axis2") if key in mapping]
    if not axes:
        raise ConfigError("no sweep axis given (use 'axis = NAME START STOP COUNT')")
    if "axis" not in mapping and "axis1" not in mapping:
        raise ConfigError("key 'axis2' names a second sweep axis, but no first one is given")
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
    unknown = [key for key in mapping if key not in args.keys]
    if unknown:
        raise ConfigError(f"configuration key {unknown[0]!r} is not used by "
                          f"{args.command!r}; valid: {', '.join(args.keys)}")
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

    def command(name, run, keys, **kwargs):
        """A subcommand that `run`s on a configuration of only the `keys`."""
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(run=run, keys=keys)
        sp.add_argument("--config", help="key = value configuration file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
        return sp

    workers_help = "checked to be at least 1; every sweep runs in this one process"
    # threshold scans T and critical scans B, so neither takes that parameter
    point_keys = PARAM_COLUMNS + ("quantities", "impurity", "delta_b")
    sp = command("point", _cmd_point, point_keys, help="evaluate one parameter point")
    sp.add_argument("--out", help="write the one-row CSV here instead of stdout")
    sp.add_argument("--debug-paper-correlators", action="store_true",
                    help="also emit the shortcut correlator variants")

    sp = command("sweep", _cmd_sweep, point_keys + ("axis", "axis1", "axis2", "out"),
                 help="run a parameter grid to CSV")
    sp.add_argument("--out", help="output CSV path (overrides config)")
    sp.add_argument("--workers", type=int, default=1, help=workers_help)
    sp.add_argument("--debug-paper-correlators", action="store_true",
                    help="also emit the shortcut correlator variants")

    sp = command("threshold", _cmd_threshold,
                 tuple(k for k in PARAM_COLUMNS if k != "T") + ("impurity",),
                 help="largest temperature where C(T) dies")
    sp.add_argument("--t-min", type=float, default=0.01)
    sp.add_argument("--t-max", type=float, default=2.0)

    sp = command("critical", _cmd_critical,
                 tuple(k for k in PARAM_COLUMNS if k != "B") + ("impurity", "delta_b"),
                 help="critical field of a chosen functional")
    sp.add_argument("--b-min", type=float, default=0.0)
    sp.add_argument("--b-max", type=float, default=3.0)
    targets = tuple(name.replace("_", "-") for name in _TARGETS)
    sp.add_argument("--target", default=targets[0], choices=targets)
    sp.add_argument("--tol", type=float, default=_CRITICAL_TOL)

    sp = command("figure", _cmd_figure, PARAM_COLUMNS, help="write a figure preset's data files")
    sp.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    sp.add_argument("--out", default="figures", help="output directory")
    sp.add_argument("--workers", type=int, default=1, help=workers_help)

    return parser


def _cmd_point(args) -> int:
    mapping = _collect_mapping(args)
    params = build_params(mapping)
    quantities = _parse_quantities(mapping, ",".join(QUANTITY_COLUMNS))
    impurity = _parse_impurity(mapping)
    delta_b = _parse_delta_b(mapping)
    # the configuration is checked whole before the output directory is made
    _check_quantities(quantities)
    if args.out is not None:
        _make_dir(args.out)
    values = run_point(_with_impurity(params, impurity), quantities, delta_b=delta_b,
                       alt_correlators=args.debug_paper_correlators)
    row = tuple(vars(params).values()) + tuple(values.values())
    _write_csv(args.out, PARAM_COLUMNS + tuple(values), [np.array([v]) for v in row])
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


# built once, when cli is imported: parse_args returns a new Namespace each
# call and holds nothing of the previous one
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
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
