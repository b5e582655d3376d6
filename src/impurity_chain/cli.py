"""Command-line driver: parameter sweeps, finders and deterministic CSV output.

Subcommands:
  point      compute every requested quantity at a single parameter point
  sweep      run a 1- or 2-axis grid and write one CSV row per grid point
  threshold  locate the largest temperature at which the concurrence dies
  critical   locate a critical field (concurrence max, QFI min, dQFI/dB peak)
  figure     run a named preset that reproduces one figure's data files

Configuration is plain `key = value` text (# comments), overridable with
repeated --set key=value flags; each subparser declares its handler and the
keys it accepts, and any other key is an error.  Each key's text is parsed
once, through the table _KEYS.  The parser is built once, when this module
is imported, and every `main` call parses with it.  CSV output is RFC-4180
style with 17 significant digits in numpy's exact `%.16e` (_format_array),
byte-identical across reruns and worker counts.  Library callers import
run_point, run_sweep and the finders from here.

Exit codes: 0 success, 2 configuration error (a bad or unused key, or an
unwritable output path or standard output), 3 numerical failure (a
non-finite result or a solver exception, reported with its parameter
point), 4 nothing found (finders).
One `measures.measure_columns` call evaluates each sweep, all the curves of a
figure preset together, each finder's coarse scan, each rescan and each
bisection step.
"""

from __future__ import annotations

import argparse
import concurrent.futures  # perfbench/tracing.py patches its pool class; nothing starts one
import contextlib
import functools
import math
import os
import re
import stat
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .measures import QUANTITY_COLUMNS, measure_columns
from .model import _PARAM_NAMES as PARAM_COLUMNS, DELTA_B, ModelParams, OverflowRisk, _point_text
from .xfer import DegenerateGap

__all__ = [
    "ConfigError",
    "NotFound",
    "NonFiniteError",
    "SweepConfig",
    "run_point",
    "run_sweep",
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


SWEEPABLE = ("B", "T", "Delta", "J0", "gamma")

# the finders' resolution: samples in a scan or rescan, the bracket width where
# the threshold bisection stops, and the default of the critical field's `tol`
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


def _grid(params, axes) -> dict[str, np.ndarray]:
    """The points of sweeps of the ModelParams `params` over the same 0-2 `axes`,
    one float array per field broadcasting to (sweeps[, axis1[, axis2]]): each
    sweep, and each of its axes, on its own array axis."""
    grid = {c: np.array([getattr(p, c) for p in params], dtype=float)
            .reshape((-1,) + (1,) * len(axes)) for c in PARAM_COLUMNS}
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
    that is not increasing above `floor`, a value that is not finite (the ends,
    or an overflow between them) or a count past memory raises ConfigError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = start + (stop - start) * np.arange(count) / (count - 1)
    except (MemoryError, ValueError) as exc:  # past the memory, or past numpy's size limit
        raise ConfigError(f"bad {name} range ({start!r}, {stop!r}): {count} values are too "
                          f"many to hold") from exc
    if not (floor < start < stop and np.isfinite(values).all()):
        raise ConfigError(f"bad {name} range ({start!r}, {stop!r}): need {floor:g} < lo < hi "
                          f"and {count} finite values")
    return values


def _format(v: float) -> str:
    return f"{v:.16e}"


def _decimal_tables():
    """_format_array's tables for 10^p, p = -324..340, from exact integers:
    (H + L) 2^E = 10^p with H in [0.5, 1], as the rows (H, H's upper 26 bits,
    the rest of H (Veltkamp's split), L); E; and the smallest double >= 10^p."""
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
    return np.stack([high, high1, high - high1, low], axis=1), exponent.astype(np.int32), ceiling


_POWERS, _EXPONENT, _CEILING = _decimal_tables()
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
    padded with nulls.  With |v| = m 2^e (frexp), k = floor(log10 |v|) is
    ((e - 1) 78913) >> 18 or one more, as the smallest double >= 10^k says;
    N = round(|v| 10^(16 - k)) is m times a double-double 10^(16 - k), with
    Dekker's exact product (Numer. Math. 18 (1971) 224), to within 2^-47.  A
    v whose N has a fraction within 2^-36 of 1/2 (a tie %.16e rounds to even)
    or rounds up to 10^17, or that is not finite, is _format's."""
    a = np.abs(x)
    zero = a == 0.0
    finite = a < np.inf
    a = np.where(finite & ~zero, a, 1.0)
    m, e = np.frexp(a)
    k = ((e - 1) * 78913) >> 18
    k += a >= _CEILING.take(k + 325)
    i = 340 - k  # 10^(16 - k)
    h, h1, h2, low = _POWERS.take(i, axis=0).T
    t = m * (2.0 ** 27 + 1.0)
    m1 = t - (t - m)
    m2 = m - m1
    high = m * h
    rest = (((m1 * h1 - high) + m1 * h2 + m2 * h1) + m2 * h2) + m * low
    e += _EXPONENT.take(i)
    # high is an integer, as N >= 10^16 > 2^53, and N - high is small
    high, rest = np.ldexp(high, e), np.ldexp(rest, e)
    whole = np.floor(rest)
    frac = rest - whole
    n = np.where(zero, 0, high.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5))
    # int32 _WORDS indices by three integer divisions; a minus sign adds 10 to the lead digit
    top, words = n // 10 ** 8, np.empty((7, len(x)), np.int32)
    words[2], words[4] = top + np.signbit(x) * 10 ** 9, n - top * 10 ** 8
    words[1:4:2] = words[2:5:2] // 10 ** 4
    words[2:5:2] -= words[1:4:2] * 10 ** 4
    words[0] = words[1] // 10 ** 4
    words[1] -= words[0] * 10 ** 4
    words[0] += 10000
    words[5:] = 2 * k + np.array([[10668], [10669]], np.int32)
    text = _WORDS.take(words.T).view(np.uint8)
    # a tie, which %.16e rounds to even, a round-up to 18 digits, inf and nan
    fallback = ~finite | (np.abs(frac - 0.5) < 2.0 ** -36) | (n == 10 ** 17)
    for j in np.flatnonzero(fallback).tolist():
        text[j] = np.frombuffer(_format(float(x[j])).encode().ljust(_WIDTH, b"\0"), np.uint8)
    return text


def _write_csv(paths, header, columns) -> None:
    """A header line, then the rows of `columns` with \\r\\n endings, to each
    of `paths` (files that share the header and the row layout) in turn: to
    a path in a directory that _make_dir made, rewritten in place and cut to
    length (_create), or to stdout (_stdout) for None.  A column is bytes
    that every row repeats, or an array that broadcasts to (files, rows):
    floats, or numpy bytes text; text that is constant along the rows, as
    bytes or a (files, 1) array, goes into each file's row template.  Blocks
    of at most _BLOCK_NUMBERS numbers (rows, if none) run over the files'
    rows in order, each one _format_array call; each file's part of a block
    is one byte matrix, written without its null padding.  A failed write
    leaves the files before it complete.  No field (a name, an empty string,
    a finite number or `%d` text) needs quoting: these are csv.writer's bytes."""
    columns = [np.array([[c]]) if isinstance(c, bytes) else c for c in columns]
    files, rows = len(paths), max(c.shape[-1] for c in columns)
    widths = [_WIDTH if c.dtype.kind == "f" else c.itemsize for c in columns]
    line = np.frombuffer(b",".join(b"\0" * w for w in widths) + b"\r\n", np.uint8)
    templates = np.tile(line, (files, 1))
    numbers, texts = [], []  # (the rows of every file in one array, field start, width)
    for c, at, width in zip(columns, np.cumsum([0] + [w + 1 for w in widths]), widths):
        if c.dtype.kind != "f" and c.shape[-1] == 1:
            templates[:, at:at + width] = c.view(np.uint8).reshape(-1, width)
        else:
            # (np.broadcast_to costs 5 us a call; most columns have the shape already)
            flat = c if c.size == files * rows else np.broadcast_to(c, (files, rows))
            (numbers if c.dtype.kind == "f" else texts).append((flat.reshape(-1), at, width))
    step = max(1, _BLOCK_NUMBERS // max(1, len(numbers)))
    for i, path in enumerate(paths):
        with contextlib.nullcontext() if path is None else _create(path) as fh:
            # the CSV is ASCII, and sys.stdout may be a text stream without a byte buffer
            write = fh.write if fh is not None else lambda data: _stdout(bytes(data).decode())
            write((",".join(header) + "\r\n").encode())
            start, end = i * rows, (i + 1) * rows
            while start < end:
                # a part ends at a block's or a file's end, so each block's
                # first row starts a part, and its numbers are formatted there
                first = start - start % step
                if numbers and start == first:
                    text = _format_array(np.concatenate([c[start:start + step] for c, _, _
                                                         in numbers]))
                    text = text.reshape(len(numbers), -1, _WIDTH)
                stop = min(end, first + step)
                part = np.tile(templates[i], (stop - start, 1))
                for k, (_, at, width) in enumerate(numbers):
                    part[:, at:at + width] = text[k, start - first:stop - first]
                for c, at, width in texts:
                    part[:, at:at + width] = c[start:stop].view(np.uint8).reshape(-1, width)
                write(part[part != 0])
                start = stop


def _make_dir(path: str) -> None:
    """Make the directory of the output file `path`, before anything is
    computed; a `path` that is empty or has a null byte, one that the file
    system cannot name or that is a directory, a directory that cannot be
    made, or no write permission (on the file if it exists, else on its
    directory) raises ConfigError naming the path."""
    try:
        name = os.fsencode(path)
    except UnicodeEncodeError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    if not name:
        raise ConfigError(f"cannot write {path!r}: empty path")
    if b"\0" in name:
        raise ConfigError(f"cannot write {path!r}: embedded null byte")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")


def _stdout(text: str) -> None:
    """Write `text` to standard output and flush it.  A closed standard
    output (None, or a closed stream), or a failed write or flush, raises
    ConfigError; after a failure sys.stdout is set to None, which drops the
    unwritten bytes that the interpreter's flush at exit would fail on again."""
    if sys.stdout is None:
        raise ConfigError("cannot write standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, ValueError) as exc:
        sys.stdout = None
        raise ConfigError(f"cannot write standard output: {exc}") from exc


@contextlib.contextmanager
def _create(path: str):
    """Open `path` to be rewritten in place, as a binary file: when the
    block ends, also after a failed write, a regular file is cut to the bytes
    written.  Unlike open(path, "wb"), it does not truncate the file to zero
    first, which on ext4 costs several times more than writing over it.  A
    new file gets the same mode (0o666 & ~umask); an existing one keeps its
    inode, owner, mode and hard links.  A device or FIFO (/dev/null,
    /dev/stdout) is not cut.  A run killed mid-write can leave the old
    file's tail after the new bytes.  An OSError from the open, a write, the
    flush, the cut or the close raises ConfigError naming the path."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            try:
                yield fh
                fh.flush()
            finally:
                # cut at the bytes that reached the file, also after a failed write
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.raw.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_sweep(cfg: SweepConfig, workers: int = 1) -> str:
    """Run the grid and write the CSV plus a run-manifest sidecar.

    The whole grid is evaluated in this process, whatever `workers` is: a
    process pool cost more to start than the grid it shared out, so `workers`
    changes no byte.  With the impurity off the kernel sees gamma = 0 and the
    CSV the configured gamma.  An output or manifest path that cannot be
    written raises ConfigError before the grid is computed; the files are
    written once every value is finite, each over its old bytes in place and
    cut to length (_create), and a failed write raises ConfigError too.  A
    batch of one of _write_sweeps.
    """
    return _write_sweeps([cfg])[0]


def _write_sweeps(cfgs) -> list[str]:
    """run_sweep of sweeps that differ only in fixed parameters and output
    paths, with one evaluator call over all their points (_grid) and one
    _write_csv call over all their CSVs; the manifests follow, in the same
    order, once every CSV is written.  The axes are formatted once, in one
    call; each fixed parameter by _format, into its file's row template."""
    for cfg in cfgs:
        _make_dir(cfg.out)
        _make_dir(cfg.out + ".manifest.txt")
    first = cfgs[0]
    grid = _grid([cfg.params for cfg in cfgs], first.axes)
    values = _sweep_chunk(grid if first.impurity else dict(grid, gamma=0.0), first.quantities,
                          first.delta_b, first.alt_correlators)
    shape = (len(cfgs),) + tuple(count for *_, count in first.axes)
    text = _format_array(np.concatenate([grid[name].ravel() for name, *_ in first.axes]))
    parts = np.split(text.view(f"S{_WIDTH}").ravel(), np.cumsum(shape[1:])[:-1])
    axes = {name: np.broadcast_to(t.reshape(grid[name].shape[1:]), shape[1:]).ravel()
            for (name, *_), t in zip(first.axes, parts)}
    columns = [axes[c] if c in axes else
               np.array([_format(getattr(cfg.params, c)).encode() for cfg in cfgs])[:, None]
               for c in PARAM_COLUMNS]
    # (with the impurity off, no value varies along gamma)
    _write_csv([cfg.out for cfg in cfgs], PARAM_COLUMNS + tuple(values),
               columns + [(v if v.shape == shape else np.broadcast_to(v, shape))
                          .reshape(len(cfgs), -1) for v in values.values()])
    for cfg in cfgs:
        _write_manifest(cfg)
    return [cfg.out for cfg in cfgs]


def _write_manifest(cfg: SweepConfig) -> None:
    lines = [f"tool = impurity-chain {__version__}"]
    lines += [f"{name} = {getattr(cfg.params, name)!r}" for name in PARAM_COLUMNS]
    for i, (name, start, stop, count) in enumerate(cfg.axes, start=1):
        lines.append(f"axis{i} = {name} {start!r} {stop!r} {count}")
    lines.append(f"quantities = {','.join(cfg.quantities)}")
    if cfg.alt_correlators:
        lines.append("debug_paper_correlators = on")
    lines.append(f"impurity = {'on' if cfg.impurity else 'off'}")
    lines.append(f"delta_b = {cfg.delta_b!r}")
    lines.append(f"out = {cfg.out}")
    # UTF-8 whatever the locale; surrogate-escaped argv bytes go back out as given
    with _create(cfg.out + ".manifest.txt") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


# ---------------------------------------------------------------------------
# finders

def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def concurrence_sign_brackets(p: ModelParams, t_range) -> int:
    """(C > 0) sign changes of C(T) on _thresholds' scan, same ConfigErrors."""
    return int(_coarse_scan(_grid([p], ()), t_range)[2].sum())


def _coarse_scan(params: dict, t_range):
    """The scan temperatures, C > 0 at each per point of _thresholds' `params`
    and its flips between neighbours; one evaluator call for every point."""
    temps = _axis_values("temperature", *t_range, _SCAN_POINTS, floor=0.0)
    scan = {k: v[:, None] for k, v in params.items()}
    positive = measure_columns(dict(scan, T=temps[None, :]), ("concurrence",))["concurrence"] > 0.0
    return temps, positive, positive[:, :-1] != positive[:, 1:]


def _thresholds(params: dict, t_range):
    """Largest temperature where the concurrence changes between zero and
    positive, for each point of `params`' 1-D arrays (its own T is not used).

    Every point gets a coarse scan of _SCAN_POINTS (64) temperatures, all in
    one measure_columns call; every point's sign flips, their count and its
    last bracket are then read from one (points, 64) boolean array.  The
    last bracket of every point that has one is bisected in lockstep, one
    evaluator call per step over the points still active; a point stops
    when its bracket is no wider than _THRESHOLD_TOL (1e-6) or its midpoint
    equals an end.  Returns the arrays (thresholds, bracket_counts): a
    threshold is nan where C is identically zero or strictly positive on the
    scan, and a count is the number of sign changes on that scan.  Raises
    ConfigError (a ValueError) for a range that is not finite with 0 < lo < hi.
    """
    temps, positive, flips = _coarse_scan(params, t_range)
    counts = flips.sum(axis=1)
    found = np.flatnonzero(counts)
    last = _SCAN_POINTS - 2 - np.argmax(flips[found, ::-1], axis=1)
    params = {k: v[found] for k, v in params.items()}
    t_lo, t_hi = temps[last], temps[last + 1]
    side = positive[found, last]
    while True:
        mid = 0.5 * (t_lo + t_hi)
        active = np.flatnonzero((t_hi - t_lo > _THRESHOLD_TOL) & (mid != t_lo) & (mid != t_hi))
        if not active.size:
            break
        m = mid[active]
        step = measure_columns(dict({k: v[active] for k, v in params.items()}, T=m),
                               ("concurrence",))
        keep = (step["concurrence"] > 0.0) == side[active]
        t_lo[active] = np.where(keep, m, t_lo[active])
        t_hi[active] = np.where(keep, t_hi[active], m)
    thresholds = np.full(len(counts), np.nan)
    thresholds[found] = 0.5 * (t_lo + t_hi)
    return thresholds, counts


def find_threshold_temperature(p: ModelParams, t_range):
    """Largest temperature where the concurrence changes between zero and positive.

    A batch of one of _thresholds, fig22's core: a coarse scan of 64
    temperatures, then bisection of the last bracket down to 1e-6.  Returns
    None when C is identically zero or strictly positive over the whole range.
    """
    t_th = float(_thresholds(_grid([p], ()), t_range)[0][0])
    return None if math.isnan(t_th) else t_th


# target -> (quantity, sign): find_critical_field minimizes sign * |quantity|
_TARGETS = {"max_concurrence": ("concurrence", -1.0), "qfi_min": ("qfi", 1.0),
            "dqfi_peak": ("qfi_dB", -1.0)}


def find_critical_field(p: ModelParams, b_range, target: str, tol: float = _CRITICAL_TOL,
                        delta_b: float = DELTA_B) -> float:
    """Field value extremizing the chosen functional inside b_range.

    target: 'max_concurrence' (maximize C), 'qfi_min' (minimize F) or
    'dqfi_peak' (maximize |dF/dB|).  A coarse scan of _SCAN_POINTS (64)
    fields, then rescans of the bracket between the best sample's two
    neighbours (clipped to the scan) with 64 fields, each scan one batched
    call, until that bracket is no wider than `tol` or stops shrinking;
    returns the best sample.  Raises NotFound when the coarse scan is
    monotone (extremum at a boundary), and ConfigError (a ValueError) for a
    range that is not finite and increasing or a tol that is not positive
    and finite.
    """
    _check_positive("tol", tol)
    if target not in _TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    quantity, sign = _TARGETS[target]

    (lo, hi), width = b_range, math.inf
    while True:
        grid = _axis_values("field", lo, hi, _SCAN_POINTS)
        values = measure_columns(dict(vars(p), B=grid), (quantity,), delta_b)[quantity]
        best = int(np.argmin(sign * np.abs(values)))
        if width == math.inf and best in (0, _SCAN_POINTS - 1):
            raise NotFound(f"{target} has no interior extremum in {b_range}")
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, _SCAN_POINTS - 1)]
        if not tol < hi - lo < width:
            return float(grid[best])
        width = hi - lo


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
    """One CSV per curve: the threshold temperature over the scan (empty if
    none) and its bracket count at every axis value.  All curves' rows are one
    _thresholds call over their _grid, formatted with the axis in one call
    and written as text in one _write_csv call."""
    name, _, _, count = axis
    grid = _grid([params for params, _ in jobs], (axis,))  # (curves, 1) and (1, count)
    thresholds, counts = _thresholds({k: np.broadcast_to(v, (len(jobs), count)).ravel()
                                      for k, v in grid.items()}, scan[1:])
    text = _format_array(np.concatenate([grid[name].ravel(), thresholds])).view(f"S{_WIDTH}")
    text, cells = text[:count, 0], np.where(np.isnan(thresholds), b"", text[count:, 0])
    paths = [out for _, out in jobs]
    _write_csv(paths, (name, "T_threshold", "n_brackets"),
               [text, cells.reshape(len(jobs), count),
                counts.astype(bytes).reshape(len(jobs), count)])
    return paths


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

def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines of UTF-8 text, after one leading byte-order
    mark; '#' starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.removeprefix("\ufeff" if lineno == 1 else "").split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                mapping[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return mapping


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"axis needs 'name start stop count', got {text!r}")
    try:
        return parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad axis {text!r}: {exc}") from exc


def _number(key: str, text: str) -> float:
    """The value of a number key; text that is not a number raises ConfigError."""
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {text!r}") from exc


def _on_off(text: str) -> bool:
    if text.lower() not in ("1", "true", "on", "yes", "0", "false", "off", "no"):
        raise ConfigError(f"impurity: expected on/off, got {text!r}")
    return text.lower() in ("1", "true", "on", "yes")


# configuration key -> the function that turns its text into its value
_KEYS = {
    **{key: functools.partial(_number, key) for key in PARAM_COLUMNS + ("delta_b",)},
    **dict.fromkeys(("axis", "axis1", "axis2"), _parse_axis),
    "impurity": _on_off,
    "quantities": lambda text: tuple(q.strip() for q in text.split(",") if q.strip()),
    "out": str,
}
# the value of an accepted key that the configuration does not give
_DEFAULTS = {"impurity": True, "delta_b": DELTA_B, "out": "sweep.csv"}


def _collect_mapping(args) -> dict:
    """The config file's and the --set flags' keys (a flag wins), each parsed
    by _KEYS in the order given, and the _DEFAULTS of the command's other
    keys; an unused key or a rejected value raises ConfigError."""
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
    values = {key: _KEYS[key](text) for key, text in mapping.items()}
    values = {key: value for key, value in _DEFAULTS.items() if key in args.keys} | values
    _check_positive("delta_b", values.get("delta_b", DELTA_B))
    return values


def _model_params(values: dict) -> ModelParams:
    """ModelParams(**values); a key or value it rejects raises ConfigError."""
    try:
        return ModelParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _point(values: dict) -> tuple[ModelParams, ModelParams]:
    """The configured parameters of a command's `values`, and the point it
    evaluates: the homogeneous chain, gamma = 0, under `impurity = off`."""
    params = _model_params({k: v for k, v in values.items() if k in PARAM_COLUMNS})
    return params, params if values["impurity"] else replace(params, gamma=0.0)


def build_sweep_config(values: dict, alt_correlators: bool = False) -> SweepConfig:
    params, _ = _point(values)
    if "axis" in values and "axis1" in values:
        raise ConfigError("keys 'axis' and 'axis1' both name the first sweep axis; give one")
    axes = [values[key] for key in ("axis", "axis1", "axis2") if key in values]
    if not axes:
        raise ConfigError("no sweep axis given (use 'axis = NAME START STOP COUNT')")
    if "axis" not in values and "axis1" not in values:
        raise ConfigError("key 'axis2' names a second sweep axis, but no first one is given")
    return SweepConfig(params=params, axes=tuple(axes),
                       quantities=values.get("quantities", ("concurrence",)), out=values["out"],
                       delta_b=values["delta_b"], impurity=values["impurity"],
                       alt_correlators=alt_correlators)


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
        # -5e-1 and -inf are values, not options (Python 3.11's argparse knows only -5 and -.5)
        sp._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
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
    config = _collect_mapping(args)
    params, evaluated = _point(config)
    quantities = config.get("quantities", tuple(QUANTITY_COLUMNS))
    # the configuration is checked whole before the output directory is made
    _check_quantities(quantities)
    if args.out is not None:
        _make_dir(args.out)
    values = run_point(evaluated, quantities, delta_b=config["delta_b"],
                       alt_correlators=args.debug_paper_correlators)
    row = tuple(vars(params).values()) + tuple(values.values())
    _write_csv([args.out], PARAM_COLUMNS + tuple(values), [np.array([v]) for v in row])
    return 0


def _cmd_sweep(args) -> int:
    values = _collect_mapping(args)
    if args.out is not None:
        values["out"] = args.out
    cfg = build_sweep_config(values, alt_correlators=args.debug_paper_correlators)
    _stdout(run_sweep(cfg, workers=_workers(args)) + "\n")
    return 0


def _cmd_threshold(args) -> int:
    t_th = find_threshold_temperature(_point(_collect_mapping(args))[1], (args.t_min, args.t_max))
    _stdout("none\n" if t_th is None else _format(t_th) + "\n")
    return 4 if t_th is None else 0


def _cmd_critical(args) -> int:
    values = _collect_mapping(args)
    b_star = find_critical_field(_point(values)[1], (args.b_min, args.b_max),
                                 args.target.replace("-", "_"), tol=args.tol,
                                 delta_b=values["delta_b"])
    _stdout(_format(b_star) + "\n")
    return 0


def _cmd_figure(args) -> int:
    # the overrides stay numbers until run_figure has checked the keys it owns
    for path in run_figure(args.preset, args.out, _collect_mapping(args), workers=_workers(args)):
        _stdout(path + "\n")
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
    except (NonFiniteError, FloatingPointError, OverflowRisk, DegenerateGap) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
