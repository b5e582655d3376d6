"""The defect dimer's reduced state in the finite ring and the infinite chain, and log Z.

The classical trace over nodal spins is a product of 2x2 transfer matrices
W = [[w(+1), w(0)], [w(0), w(-1)]], one per cell, whose entries are the
cell's Boltzmann sums in the three nodal sectors.  The chain carries one
defect cell, so the defect dimer's unnormalized state is sum_s c(s) P(s):
the defect's thermal cell matrices P(s), weighted by host coefficients c(s)
that the rest of the chain supplies.  In the N-cell ring they are
(M++, 2 M+-, M--) of M = W_h^(N-1); in the thermodynamic limit they are the
host's dominant projector, (Q + D, 4 w0, Q - D).  The defect's fields are
those of the host scaled by 1 + gamma, so the homogeneous chain, whose
defect cell is a host cell, is the chain at gamma = 0.

One batched kernel computes both, and log Z_N with the ring: closed-form
spectra, per-family energy shifts, host coefficients free of cancellation,
log-domain mixing of the sectors and a trace-against-weight-sum check.  The
limit's host coefficients and the defect's central eigenvectors come from
one 2x2 eigenprojector (_projector) free of cancellation and of any mixing
angle, so the kernel takes no trigonometric function; the ring's come from
binary powering over nonnegative entries.  Nothing is divided by w0; the
ring's coefficients involve no subtraction and the limit's only
D = w(+1) - w(-1), so no state loses digits when host and defect favour
different nodal sectors at low T.  Every argument, T included, broadcasts
to the points' shape from the right, and the kernel's constant tables take
the rank of its widest argument, with at least one axis.  The levels,
shifts and projectors take the shape of the arguments but T, so on rows of
parameters over a temperature axis the kernel takes them once per row.
limit_states takes points of any shape in kernel calls cut along the first
axis, each of at most 601 temperature-free points (of the arguments but T)
and 2,048 points in all.

A call of a few points costs its numpy operations, not its arithmetic, so
the kernel makes few of them and keeps every bit: a float parameter stays a
Python float; the four diagonal levels are one expression over constant
sign tables (_leading_axes); each projector's select is one np.where over
its three rows; and sums of three or four terms are np.add.reduce calls,
which add so few in index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, OverflowRisk, SECTOR_VALUES, _point_text, _raise_at

__all__ = [
    "InvalidN",
    "DegenerateGap",
    "NotAState",
    "XState",
    "partition_function",
    "limit_states",
    "impurity_density_matrix",
    "finite_n_density_matrix",
]


class InvalidN(ValueError):
    """Chain length must be an integer >= 2."""


class DegenerateGap(ArithmeticError):
    """A degenerate dominant host eigenvalue, or sector weights that vanish or disagree."""


class NotAState(ValueError):
    """Matrix fails Hermiticity, trace or positivity checks beyond tolerance."""


@dataclass(frozen=True)
class XState:
    """Two-qubit X-form density matrix: four populations + one real coherence.

    Basis {|00>, |01>, |10>, |11>}; r23 is the (|01>, |10>) matrix element.
    The anti-diagonal corners vanish identically for this model.
    """

    r11: float
    r22: float
    r33: float
    r44: float
    r23: float

    @property
    def trace(self) -> float:
        return self.r11 + self.r22 + self.r33 + self.r44

    def column(self) -> np.ndarray:
        """The five elements as a (5, 1) batch of one, for the array measures."""
        return np.array([[self.r11], [self.r22], [self.r33], [self.r44], [self.r23]])

    def to_matrix(self) -> np.ndarray:
        return np.array([
            [self.r11, 0.0, 0.0, 0.0],
            [0.0, self.r22, self.r23, 0.0],
            [0.0, self.r23, self.r33, 0.0],
            [0.0, 0.0, 0.0, self.r44],
        ])

    def eigenvalues(self) -> np.ndarray:
        """Closed-form eigenvalues, ascending: r11, r44 and the central pair."""
        mean = 0.5 * (self.r22 + self.r33)
        half_gap = 0.5 * math.hypot(self.r22 - self.r33, 2.0 * self.r23)
        return np.sort([self.r11, self.r44, mean + half_gap, mean - half_gap])

    def validate(self) -> "XState":
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise NotAState(f"element {name} = {value!r} is not finite")
        if abs(self.trace - 1.0) > _TRACE_TOL:
            raise NotAState(f"trace {self.trace!r} deviates from 1 beyond {_TRACE_TOL:g}")
        if float(self.eigenvalues()[0]) < -_PSD_TOL:
            raise NotAState(f"negative eigenvalue {self.eigenvalues()[0]:.3e}")
        return self


# the smallest normal float: below it 1/T overflows, and 4 w0^2 underflows
_TINY = float(np.finfo(float).tiny)
# limit_states' kernel calls: at most _FREE_POINTS points of the broadcast of
# every argument but T, whose levels and projectors a call builds once for
# all its temperatures, and _POINTS points in all, which bounds the memory.
# On a 2-CPU Xeon, a pass of the figure presets took 0.92 of the time of
# 601-point calls with a points cap of 1,202, and 0.86 with 2,048 or 4,096;
# a 4 x 601 field grid that shares no temperature took 1.19 ms in 601-point
# calls and 1.51 ms in calls of up to 2,048 points
_FREE_POINTS = 601
_POINTS = 2048
# XState.validate's bounds on |trace - 1| and on a negative eigenvalue
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-12


@functools.cache
def _leading_axes(rank: int):
    """The kernel's constant tables, each with `rank` point axes of length 1.

    The axes ahead of the points are level (the dimer block's diagonal e00,
    a, b and e33), family (the host, then the defect with fields scaled by
    1 + gamma) and sector (nodal sums s = +1, 0, -1).  The four diagonal
    levels are one expression over them,

        (zz s_zz + J0 s_nodal - g1 B s/2) + (b2 + b3 s_zz) s_field,

    with the sign tables s_zz = (1, -1, -1, 1), s_nodal = (1, 1, -1, -1) s/2
    and s_field = (-1, -1, 1, 1)/2.  A product with +-1 or +-1/2 is exact
    and x + (-y) is x - y, so every level has the bits of its terms written
    out, e00 = zz + J0 s/2 - g1 B s/2 - (b2 + b3)/2 and so on.  Returns
    (s_zz, s_nodal, s/2, s_field, family).
    """
    pad = (1,) * rank
    signs = np.array([1.0, -1.0, -1.0, 1.0]).reshape((4, 1, 1) + pad)
    half = (np.array(SECTOR_VALUES, dtype=float) / 2.0).reshape((3,) + pad)
    nodal = np.array([1.0, 1.0, -1.0, -1.0]).reshape((4, 1, 1) + pad) * half
    field = np.array([-0.5, -0.5, 0.5, 0.5]).reshape((4, 1, 1) + pad)
    family = np.array([0.0, 1.0]).reshape((2, 1) + pad)
    return signs, nodal, half, field, family


def _projector(x, y, z):
    """g = hypot(d, 2y) with d = x - z, and (g + d, 2y, g - d), elementwise: the
    eigenvalue gap of the symmetric [[x, y], [y, z]] and 2g times its upper
    eigenprojector, whose three entries are the rows of one array.  The
    smaller of g -+ d is 4y^2 / (g + |d|), never a difference of close
    numbers ((2y / (g + |d|)) 2y where 4y^2 underflows); at g = 0 the
    projector is (1, 0, 0), and nothing is divided by 0.
    """
    d = x - z
    off = 2.0 * y
    gap = np.hypot(d, off)
    square = off * off
    # rows g + |d|, 2y and the smaller of g -+ d are the projector where
    # d >= 0; reversed, which swaps the ends and keeps 2y, where d < 0
    ends = np.empty((3,) + gap.shape)
    big = np.add(gap, np.abs(d), out=ends[0])
    ends[1] = off
    # one-point calls pay per numpy operation, so the selects run only in
    # batches where 4y^2 underflows somewhere (as it does wherever g = 0)
    if np.minimum.reduce(square, axis=None) < _TINY:
        big[~(big > 0.0)] = 1.0
        ends[2] = np.where(square < _TINY, off / big * off, square / big)
    else:
        np.divide(square, big, out=ends[2])
    return gap, np.where(d >= 0.0, ends, ends[::-1])


def _host_power(w1, w0, wm, k: int):
    """Entries (M++, M+-, M--) of M = W^k, W = [[w1, w0], [w0, wm]], scaled to
    a largest entry of 1, and the log of that scale.

    Binary powering: every product is a sum of products of nonnegative
    numbers, renormalised by its largest entry, so nothing cancels or
    overflows.  Powers of one symmetric matrix commute, so each product is
    symmetric and three entries carry it.
    """
    def scaled(a, b, c):
        top = np.maximum(np.maximum(a, b), c)
        return (a / top, b / top, c / top), np.log(top)

    base, base_log = scaled(w1, w0, wm)
    power = None
    while True:
        if k & 1:
            if power is None:
                power, log_scale = base, base_log
            else:
                (a, b, c), (d, e, f) = power, base
                power, step = scaled(a * d + b * e, a * e + b * f, b * e + c * f)
                log_scale = log_scale + base_log + step
        k >>= 1
        if not k:
            return power, log_scale
        a, b, c = base
        base, step = scaled(a * a + b * b, b * (a + c), b * b + c * c)
        base_log = 2.0 * base_log + step


def _kernel(args, ring: int | None = None):
    """States (5, *points) of the defect dimer, and log Z of the ring.

    `args` are the ModelParams fields as scalars or arrays broadcasting to
    the points' shape from the right, T included; the points have the rank
    of the widest argument, and at least one axis.  Levels, shifts and
    projectors take the shape of the arguments but T, so (rows, 1) rows over
    (k,) temperatures take them once per row.  With ring=None the
    host coefficients are the infinite chain's dominant projector and log Z
    is None; with ring=N they are those of W_h^(N-1) in the N-cell ring,
    and log Z_N is returned with the points' shape.  See limit_states for
    the guards.
    """
    # a float stays a Python float, whose arithmetic costs no numpy call; any
    # other scalar, a list or an array is converted
    params = [a if isinstance(a, float) else np.asarray(a, dtype=float) for a in args[:-1]]
    J, Delta, J0, g1, g2, g3, gamma, B = params
    T = np.array(args[-1], dtype=float, ndmin=1)
    t_min = np.minimum.reduce(T, axis=None)
    if not t_min > 0.0:
        _raise_at(ValueError, "temperature must be positive", ~(T > 0.0), args)
    if t_min < _TINY:
        _raise_at(OverflowRisk, "1/T overflows", T < _TINY, args)
    beta = 1.0 / T
    # the points' rank is that of the widest argument (floats are rank 0)
    rank = max([T.ndim] + [a.ndim for a in params if not isinstance(a, float)])
    signs, nodal, half, field, family = _leading_axes(rank)

    # dimer levels, shape (level, family, sector, point).  A Zeeman term or
    # exchange past the float range leaves a level, or its height above its
    # shift, inf or nan, which raises; from finite heights an exponent or
    # sector offset may overflow, to its true weight of 0, and a host
    # coefficient may underflow, to a log of -inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zz = J * Delta / 4.0
        c = J / 2.0
        scale = 1.0 + family * gamma
        levels = (((zz * signs + J0 * nodal) - g1 * B * half)
                  + (g2 * B * scale + g3 * B * scale * signs) * field)
        # the central block [[a, c], [c, b]]: its levels (a + b)/2 +- g/2
        # replace a and b; the rescaled projector below reads the defect's
        # a and b again
        a, b = levels[1], levels[2]
        defect_ab = levels[1:3, 1].copy()
        gap, upper = _projector(a, c, b)
        mean, half_gap = 0.5 * (a + b), 0.5 * gap
        np.add(mean, half_gap, out=levels[1])
        np.subtract(mean, half_gap, out=levels[2])
        # the defect's upper central projector P, per sector
        defect = upper[:, 1]
        sector_min = np.minimum(np.minimum(levels[0], levels[2]), levels[3])
        # each family's lowest level: the host's shift, and the reference of
        # the defect's sector offsets
        family_min = np.minimum.reduce(sector_min, axis=1)
        offsets = beta * (sector_min[1] - family_min[1])
        # Boltzmann factors: host levels against the host family's minimum,
        # defect cells against their own sector minimum, so no exponent is
        # positive; in place over the levels, which nothing reads afterwards,
        # until -beta gives them every point
        shift = sector_min.copy()
        shift[0] = family_min[0]
        np.subtract(levels, shift, out=levels)
        peak = np.maximum.reduce(levels, axis=None)
        if not peak < np.inf:
            _raise_at(OverflowRisk, "a Zeeman term or dimer level is past the float range",
                      ~(levels < np.inf), args)
        # an exponent, levels[1] - shift, is at least the central gap
        # g >= max(|a - b|, |2c|): where g + |a - b| or (2c)^2 may overflow,
        # the defect's P is taken again from each block divided by its
        # largest magnitude (by 1 elsewhere), which leaves P / tr P as it is
        if not peak < 2.0 ** 500:
            a, b = defect_ab
            largest = np.maximum(np.maximum(np.abs(a), np.abs(b)), 2.0 * np.abs(c))
            scale = np.where(largest < 2.0 ** 510, 1.0, largest)
            defect = _projector(a / scale, c / scale, b / scale)[1]
        factors = np.multiply(levels, -beta)
        np.exp(factors, out=factors)
        # each sector's Boltzmann sum, outer and central pairs apart, so that
        # mirror sectors (s = +-1 at B = 0) get bit-identical sums
        sums = (factors[0] + factors[3]) + (factors[1] + factors[2])
        host = sums[0]
        w1, w0, wm = host[0], host[1], host[2]

        if ring is None:
            # the dominant projector, 2Q times: (Q + D, 2 w0, Q - D) with D = w1 - wm
            q, coef = _projector(w1, w0, wm)
            # the host's lowest level has weight 1, so g = 0 means w0 = 0 and w1 = w-1 > 0
            if not np.minimum.reduce(q, axis=None) > 0.0:
                _raise_at(DegenerateGap, "the host's dominant eigenvalue is degenerate, so the "
                          "infinite chain's limit state depends on the boundary", ~(q > 0.0), args)
        else:
            # log Z's energy terms, both <= 0, summed here: past the float
            # range the sum is -inf, log Z inf, and partition_function raises
            energy = beta * family_min[1] + beta * (ring - 1) * family_min[0]
            coef = np.empty((3,) + w0.shape)
            (coef[0], coef[1], coef[2]), log_scale = _host_power(w1, w0, wm, ring - 1)
        # the s = 0 sector takes both off-diagonal entries
        np.multiply(coef[1], 2.0, out=coef[1])
        # log-domain sector mixing: coefficient times exp(-beta * sector
        # offset); the coefficients are finite and >= 0, and log 0 is -inf
        logs = np.log(coef, out=coef)
        logs -= offsets
    top = np.maximum.reduce(logs, axis=0)
    if np.minimum.reduce(top, axis=None) == -np.inf:
        _raise_at(DegenerateGap, "every sector weight vanished in log domain",
                  top == -np.inf, args)
    gains = np.exp(np.subtract(logs, top, out=logs), out=logs)

    # defect cell matrices sum_j e^{-beta(e_j - min)} |phi_j><phi_j|: the
    # central pair's projectors are P / tr P and 1 - P / tr P, with P the
    # upper one from _projector (tr P is 2g, and 1 where g = 0); the central
    # rows (P11 f+ + P22 f-, P22 f+ + P11 f-) / tr P are taken together
    trace = defect[0] + defect[2]
    cell = factors[:, 1]
    f_up, f_down = cell[1], cell[2]
    cells = np.empty((5,) + f_up.shape)
    cells[0:4:3] = cell[0:4:3]
    np.divide(defect[::2] * f_up + defect[2::-2] * f_down, trace, out=cells[1:3])
    np.divide(defect[1] * (f_up - f_down), trace, out=cells[4])
    cells *= gains
    # sums of 3 and 4 terms: np.add.reduce adds so few in index order, after
    # its initial value, which is -0 so that x + y + z keeps the sign of a 0
    num = np.add.reduce(cells, axis=1, initial=-0.0)
    den = np.add.reduce(gains * sums[1], axis=0, initial=-0.0)
    # the dominant sector contributes gain 1 and trace >= 1
    tr_num = np.add.reduce(num[:4], axis=0, initial=-0.0)
    if not (np.minimum.reduce(tr_num, axis=None) > 0.0
            and np.maximum.reduce(tr_num, axis=None) < np.inf):
        _raise_at(DegenerateGap, "degenerate or non-finite sector mixture",
                  ~(np.isfinite(tr_num) & (tr_num > 0.0)), args)
    mismatch = np.abs(tr_num - den) > 1e-12 * den
    if mismatch.any():
        _raise_at(DegenerateGap, "normalization mismatch: trace vs weight sum", mismatch, args)
    if ring is None:
        return num / tr_num, None
    # den * e^(top - beta ref) is the sum over sectors of the coefficients
    # times the defect's true sector weights; the host's shift enters once per
    # host cell.  log(den) + top is at most log 24 and log_scale is moderate,
    # so adding -energy >= 0 (inf past the float range) cannot overflow
    log_z = np.log(den) + top + log_scale - energy
    return num / tr_num, log_z


def limit_states(J, Delta, J0, g1, g2, g3, gamma, B, T) -> np.ndarray:
    """Thermodynamic-limit defect-dimer states over broadcast parameter arrays.

    The arguments are the ModelParams fields as scalars or arrays of any
    rank, which broadcast from the right to the points' shape, T included.
    Returns a (5, *points) array, (5, 1) for scalars, whose rows are the
    X-state elements r11, r22, r33, r44 and r23 of each point.  The
    homogeneous chain, whose defect cell is a host cell, is gamma = 0.

    Per point: the closed-form spectra of the host and defect dimer blocks
    in all three nodal sectors; host sector weights referenced to the host
    family's own minimum; the cancellation-free sector coefficients
    (Q + D, 4 w0, Q - D) of the host's dominant eigenprojector; and the
    defect's cell matrices, built from the eigenprojectors of its central
    block by the same angle-free algebra (so J = 0, which ModelParams
    rejects, gives the decoupled dimer), each referenced to its own sector
    minimum and mixed in log domain, so that neither family overflows or
    collapses to 0/0 when host and defect prefer different nodal
    alignments.  Every point is computed by elementwise operations alone,
    so its bits do not depend on the batch it is evaluated in.

    Raises OverflowRisk (a Zeeman term or level past the float range, or 1/T
    overflowing), DegenerateGap (a degenerate dominant host eigenvalue, a
    degenerate or non-finite sector mixture, or a trace that disagrees with
    the weight sum) naming the first failing point, and ValueError for a
    non-positive temperature.  Up to 601 points (a preset curve) are one
    kernel call.  More are cut into whole slices of the first axis, as many
    as keep a call within 601 temperature-free points, those of the
    broadcast of every argument but T, and within 2,048 points: fig3's
    (gamma, T, B) grid of 2 x 3 x 601 points is one call per gamma, which
    builds the levels of its 601 fields once for its 3 temperatures.  A
    slice too wide for one call is cut again along its own next axis.  The
    calls run in row order; an error names, in the first call that fails,
    the first point in row order flagged by the first check that fails.
    """
    args = (J, Delta, J0, g1, g2, g3, gamma, B, T)
    # floats broadcast to any shape, so only the other arguments are looked at
    shape = np.broadcast(*[a for a in args if not isinstance(a, float)]).shape
    rank, size = len(shape), math.prod(shape)
    if size <= _FREE_POINTS:  # within both caps, whatever its temperatures
        return _kernel(args)[0] if size else np.empty((5,) + shape)
    # the slices of the first axis that a call takes within both caps; the
    # temperature-free points grow with the slices only where the arguments
    # but T vary along that axis
    free = np.broadcast(*[a for a in args[:-1] if not isinstance(a, float)]).shape
    free = (1,) * (rank - len(free)) + free
    per_slice = math.prod(free[1:])
    if free[0] > 1:
        fits = _FREE_POINTS // per_slice
    else:
        fits = shape[0] if per_slice <= _FREE_POINTS else 0
    step = min(_POINTS // (size // shape[0]), fits)
    if step >= shape[0]:
        return _kernel(args)[0]
    if shape[0] == 1:  # one slice, too wide: cut along its next axis
        return limit_states(*[a if isinstance(a, float) or np.ndim(a) < rank else a[0]
                              for a in args])[:, None]
    step = max(step, 1)
    return np.concatenate([
        limit_states(*(a[i:i + step] if np.ndim(a) == rank and len(a) > 1 else a for a in args))
        for i in range(0, shape[0], step)], axis=1)


def impurity_density_matrix(p: ModelParams) -> XState:
    """Exact thermodynamic-limit reduced density matrix of the defect dimer.

    At gamma = 0 this is the homogeneous chain's dimer state.  A batch of
    one of the kernel, with the same bits as that point in any batch of
    limit_states.
    """
    return XState(*_kernel(tuple(vars(p).values()))[0][:, 0].tolist())


def partition_function(p: ModelParams, N: int) -> float:
    """log Z_N of the N-cell periodic chain containing the defect cell.

    Z_N = tr(W_d W_h^(N-1)) with the host and defect transfer matrices.  A
    batch of one of the shared kernel: W_h^(N-1) by renormalised binary
    powering, the defect's sector weights mixed in log domain, and the
    energy shifts and scales restored in log domain.  Raises InvalidN for N
    that is not an integer >= 2, and OverflowRisk naming the point where
    log Z is past the float range.
    """
    _check_length(N)
    args = tuple(vars(p).values())
    log_z = float(_kernel(args, N)[1][0])
    if not math.isfinite(log_z):
        raise OverflowRisk(f"log Z_{N} is past the float range at {_point_text(args, 0)}")
    return log_z


def finite_n_density_matrix(p: ModelParams, N: int) -> XState:
    """Exact N-cell periodic-chain reduced density matrix of the defect dimer.

    Every element is tr(P W_h^(N-1)) / tr(W_d W_h^(N-1)), with P the 2x2
    sector matrix of that element of the defect's cell matrices; the
    defect's position in the ring drops out by cyclic invariance of the
    trace.  A batch of one of the shared kernel, which differs from the
    thermodynamic limit only in the host coefficients: (M++, 2 M+-, M--) of
    M = W_h^(N-1) by renormalised binary powering, with no subtraction.
    At gamma = 0 it is the homogeneous ring.  Raises InvalidN for N that is
    not an integer >= 2.
    """
    _check_length(N)
    return XState(*_kernel(tuple(vars(p).values()), N)[0][:, 0].tolist())


def _check_length(N) -> None:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise InvalidN(f"chain length must be an integer >= 2, got {N!r}")
