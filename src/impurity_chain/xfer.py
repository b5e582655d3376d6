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
different nodal sectors at low T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import ModelParams, OverflowRisk, SECTOR_VALUES

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
    """Sector weights vanished or disagree; cannot happen for positive weights."""


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

    def validate(self, trace_tol: float = 1e-12, psd_tol: float = 1e-12) -> "XState":
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise NotAState(f"element {name} = {value!r} is not finite")
        if abs(self.trace - 1.0) > trace_tol:
            raise NotAState(f"trace {self.trace!r} deviates from 1 beyond {trace_tol:g}")
        if float(self.eigenvalues()[0]) < -psd_tol:
            raise NotAState(f"negative eigenvalue {self.eigenvalues()[0]:.3e}")
        return self


_PARAM_NAMES = tuple(f.name for f in fields(ModelParams))
# the sector axis of the kernel: nodal sums s = +1, 0, -1
_SECTORS = np.array(SECTOR_VALUES, dtype=float)[:, None]
# the family axis: host cells keep their fields, the defect's are scaled by 1 + gamma
_DEFECT_FAMILY = np.array([0.0, 1.0])[:, None, None]
# the smallest normal float: below it 1/T overflows, and 4 w0^2 underflows
_TINY = float(np.finfo(float).tiny)
# exp() overflows just above exp(709); stay clear of it
_MAX_EXPONENT = 700.0


def _point_text(args, index: int) -> str:
    """The parameter point at `index` of broadcast kernel arguments."""
    columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in args))
    return ", ".join(f"{name}={float(col[index])!r}"
                     for name, col in zip(_PARAM_NAMES, columns))


def _raise_at(error, message: str, bad: np.ndarray, args) -> None:
    """Raise `error` naming the first point flagged in `bad` (points on the last axis)."""
    i = int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])
    raise error(f"{message} at {_point_text(args, i)}")


def _projector(x, y, z):
    """g = hypot(d, 2y) with d = x - z, and (g + d, 2y, g - d), elementwise: the
    eigenvalue gap of the symmetric [[x, y], [y, z]] and 2g times its upper
    eigenprojector.  The smaller of g -+ d is 4y^2 / (g + |d|), never a
    difference of close numbers ((2y / (g + |d|)) 2y where 4y^2 underflows);
    at g = 0 the projector is (1, 0, 0), and nothing is divided by 0.
    """
    d = x - z
    off = 2.0 * y
    gap = np.hypot(d, off)
    big = gap + np.abs(d)
    square = off * off
    # one-point calls pay per numpy operation, so the selects run only in
    # batches where 4y^2 underflows somewhere (as it does wherever g = 0)
    if square.min() < _TINY:
        big = np.where(big > 0.0, big, 1.0)
        small = np.where(square < _TINY, off / big * off, square / big)
    else:
        small = square / big
    up = d >= 0.0
    return gap, (np.where(up, big, small), off, np.where(up, small, big))


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
    """States (5, n) of the defect dimer, and log Z of the ring.

    `args` are the ModelParams fields as scalars or arrays broadcasting to
    one dimension.  With ring=None the host coefficients are the infinite
    chain's dominant projector and log Z is None; with ring=N they are
    those of W_h^(N-1) in the N-cell ring, and log Z_N is returned as an
    (n,) array.  See limit_states for the guards.
    """
    J, Delta, J0, g1, g2, g3, gamma, B = (np.asarray(a, dtype=float) for a in args[:-1])
    T = np.atleast_1d(np.asarray(args[-1], dtype=float))
    if not T.min() > 0.0:
        _raise_at(ValueError, "temperature must be positive", ~(T > 0.0), args)
    if T.min() < _TINY:
        _raise_at(OverflowRisk, "1/T overflows", T < _TINY, args)
    beta = 1.0 / T

    # dimer blocks, shape (family, sector, point)
    zz = J * Delta / 4.0
    c = J / 2.0
    nodal = J0 * _SECTORS / 2.0
    f1 = g1 * B * _SECTORS / 2.0
    scale = 1.0 + _DEFECT_FAMILY * gamma
    b2 = g2 * B * scale
    b3 = g3 * B * scale
    outer = (b2 + b3) / 2.0
    inner = (b2 - b3) / 2.0
    e00 = zz + nodal - f1 - outer
    a = -zz + nodal - f1 - inner
    b = -zz - nodal - f1 + inner
    mean = 0.5 * (a + b)
    gap, central = _projector(a, c, b)
    half_gap = 0.5 * gap
    levels = np.empty((4,) + np.broadcast_shapes(e00.shape, beta.shape))
    levels[0] = e00
    levels[1] = mean + half_gap
    levels[2] = mean - half_gap
    levels[3] = zz - nodal - f1 + outer
    sector_min = np.minimum(np.minimum(levels[0], levels[2]), levels[3])
    cell_min = sector_min[1]

    # Boltzmann factors: host levels against the host family's minimum,
    # defect cells against their own sector minimum; in place over the
    # levels, which nothing reads afterwards, to allocate no array their size
    shift = sector_min.copy()
    shift[0] = np.minimum(np.minimum(shift[0, 0], shift[0, 1]), shift[0, 2])
    exponents = np.subtract(levels, shift, out=levels)
    exponents *= -beta
    if exponents.max() > _MAX_EXPONENT:
        _raise_at(OverflowRisk, f"Boltzmann exponent above {_MAX_EXPONENT:g}",
                  exponents > _MAX_EXPONENT, args)
    factors = np.exp(exponents, out=exponents)
    # each sector's Boltzmann sum, outer and central pairs apart, so that
    # mirror sectors (s = +-1 at B = 0) get bit-identical sums
    sums = (factors[0] + factors[3]) + (factors[1] + factors[2])
    w1, w0, wm = sums[0]

    coef = np.empty((3,) + w0.shape)
    if ring is None:
        # the dominant projector, 2Q times: (Q + D, 2 w0, Q - D) with D = w1 - wm
        q, (coef[0], m0, coef[2]) = _projector(w1, w0, wm)
        if not q.min() > 0.0:
            _raise_at(DegenerateGap, "all host sector weights vanished", ~(q > 0.0), args)
    else:
        (coef[0], m0, coef[2]), log_scale = _host_power(w1, w0, wm, ring - 1)
    # the s = 0 sector takes both off-diagonal entries
    coef[1] = 2.0 * m0

    # log-domain sector mixing: coefficient times exp(-beta * sector offset)
    ref = np.minimum(np.minimum(cell_min[0], cell_min[1]), cell_min[2])
    logs = np.log(coef, out=np.full(coef.shape, -np.inf), where=coef > 0.0)
    logs -= beta * (cell_min - ref)
    top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
    if top.min() == -np.inf:
        _raise_at(DegenerateGap, "every sector weight vanished in log domain",
                  top == -np.inf, args)
    gains = np.exp(logs - top)

    # defect cell matrices sum_j e^{-beta(e_j - min)} |phi_j><phi_j|: the
    # central pair's projectors are P / tr P and 1 - P / tr P, with P the
    # upper one from _projector (tr P is 2g, and 1 where g = 0)
    p11, p12, p22 = central[0][1], central[1], central[2][1]
    trace = p11 + p22
    f00, f_up, f_down, f33 = factors[:, 1]
    cells = np.empty((5,) + f00.shape)
    cells[0] = f00
    cells[1] = (p11 * f_up + p22 * f_down) / trace
    cells[2] = (p22 * f_up + p11 * f_down) / trace
    cells[3] = f33
    cells[4] = p12 * (f_up - f_down) / trace
    cells *= gains
    num = cells[:, 0] + cells[:, 1] + cells[:, 2]
    weighted = gains * sums[1]
    den = weighted[0] + weighted[1] + weighted[2]
    # the dominant sector contributes gain 1 and trace >= 1
    tr_num = num[0] + num[1] + num[2] + num[3]
    if not (tr_num.min() > 0.0 and tr_num.max() < np.inf):
        _raise_at(DegenerateGap, "degenerate or non-finite sector mixture",
                  ~(np.isfinite(tr_num) & (tr_num > 0.0)), args)
    mismatch = np.abs(tr_num - den) > 1e-12 * den
    if mismatch.any():
        _raise_at(DegenerateGap, "normalization mismatch: trace vs weight sum", mismatch, args)
    if ring is None:
        return num / tr_num, None
    # den * e^(top - beta ref) is the sum over sectors of the coefficients
    # times the defect's true sector weights; the host's shift enters once per
    # host cell
    log_z = np.log(den) + top - beta * ref + log_scale - beta * (ring - 1) * shift[0, 0]
    return num / tr_num, log_z


def limit_states(J, Delta, J0, g1, g2, g3, gamma, B, T) -> np.ndarray:
    """Thermodynamic-limit defect-dimer states over broadcast parameter arrays.

    The arguments are the ModelParams fields as scalars or arrays that
    broadcast to one dimension of length n.  Returns a (5, n) array whose
    rows are the X-state elements r11, r22, r33, r44 and r23 of each point.
    The homogeneous chain, whose defect cell is a host cell, is gamma = 0.

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

    Raises OverflowRisk (a Boltzmann exponent past 700, or 1/T overflowing),
    DegenerateGap (vanishing host weights, a degenerate or non-finite sector
    mixture, or a trace that disagrees with the weight sum) naming the first
    failing point, and ValueError for a non-positive temperature.
    """
    return _kernel((J, Delta, J0, g1, g2, g3, gamma, B, T))[0]


def _column(p: ModelParams) -> np.ndarray:
    """The parameter point as kernel arguments of one point each."""
    return np.array(list(vars(p).values()))[:, None]


def impurity_density_matrix(p: ModelParams) -> XState:
    """Exact thermodynamic-limit reduced density matrix of the defect dimer.

    At gamma = 0 this is the homogeneous chain's dimer state.  A batch of
    one of limit_states, with the same bits as that point in any larger
    batch.
    """
    return XState(*limit_states(*_column(p))[:, 0].tolist())


def partition_function(p: ModelParams, N: int) -> float:
    """log Z_N of the N-cell periodic chain containing the defect cell.

    Z_N = tr(W_d W_h^(N-1)) with the host and defect transfer matrices.  A
    batch of one of the shared kernel: W_h^(N-1) by renormalised binary
    powering, the defect's sector weights mixed in log domain, and the
    energy shifts and scales restored in log domain.  Raises InvalidN for N
    that is not an integer >= 2.
    """
    _check_length(N)
    return float(_kernel(_column(p), N)[1][0])


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
    return XState(*_kernel(_column(p), N)[0][:, 0].tolist())


def _check_length(N) -> None:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise InvalidN(f"chain length must be an integer >= 2, got {N!r}")
