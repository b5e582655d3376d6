"""Transfer matrices, partition functions and the defect dimer's reduced state.

The classical trace over nodal spins is a product of 2x2 transfer matrices,
one per cell, with entries given by the sector Boltzmann factors.  The chain
carries one defect cell; its reduced density matrix follows from sandwiching
the defect's unnormalized thermal cell matrices between powers of the host
transfer matrix.

Everything that can underflow or overflow at T = 0.01 is kept in
(mantissa, log-scale) or per-sector log-offset form.  Ratios of thermal
weights are always formed from quantities sharing one scale, so results are
exact in the energy-shift choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    _MAX_EXPONENT,
    ModelParams,
    OverflowRisk,
    SECTOR_VALUES,
    boltzmann_weights,
    dimer_block,
    dimer_spectrum,
    family_energy_minimum,
)

__all__ = [
    "InvalidN",
    "DegenerateGap",
    "NotAState",
    "ScaledTransferMatrix",
    "TmEigen",
    "XState",
    "transfer_matrices",
    "tm_eigen",
    "partition_function",
    "cell_density_elements",
    "assemble_limit_state",
    "limit_states",
    "impurity_density_matrix",
    "finite_n_density_matrix",
]


class InvalidN(ValueError):
    """Chain length must be an integer >= 2."""


class DegenerateGap(ArithmeticError):
    """Transfer-matrix spectrum collapsed; cannot happen for positive weights."""


class NotAState(ValueError):
    """Matrix fails Hermiticity, trace or positivity checks beyond tolerance."""


@dataclass(frozen=True)
class ScaledTransferMatrix:
    """2x2 nonnegative symmetric matrix stored as mantissa * exp(log_scale).

    The mantissa is normalized so its largest entry is 1; log_scale restores
    the absolute magnitude (including the energy-shift factor), so products
    and eigenvalues can be taken without ever exponentiating the scale.
    """

    m: np.ndarray
    log_scale: float


@dataclass(frozen=True)
class TmEigen:
    """Transfer-matrix eigenvalues (mantissa form, shared log_scale) and gap Q."""

    lambda_plus: float
    lambda_minus: float
    q: float
    log_scale: float


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
        if abs(self.trace - 1.0) > trace_tol:
            raise NotAState(f"trace {self.trace!r} deviates from 1 beyond {trace_tol:g}")
        if float(self.eigenvalues()[0]) < -psd_tol:
            raise NotAState(f"negative eigenvalue {self.eigenvalues()[0]:.3e}")
        return self


def _weights_matrix(w: dict[int, float]) -> np.ndarray:
    # sector map: (++) -> +1, (+-) = (-+) -> 0, (--) -> -1
    return np.array([[w[1], w[0]], [w[0], w[-1]]])


def transfer_matrices(p: ModelParams) -> tuple[ScaledTransferMatrix, ScaledTransferMatrix]:
    """Host and defect transfer matrices in normalized (mantissa, log-scale) form.

    Each family is referenced to its own sector minimum before normalization;
    the log scales carry the exact relative magnitude of the two matrices, so
    no ratio between them is ever lost to underflow.
    """
    beta = p.beta
    shifts = (family_energy_minimum(p, False), family_energy_minimum(p, True))
    host = boltzmann_weights(p, shifts[0])[0]
    defect = boltzmann_weights(p, shifts[1])[1]
    out = []
    for w, shift in ((host, shifts[0]), (defect, shifts[1])):
        m = _weights_matrix(w)
        top = float(m.max())
        out.append(ScaledTransferMatrix(m / top, math.log(top) - beta * shift))
    return out[0], out[1]


def tm_eigen(W: ScaledTransferMatrix) -> TmEigen:
    """Eigenvalues (w11 + w22 +- Q)/2 with Q = hypot(w11 - w22, 2*w12)."""
    w11, w22, w12 = W.m[0, 0], W.m[1, 1], W.m[0, 1]
    q = math.hypot(w11 - w22, 2.0 * w12)
    trace = w11 + w22
    return TmEigen(0.5 * (trace + q), 0.5 * (trace - q), q, W.log_scale)


def _sector_coefficients(w: dict[int, float]) -> dict[int, float]:
    """Infinite-chain weight of each nodal sector around one cell.

    Equal to (Q + D, 4*w0, Q - D) for s = (+1, 0, -1) with D = w(+1) - w(-1);
    this is the dominant-eigenvector projection of the host transfer matrix,
    written so that no term is a difference of close numbers: the smaller of
    Q -+ D is evaluated as 4*w0^2 / (Q +- D).
    """
    d = w[1] - w[-1]
    q = math.hypot(d, 2.0 * w[0])
    if q == 0.0:
        raise DegenerateGap("all host sector weights vanished")
    if d >= 0.0:
        qpd = q + d
        qmd = 4.0 * w[0] * w[0] / qpd
    else:
        qmd = q - d
        qpd = 4.0 * w[0] * w[0] / qmd
    return {1: qpd, 0: 4.0 * w[0], -1: qmd}


def _xstate_from_parts(num: np.ndarray, den: float) -> XState:
    return XState(
        r11=float(num[0, 0] / den),
        r22=float(num[1, 1] / den),
        r33=float(num[2, 2] / den),
        r44=float(num[3, 3] / den),
        r23=float(num[1, 2] / den),
    )


def cell_density_elements(p: ModelParams, sector, impurity: bool = True,
                          shift: float | None = None) -> np.ndarray:
    """Unnormalized thermal cell matrix sum_j e^{-beta(e_j - shift)} |phi_j><phi_j|.

    Its trace equals the sector Boltzmann factor at the same shift, and only
    X-pattern entries are nonzero (the eigenvectors never mix the outer and
    central subspaces).  Default shift: the family's sector minimum.
    """
    if shift is None:
        shift = family_energy_minimum(p, impurity)
    eig = dimer_spectrum(dimer_block(p, sector, impurity=impurity))
    exponents = -p.beta * (eig.energies - shift)
    if np.any(exponents > 700.0):
        raise OverflowRisk(f"cell exponent {exponents.max():.3g} too large; bad shift")
    bw = np.exp(exponents)
    return (eig.vectors * bw) @ eig.vectors.T


def assemble_limit_state(w: dict[int, float], cells: dict[int, np.ndarray]) -> XState:
    """Thermodynamic-limit dimer state from host weights and one cell's matrices.

    Any common rescaling of the host weights, and any common rescaling of the
    cell matrices, cancels between numerator and denominator.  The denominator
    is the trace of the numerator, so the result has unit trace by
    construction.
    """
    coef = _sector_coefficients(w)
    num = sum(coef[s] * cells[s] for s in SECTOR_VALUES)
    den = float(np.trace(num))
    if den <= 0.0 or not math.isfinite(den):
        raise DegenerateGap(f"degenerate sector mixture, normalization {den!r}")
    return _xstate_from_parts(num, den)


_PARAM_NAMES = tuple(f.name for f in fields(ModelParams))
# the sector axis of the kernel: nodal sums s = +1, 0, -1
_SECTORS = np.array(SECTOR_VALUES, dtype=float)[:, None]
# the family axis: host cells keep their fields, the second family is the
# defect (fields scaled by 1 + gamma) or, without the impurity, the host again
_DEFECT_FAMILY = np.array([0.0, 1.0])[:, None, None]
_HOST_FAMILY = np.array([0.0, 0.0])[:, None, None]
# below the smallest normal float, 1/T overflows
_MIN_TEMPERATURE = float(np.finfo(float).tiny)


def _point_text(args, index: int) -> str:
    """The parameter point at `index` of broadcast kernel arguments."""
    columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in args))
    return ", ".join(f"{name}={float(col[index])!r}"
                     for name, col in zip(_PARAM_NAMES, columns))


def _raise_at(error, message: str, bad: np.ndarray, args) -> None:
    """Raise `error` naming the first point flagged in `bad` (points on the last axis)."""
    i = int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])
    raise error(f"{message} at {_point_text(args, i)}")


def limit_states(J, Delta, J0, g1, g2, g3, gamma, B, T, impurity: bool = True) -> np.ndarray:
    """Thermodynamic-limit defect-dimer states over broadcast parameter arrays.

    The arguments are the ModelParams fields as scalars or arrays that
    broadcast to one dimension of length n.  Returns a (5, n) array whose
    rows are the X-state elements r11, r22, r33, r44 and r23 of each point.
    With impurity=False the defect cell is a host cell (the homogeneous
    chain, identical to gamma = 0).

    Per point: the closed-form spectra of the host and defect dimer blocks
    in all three nodal sectors; host sector weights referenced to the host
    family's own minimum; the cancellation-free sector coefficients
    (Q + D, 4 w0, Q - D); and the defect's cell matrices, each referenced to
    its own sector minimum and mixed in log domain, so that neither family
    overflows or collapses to 0/0 when host and defect prefer different
    nodal alignments.  Every point is computed by elementwise operations
    alone, so its bits do not depend on the batch it is evaluated in.

    Raises OverflowRisk (a Boltzmann exponent past 700, or 1/T overflowing),
    DegenerateGap (vanishing host weights, a degenerate or non-finite sector
    mixture, or a trace that disagrees with the weight sum) naming the first
    failing point, and ValueError for a non-positive temperature.
    """
    args = (J, Delta, J0, g1, g2, g3, gamma, B, T)
    J, Delta, J0, g1, g2, g3, gamma, B = (np.asarray(a, dtype=float) for a in args[:-1])
    T = np.atleast_1d(np.asarray(T, dtype=float))
    if not T.min() > 0.0:
        _raise_at(ValueError, "temperature must be positive", ~(T > 0.0), args)
    if T.min() < _MIN_TEMPERATURE:
        _raise_at(OverflowRisk, "1/T overflows", T < _MIN_TEMPERATURE, args)
    beta = 1.0 / T

    # dimer blocks, shape (family, sector, point)
    zz = J * Delta / 4.0
    c = J / 2.0
    nodal = J0 * _SECTORS / 2.0
    f1 = g1 * B * _SECTORS / 2.0
    scale = 1.0 + (_DEFECT_FAMILY if impurity else _HOST_FAMILY) * gamma
    b2 = g2 * B * scale
    b3 = g3 * B * scale
    outer = (b2 + b3) / 2.0
    inner = (b2 - b3) / 2.0
    e00 = zz + nodal - f1 - outer
    a = -zz + nodal - f1 - inner
    b = -zz - nodal - f1 + inner
    mean = 0.5 * (a + b)
    half_gap = 0.5 * np.hypot(a - b, 2.0 * c)
    levels = np.empty((4,) + e00.shape)
    levels[0] = e00
    levels[1] = mean + half_gap
    levels[2] = mean - half_gap
    levels[3] = zz - nodal - f1 + outer
    sector_min = np.minimum(np.minimum(levels[0], levels[2]), levels[3])
    cell_min = sector_min[1]

    # Boltzmann factors: host levels against the host family's minimum,
    # defect cells against their own sector minimum
    shift = sector_min.copy()
    shift[0] = np.minimum(np.minimum(shift[0, 0], shift[0, 1]), shift[0, 2])
    exponents = -beta * (levels - shift)
    if exponents.max() > _MAX_EXPONENT:
        _raise_at(OverflowRisk, f"Boltzmann exponent above {_MAX_EXPONENT:g}",
                  exponents > _MAX_EXPONENT, args)
    factors = np.exp(exponents)
    # each sector's Boltzmann sum, outer and central pairs apart, so that
    # mirror sectors (s = +-1 at B = 0) get bit-identical sums
    sums = (factors[0] + factors[3]) + (factors[1] + factors[2])
    w1, w0, wm = sums[0]

    # host sector coefficients (Q + D, 4 w0, Q - D); the smaller of Q -+ D
    # is 4 w0^2 / (Q +- D), never a difference of close numbers
    d = w1 - wm
    q = np.hypot(d, 2.0 * w0)
    if not q.min() > 0.0:
        _raise_at(DegenerateGap, "all host sector weights vanished", ~(q > 0.0), args)
    big = q + np.abs(d)
    small = 4.0 * w0 * w0 / big
    up = d >= 0.0
    coef = np.empty((3,) + q.shape)
    coef[0] = np.where(up, big, small)
    coef[1] = 4.0 * w0
    coef[2] = np.where(up, small, big)

    # log-domain sector mixing: coefficient times exp(-beta * sector offset)
    ref = np.minimum(np.minimum(cell_min[0], cell_min[1]), cell_min[2])
    logs = np.log(coef, out=np.full(coef.shape, -np.inf), where=coef > 0.0)
    logs -= beta * (cell_min - ref)
    top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
    if top.min() == -np.inf:
        _raise_at(DegenerateGap, "every sector weight vanished in log domain",
                  top == -np.inf, args)
    gains = np.exp(logs - top)

    # defect cell matrices sum_j e^{-beta(e_j - min)} |phi_j><phi_j|, whose
    # central eigenvectors are (cos, sin) and (-sin, cos) of half the mixing angle
    angle = 0.5 * np.arctan2(2.0 * c, a[1] - b[1])
    co = np.cos(angle)
    si = np.sin(angle)
    f00, f_up, f_down, f33 = factors[:, 1]
    cells = np.empty((5,) + f00.shape)
    cells[0] = f00
    cells[1] = co * f_up * co + si * f_down * si
    cells[2] = si * f_up * si + co * f_down * co
    cells[3] = f33
    cells[4] = co * f_up * si - si * f_down * co
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
    return num / tr_num


def impurity_density_matrix(p: ModelParams, impurity: bool = True) -> XState:
    """Exact thermodynamic-limit reduced density matrix of the defect dimer.

    With impurity=False the defect cell is replaced by a host cell, which
    gives the homogeneous chain's dimer state (identical to gamma = 0).
    A batch of one of limit_states, with the same bits as that point in any
    larger batch.
    """
    column = np.array(list(vars(p).values()))[:, None]
    return XState(*limit_states(*column, impurity=impurity)[:, 0].tolist())


def partition_function(p: ModelParams, N: int) -> float:
    """log Z_N of the N-cell periodic chain containing the defect cell.

    Z_N = a * L+^{N-1} + d * L-^{N-1} where L+- are the host transfer-matrix
    eigenvalues and (a, d) project the defect matrix on the host eigenbasis.
    Evaluated in log domain; the energy-shift factors are restored exactly.
    """
    _check_length(N)
    beta = p.beta
    shift_h = family_energy_minimum(p, False)
    shift_i = family_energy_minimum(p, True)
    w = boltzmann_weights(p, shift_h)[0]
    wt = boltzmann_weights(p, shift_i)[1]

    coef = _sector_coefficients(w)
    d_ = w[1] - w[-1]
    q = math.hypot(d_, 2.0 * w[0])
    if q == 0.0:
        raise DegenerateGap("host transfer matrix vanished")
    lam_p = 0.5 * (w[1] + w[-1] + q)
    lam_m = 0.5 * (w[1] + w[-1] - q)
    # a = u+ . Wt u+ and d = u- . Wt u- with orthonormal host eigenvectors
    a = (coef[1] * wt[1] + coef[-1] * wt[-1] + 4.0 * w[0] * wt[0]) / (2.0 * q)
    dd = (coef[-1] * wt[1] + coef[1] * wt[-1] - 4.0 * w[0] * wt[0]) / (2.0 * q)
    ratio = lam_m / lam_p
    tail = a + dd * ratio ** (N - 1)
    if tail <= 0.0:
        raise DegenerateGap(f"nonpositive partition sum {tail!r}")
    return (
        math.log(tail)
        + (N - 1) * (math.log(lam_p) - beta * shift_h)
        - beta * shift_i
    )


def finite_n_density_matrix(p: ModelParams, N: int, impurity: bool = True) -> XState:
    """Exact N-cell periodic-chain reduced density matrix of the defect dimer.

    Implements the similarity-transform route: the host transfer matrix is
    diagonalized by U, and every element is tr(U^-1 P U diag(L+, L-)^{N-1})
    normalized by the same expression with the defect transfer matrix.  The
    defect's position in the ring drops out by cyclic invariance of the trace.

    This is the validation path (exact for any N >= 2 at moderate
    temperatures); the thermodynamic limit has its own hardened routine.
    """
    _check_length(N)
    shift_h = family_energy_minimum(p, False)
    shift_c = family_energy_minimum(p, impurity)
    w = boltzmann_weights(p, shift_h)[0]
    wt = boltzmann_weights(p, shift_c)[1 if impurity else 0]
    cells = {s: cell_density_elements(p, s, impurity=impurity, shift=shift_c)
             for s in SECTOR_VALUES}

    d_ = w[1] - w[-1]
    q = math.hypot(d_, 2.0 * w[0])
    if q == 0.0 or w[0] == 0.0:
        raise DegenerateGap("host transfer matrix not diagonalizable by U")
    lam_p = 0.5 * (w[1] + w[-1] + q)
    lam_m = 0.5 * (w[1] + w[-1] - q)
    u = np.array([[lam_p - w[-1], lam_m - w[-1]], [w[0], w[0]]])
    u_inv = np.array([
        [1.0 / q, -(lam_m - w[-1]) / (q * w[0])],
        [-1.0 / q, (lam_p - w[-1]) / (q * w[0])],
    ])
    ratio_pow = (lam_m / lam_p) ** (N - 1)

    def traced(block: np.ndarray) -> float:
        sandwich = u_inv @ block @ u
        return float(sandwich[0, 0] + sandwich[1, 1] * ratio_pow)

    den = traced(_weights_matrix(wt))
    if den <= 0.0 or not math.isfinite(den):
        raise DegenerateGap(f"partition sum degenerate for N={N}")

    num = np.zeros((4, 4))
    for k, l in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2)):
        block = np.array([
            [cells[1][k, l], cells[0][k, l]],
            [cells[0][k, l], cells[-1][k, l]],
        ])
        num[k, l] = traced(block)
    return _xstate_from_parts(num, den)


def _check_length(N) -> None:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise InvalidN(f"chain length must be an integer >= 2, got {N!r}")
