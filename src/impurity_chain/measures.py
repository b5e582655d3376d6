"""Quantum-information measures of two-qubit X states.

Every measure is an array function of the five X-state elements: it takes a
(5, *points) array whose rows are r11, r22, r33, r44 and r23 (as returned by
`xfer.limit_states`) and returns one value per point.  Concurrence, l1
coherence and the correlators are closed forms; the quantum Fisher
information is the bipartite sum over the local orthonormal observable set
sqrt(2) * {I, S^x, S^y, S^z} acting on both qubits, written in the X
state's eigenbasis, whose eigenvalues and overlaps are closed forms of the
five elements too: no matrix is built and no eigensolver runs.
`measure_columns`, the one evaluator of every column over parameter points of
any shape, takes the states, and those that dF/dB needs, from one
`limit_states` call.
Its table `_COLUMNS` is the one place a column's closed form is written: the
correlators sxsx and szsz, and the paper's shortcut correlators sxsx_alt and
szsz_alt that the CLI emits under its debug flag.  The few one-point
functions left (`spin_correlators`, `qfi`, `qfi_field_derivative`,
`measure_bundle`) are batches of one, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DELTA_B, ModelParams, _PARAM_NAMES, _raise_at
from .teleport import average_fidelity_batch, output_concurrence_batch
from .xfer import XState, limit_states

__all__ = [
    "measure_columns",
    "MeasureBundle",
    "measure_bundle",
    "concurrence_batch",
    "coherence_batch",
    "qfi_batch",
    "spin_correlators",
    "qfi",
    "qfi_field_derivative",
]

# quantity -> its columns, in CSV order
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

# eigenvalue pairs with a + lambda below this fraction of the largest
# eigenvalue lie outside the state's support and are skipped
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class MeasureBundle:
    """All measures of one thermal state; qfi_dB only when a derivative was requested."""

    concurrence: float
    coherence_l1: float
    sxsx: float
    szsz: float
    qfi: float
    qfi_dB: float | None = None


# ---------------------------------------------------------------------------
# array functions of (5, *points) states

def concurrence_batch(states: np.ndarray) -> np.ndarray:
    """Wootters concurrence of X states: 2*max(|r23| - sqrt(r11*r44), 0)."""
    r11, _, _, r44, r23 = states
    value = 2.0 * (np.abs(r23) - np.sqrt(np.maximum(r11 * r44, 0.0)))
    return np.minimum(np.maximum(value, 0.0), 1.0)


def coherence_batch(states: np.ndarray) -> np.ndarray:
    """l1 norm of coherence: the off-diagonal magnitudes, 2*|r23| for X states."""
    return 2.0 * np.abs(states[4])


def qfi_batch(states: np.ndarray) -> np.ndarray:
    """Bipartite quantum Fisher information of X states, in closed form.

    F = sum_eta F(rho, A_eta x I + I x A_eta) over the local observable set
    sqrt(2)*{I, Sx, Sy, Sz}, each term being
    2 * sum_{ij} (tau_i - tau_j)^2 / (tau_i + tau_j) |<chi_i|G|chi_j>|^2
    in the state's eigenbasis.  For an X state that basis is |00> and |11>
    (eigenvalues r11, r44) and the two eigenvectors of the central block,
    lambda+- = (r22 + r33)/2 +- h with h = hypot((r22 - r33)/2, r23).  Only
    the outer-central pairs have non-zero matrix elements, with summed
    squares 1 +- r23/h, so (Paris, Int. J. Quantum Inf. 7 (2009) 125)

        F = 4 sum_{a in r11, r44} sum_+- (a - lambda+-)^2 / (a + lambda+-) (1 +- r23/h).

    Eigenvalues are clamped at 0.  Pairs outside the support (a + lambda
    below 1e-12 of the largest eigenvalue) are skipped, which keeps the
    value continuous through eigenvalue crossings.  At h = 0 (r22 = r33 and
    r23 = 0) the central eigenvalues coincide and r23/h is taken as 0.
    """
    r11, r22, r33, r44, r23 = states
    h = np.hypot(0.5 * (r22 - r33), r23)
    split = h > 0.0
    ratio = np.where(split, r23 / np.where(split, h, 1.0), 0.0)
    mean = 0.5 * (r22 + r33)
    upper = np.maximum(mean + h, 0.0)
    lower = np.maximum(mean - h, 0.0)
    outer = (np.maximum(r11, 0.0), np.maximum(r44, 0.0))
    cutoff = _SUPPORT_TOL * np.maximum(np.maximum(outer[0], outer[1]), upper)
    centrals = ((upper, 1.0 + ratio), (lower, 1.0 - ratio))
    total = 0.0
    for a in outer:
        for central, overlap in centrals:
            pair = a + central
            keep = pair > cutoff
            diff = a - central
            total = total + np.where(keep, diff * diff / np.where(keep, pair, 1.0), 0.0) * overlap
    return 4.0 * total


# column -> its array function of (5, *points) states, but for qfi, qfi_dB and the
# rho_elements rows; cout takes C_in = 1, the maximally entangled input.
# sxsx and szsz are <Sx Sx> = r23/2 and <Sz Sz> = (r11 - r22 - r33 + r44)/4;
# sxsx_alt and szsz_alt are the shortcut convention (r22/2, 1/4 - r23), kept
# for comparison: it disagrees with the correlators except on special states,
# so no quantity names it and only the CLI debug flag emits it
_COLUMNS = {
    "concurrence": concurrence_batch,
    "coherence": coherence_batch,
    "sxsx": lambda states: states[4] / 2.0,
    "szsz": lambda states: (states[0] - states[1] - states[2] + states[3]) / 4.0,
    "favg": average_fidelity_batch,
    "cout": lambda states: output_concurrence_batch(states, 1.0),
    "sxsx_alt": lambda states: states[1] / 2.0,
    "szsz_alt": lambda states: 0.25 - states[4],
}


def measure_columns(params: dict, quantities, delta_b: float = DELTA_B) -> dict:
    """Every column of the requested quantities at parameter points of any shape.

    `params` holds the keyword arguments of `limit_states`, broadcasting to
    the points' shape; `quantities` are keys of QUANTITY_COLUMNS, or the
    columns sxsx_alt and szsz_alt.  The fields [B, B + delta_b, B - delta_b]
    are a leading axis of B in one limit_states call: B if a quantity needs
    the points' own states, the others for qfi_dB, the central difference
    (F(B + delta_b) - F(B - delta_b)) / (2 delta_b) of one QFI evaluation
    over them all, at the default step model.DELTA_B.  Returns column ->
    array of the points' shape ((1,) for floats), in request order; raises
    ValueError for a delta_b that is not positive and finite when qfi_dB is
    requested, and FloatingPointError naming the first point where
    B + delta_b or B - delta_b is B.
    """
    b = params["B"]
    fields = [] if set(quantities) == {"qfi_dB"} else [b]
    if "qfi_dB" in quantities:
        if not 0.0 < delta_b < np.inf:
            raise ValueError(f"step must be positive and finite, got {delta_b}")
        fields += [b + delta_b, b - delta_b]
    # the fields lead B, padded to the points' rank: states (5, fields, *points)
    rank = max([np.ndim(v) for v in params.values() if not isinstance(v, float)], default=0)
    stacked = np.array(fields)
    if stacked.ndim <= rank:
        stacked = np.expand_dims(stacked, tuple(range(1, rank + 2 - stacked.ndim)))
    states = limit_states(**dict(params, B=stacked))
    fisher = qfi_batch(states) if "qfi" in quantities or "qfi_dB" in quantities else None
    # a point of floats is a batch of one, its fields the states' one axis
    own, plus, minus = (0, -2, -1) if rank else (slice(1), slice(-2, -1), slice(-1, None))
    at, columns = states[:, own], {}
    for q in quantities:
        if q == "qfi_dB":
            lost = (fields[-2] == b) | (fields[-1] == b)
            # a point of floats, as from measure_bundle, pays no numpy call
            if lost is not False and np.any(lost):
                _raise_at(FloatingPointError, f"the step delta_b={delta_b!r} is lost against B "
                          "(B +- delta_b == B: dF/dB would read 0)", np.asarray(lost),
                          [params[k] for k in _PARAM_NAMES])
            columns[q] = (fisher[plus] - fisher[minus]) / (2.0 * delta_b)
        elif q == "qfi":
            columns[q] = fisher[own]
        elif q == "rho_elements":
            columns.update(zip(QUANTITY_COLUMNS[q], at))
        else:
            columns[q] = _COLUMNS[q](at)
    return columns


# ---------------------------------------------------------------------------
# one state or one parameter point: batches of one

def spin_correlators(st: XState) -> tuple[float, float]:
    """(<Sx Sx>, <Sz Sz>) of one state: its sxsx and szsz columns."""
    states = st.column()
    return float(_COLUMNS["sxsx"](states)[0]), float(_COLUMNS["szsz"](states)[0])


def qfi(st: XState) -> float:
    """Bipartite quantum Fisher information of one X state (see qfi_batch)."""
    return float(qfi_batch(st.column())[0])


def qfi_field_derivative(p: ModelParams, delta_b: float = DELTA_B) -> float:
    """dF/dB at one parameter point: a batch of one of measure_columns, one
    kernel call of the two points B +- delta_b."""
    return float(measure_columns(vars(p), ("qfi_dB",), delta_b)["qfi_dB"][0])


def measure_bundle(p: ModelParams, with_derivative: bool = False,
                   delta_b: float = DELTA_B) -> MeasureBundle:
    """Every measure of the thermal dimer state at one parameter point.

    A batch of one of measure_columns: with the derivative, the states at
    B, B + delta_b and B - delta_b are one kernel call of three points.
    """
    names = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "qfi_dB")
    columns = measure_columns(vars(p), names if with_derivative else names[:-1], delta_b)
    return MeasureBundle(*[float(v[0]) for v in columns.values()])
