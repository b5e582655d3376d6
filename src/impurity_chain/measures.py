"""Quantum-information measures of two-qubit X states.

Every measure is an array function of the five X-state elements: it takes a
(5, n) array whose rows are r11, r22, r33, r44 and r23 (as returned by
`xfer.limit_states`) and returns one value per column.  Concurrence, l1
coherence and the correlators are closed forms; the quantum Fisher
information is the bipartite sum over the local orthonormal observable set
sqrt(2) * {I, S^x, S^y, S^z} acting on both qubits, written in the X
state's eigenbasis, whose eigenvalues and overlaps are closed forms of the
five elements too: no matrix is built and no eigensolver runs.  The
functions taking one XState are the same computations on a batch of one,
with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .xfer import XState, limit_states

__all__ = [
    "MeasureBundle",
    "measure_bundle",
    "concurrence_batch",
    "coherence_batch",
    "correlators_batch",
    "correlators_shortcut_batch",
    "qfi_batch",
    "qfi_dB_batch",
    "concurrence_x",
    "l1_coherence",
    "spin_correlators",
    "spin_correlators_shortcut",
    "qfi",
    "qfi_field_derivative",
    "central_difference",
]

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
# array functions of (5, n) state batches

def concurrence_batch(states: np.ndarray) -> np.ndarray:
    """Wootters concurrence of X states: 2*max(|r23| - sqrt(r11*r44), 0)."""
    r11, _, _, r44, r23 = states
    value = 2.0 * (np.abs(r23) - np.sqrt(np.maximum(r11 * r44, 0.0)))
    return np.minimum(np.maximum(value, 0.0), 1.0)


def coherence_batch(states: np.ndarray) -> np.ndarray:
    """l1 norm of coherence: the off-diagonal magnitudes, 2*|r23| for X states."""
    return 2.0 * np.abs(states[4])


def correlators_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<Sx Sx>, <Sz Sz>) = (r23/2, (r11 - r22 - r33 + r44)/4)."""
    r11, r22, r33, r44, r23 = states
    return r23 / 2.0, (r11 - r22 - r33 + r44) / 4.0


def correlators_shortcut_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternate shortcut convention (r22/2, 1/4 - r23), kept for comparison.

    Disagrees with the correlators except on special states; emitted only
    under the CLI debug flag so the two conventions can be compared.
    """
    return states[1] / 2.0, 0.25 - states[4]


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
    ratio = np.where(h > 0.0, r23 / np.where(h > 0.0, h, 1.0), 0.0)
    mean = 0.5 * (r22 + r33)
    upper = np.maximum(mean + h, 0.0)
    lower = np.maximum(mean - h, 0.0)
    outer = (np.maximum(r11, 0.0), np.maximum(r44, 0.0))
    cutoff = _SUPPORT_TOL * np.maximum(np.maximum(outer[0], outer[1]), upper)
    total = 0.0
    for a in outer:
        for central, overlap in ((upper, 1.0 + ratio), (lower, 1.0 - ratio)):
            pair = a + central
            keep = pair > cutoff
            diff = a - central
            total = total + np.where(keep, diff * diff / np.where(keep, pair, 1.0), 0.0) * overlap
    return 4.0 * total


def central_difference(f, x, step: float):
    """Symmetric difference quotient (f(x+h) - f(x-h)) / 2h, O(h^2) accurate."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return (f(x + step) - f(x - step)) / (2.0 * step)


def qfi_dB_batch(params: dict, delta_b: float = 1e-3, impurity: bool = True) -> np.ndarray:
    """dF/dB by central difference over the full pipeline, at every point.

    `params` holds the keyword arguments of `limit_states`, with B an
    array; the states are rebuilt at B +- delta_b in one batched call each.
    The default step resolves the field scales on which F varies in this
    model (~0.05).
    """
    def f_of_b(b):
        return qfi_batch(limit_states(**dict(params, B=b), impurity=impurity))

    return central_difference(f_of_b, np.asarray(params["B"], dtype=float), delta_b)


# ---------------------------------------------------------------------------
# one state or one parameter point: batches of one

def concurrence_x(st: XState) -> float:
    """Wootters concurrence of an X state: 2*max(|r23| - sqrt(r11*r44), 0)."""
    return float(concurrence_batch(st.column())[0])


def l1_coherence(st: XState) -> float:
    """Sum of absolute off-diagonal elements; for an X state just 2*|r23|."""
    return float(coherence_batch(st.column())[0])


def spin_correlators(st: XState) -> tuple[float, float]:
    """(<Sx Sx>, <Sz Sz>) of one state."""
    xx, zz = correlators_batch(st.column())
    return float(xx[0]), float(zz[0])


def spin_correlators_shortcut(st: XState) -> tuple[float, float]:
    """The shortcut convention (r22/2, 1/4 - r23) of one state."""
    xx, zz = correlators_shortcut_batch(st.column())
    return float(xx[0]), float(zz[0])


def qfi(st: XState) -> float:
    """Bipartite quantum Fisher information of one X state (see qfi_batch)."""
    return float(qfi_batch(st.column())[0])


def qfi_field_derivative(p: ModelParams, delta_b: float = 1e-3,
                         impurity: bool = True) -> float:
    """dF/dB at one parameter point (see qfi_dB_batch)."""
    return float(qfi_dB_batch(dict(vars(p), B=np.array([p.B])), delta_b, impurity)[0])


def measure_bundle(p: ModelParams, impurity: bool = True,
                   with_derivative: bool = False,
                   delta_b: float = 1e-3) -> MeasureBundle:
    """Every measure of the thermal dimer state at one parameter point.

    With the derivative, the states at B - delta_b, B and B + delta_b are
    one batch of three.
    """
    if with_derivative and not delta_b > 0.0:
        raise ValueError(f"step must be positive, got {delta_b}")
    fields = [p.B - delta_b, p.B, p.B + delta_b] if with_derivative else [p.B]
    states = limit_states(**dict(vars(p), B=np.array(fields)), impurity=impurity)
    fisher = qfi_batch(states)
    at = len(fields) // 2
    xx, zz = correlators_batch(states)
    return MeasureBundle(
        concurrence=float(concurrence_batch(states)[at]),
        coherence_l1=float(coherence_batch(states)[at]),
        sxsx=float(xx[at]),
        szsz=float(zz[at]),
        qfi=float(fisher[at]),
        qfi_dB=(float((fisher[2] - fisher[0]) / (2.0 * delta_b)) if with_derivative else None),
    )
