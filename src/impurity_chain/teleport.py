"""Standard teleportation through two independent copies of a thermal channel.

The joint Bell measurement turns the channel pair into a depolarizing map:
rho_out = sum_{ij} p_i p_j (sigma_i x sigma_j) rho_in (sigma_i x sigma_j)
with p_i the Bell-basis populations of the channel state.  For an X-state
channel and the one-parameter input family
|psi_in> = cos(theta/2)|10> + e^{i phi} sin(theta/2)|01>
everything collapses to closed forms: the output state of one channel
(`teleport_output`), and the output concurrence and average fidelity of
(5, n) channel batches.  The tests check them against the explicit 16-term
Kraus composition, built independently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .xfer import XState

__all__ = [
    "InputState",
    "TeleportOutput",
    "teleport_output",
    "output_concurrence_batch",
    "average_fidelity_batch",
]


@dataclass(frozen=True)
class InputState:
    """Pure input |psi> = cos(theta/2)|10> + e^{i phi} sin(theta/2)|01>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class TeleportOutput:
    """Output state coefficients and the assembled 4x4 Hermitian matrix.

    c sits at |00><00| and |11><11|, f at |01><01|, g at |10><10|; kappa is
    the (|01>, |10>) coherence, stored together with its conjugate so the
    matrix is Hermitian.
    """

    c: float
    f: float
    g: float
    kappa: complex
    matrix: np.ndarray = field(repr=False)


def teleport_output(ch: XState, inp: InputState) -> TeleportOutput:
    """Output of teleporting `inp` through two independent copies of `ch`.

    Computes the closed form
    c = (r22+r33)(r11+r44),
    f = (r11+r44)^2 cos^2(theta/2) + (r22+r33)^2 sin^2(theta/2),
    g = same with the roles swapped,
    kappa = 2 e^{i phi} r23^2 sin(theta).
    Raises NotAState for an invalid channel.
    """
    ch.validate()
    q_central = ch.r22 + ch.r33
    q_outer = ch.r11 + ch.r44
    cos2 = math.cos(0.5 * inp.theta) ** 2
    sin2 = math.sin(0.5 * inp.theta) ** 2
    c = q_central * q_outer
    f = q_outer ** 2 * cos2 + q_central ** 2 * sin2
    g = q_central ** 2 * cos2 + q_outer ** 2 * sin2
    kappa = 2.0 * cmath.exp(1j * inp.phi) * ch.r23 ** 2 * math.sin(inp.theta)
    matrix = np.array([
        [c, 0.0, 0.0, 0.0],
        [0.0, f, kappa, 0.0],
        [0.0, kappa.conjugate(), g, 0.0],
        [0.0, 0.0, 0.0, c],
    ], dtype=complex)
    return TeleportOutput(c=c, f=f, g=g, kappa=kappa, matrix=matrix)


def output_concurrence_batch(states: np.ndarray, input_concurrence: float) -> np.ndarray:
    """Output concurrence for (5, n) channel states and an input of concurrence
    C_in (|sin theta| for an InputState): 2*max(2 r23^2 C_in - |q1 q2|, 0)."""
    r11, r22, r33, r44, r23 = states
    value = 2.0 * r23 ** 2 * input_concurrence - np.abs(r22 + r33) * np.abs(r11 + r44)
    return 2.0 * np.maximum(value, 0.0)


def average_fidelity_batch(states: np.ndarray) -> np.ndarray:
    """Fidelity averaged over the input family with the sphere measure.

    For (5, n) channel states,
    F_A = [(r11+r44)^2 + 4 r23^2 - (r22+r33)^2]/3 + (r22+r33)^2; beating the
    classical bound requires F_A > 2/3.
    """
    r11, r22, r33, r44, r23 = states
    q_central = r22 + r33
    q_outer = r11 + r44
    bracket = q_outer ** 2 + 4.0 * r23 ** 2 - q_central ** 2
    return bracket / 3.0 + q_central ** 2
