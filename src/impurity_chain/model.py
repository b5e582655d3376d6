"""Model parameters, dimer Hamiltonian blocks, and the oracle's spectra and weights.

The chain alternates classical Ising "nodal" spins with quantum spin-1/2
XXZ dimers.  Conditioned on the two nodal spins flanking a dimer, the cell
Hamiltonian is a 4x4 block that depends on them only through their sum
s = mu_i + mu_{i+1}, so every thermal quantity reduces to the three nodal
sectors s in {+1, 0, -1}.

One designated dimer carries a field distortion: its two Zeeman fields are
rescaled by (1 + gamma), which models a local magnetic defect.  Host and
defect cells share the same exchange structure and differ only in fields.

dimer_spectrum (a dense np.linalg.eigh) and boltzmann_weights are the
enumeration oracle's scalar path; the solver's kernel in xfer calls neither.

Units: |J| sets the energy scale, k_B = 1 and mu_0 = 1, so B and T are
energies as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OverflowRisk",
    "ModelParams",
    "SECTOR_VALUES",
    "DELTA_B",
    "dimer_block",
    "dimer_spectrum",
    "boltzmann_weights",
]

SECTOR_VALUES = (1, 0, -1)

# the default central-difference step of dF/dB in B, for the library and the
# CLI alike; it resolves the field scales of F (~0.05)
DELTA_B = 1e-3


class OverflowRisk(ValueError):
    """A dimer level or 1/T past the float range."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the chain; the single source of truth.

    J      : XX exchange inside a dimer (energy unit, must be nonzero)
    Delta  : exchange anisotropy of the z-z term relative to J
    J0     : Ising coupling between a dimer's first spin and its nodal spins
    g1..g3 : gyromagnetic factors of the nodal spin and the two dimer spins
    gamma  : impurity strength; the defect dimer feels fields g_k*B*(1+gamma)
    B      : external field magnitude
    T      : absolute temperature (> 0)
    """

    J: float = 1.0
    Delta: float = 1.0
    J0: float = 1.0
    g1: float = 1.2
    g2: float = 5.0
    g3: float = 1.1
    gamma: float = 0.0
    B: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.J == 0.0:
            raise ValueError("J = 0 degenerates the dimer eigenbasis; unsupported")
        if not self.T > 0.0:
            raise ValueError(f"temperature must be positive, got {self.T}")

    @property
    def beta(self) -> float:
        return 1.0 / self.T


def _sector_value(sector) -> int:
    s = int(sector)
    if s not in SECTOR_VALUES:
        raise ValueError(f"nodal sector sum must be -1, 0 or +1, got {s}")
    return s


def dimer_block(p: ModelParams, sector, impurity: bool = False) -> np.ndarray:
    """4x4 cell Hamiltonian in the basis {|00>, |01>, |10>, |11>}, |0> = S^z +1/2.

    Diagonal: z-z exchange J*Delta/4 signs, the nodal coupling J0*s/2 acting on
    the first dimer spin, the dimer Zeeman terms with fields g2*B and g3*B
    (times 1 + gamma in the defect cell) and the shared, never distorted,
    nodal Zeeman term -g1*B*s/2.  The only off-diagonal element is the J/2
    flip-flop between |01> and |10>.  Exactly symmetric by construction.
    """
    s = _sector_value(sector)
    scale = 1.0 + p.gamma if impurity else 1.0
    b2 = p.g2 * p.B * scale
    b3 = p.g3 * p.B * scale
    zz = p.J * p.Delta / 4.0
    nodal = p.J0 * s / 2.0
    f1 = p.g1 * p.B * s / 2.0
    h = np.zeros((4, 4))
    h[0, 0] = zz + nodal - f1 - (b2 + b3) / 2.0
    h[1, 1] = -zz + nodal - f1 - (b2 - b3) / 2.0
    h[2, 2] = -zz - nodal - f1 + (b2 - b3) / 2.0
    h[3, 3] = zz - nodal - f1 + (b2 + b3) / 2.0
    h[1, 2] = h[2, 1] = p.J / 2.0
    return h


def dimer_spectrum(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(energies, vectors) by dense np.linalg.eigh: ascending eigenvalues with
    orthonormal eigenvector columns, sharing none of the kernel's algebra."""
    return np.linalg.eigh(H)


def boltzmann_weights(p: ModelParams, impurity: bool = False) -> dict[int, float]:
    """Sector Boltzmann factors w(s) = sum_j exp(-beta*(e_j(s) - e_min)) of one family.

    Keyed by the sector sum s.  e_min is the family's (host or defect) lowest
    level over the three sectors, so every exponent is <= 0 and the largest
    weight is at least 1.  The scalar path of the enumeration oracle; the
    solver evaluates the same weights in its batched kernel.  Raises
    OverflowRisk where 1/T overflows, as the kernel does.
    """
    if math.isinf(p.beta):
        raise OverflowRisk(f"1/T overflows at {p}")
    energies = {s: dimer_spectrum(dimer_block(p, s, impurity))[0] for s in SECTOR_VALUES}
    shift = min(float(e[0]) for e in energies.values())
    return {s: float(np.exp(-p.beta * (e - shift)).sum()) for s, e in energies.items()}
