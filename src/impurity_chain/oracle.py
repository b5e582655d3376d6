"""Brute-force references: configuration enumeration and generic concurrence.

These routines take no shortcuts.  The finite-chain density matrix is summed
over all 2^N classical nodal configurations, with every dimer block solved by
a dense np.linalg.eigh (model.dimer_spectrum), and the concurrence is computed
from the full spin-flip R matrix of an arbitrary two-qubit density matrix.
They exist to validate the transfer-matrix and X-state closed forms, so they
must stay independent of them.
"""

from __future__ import annotations

import numpy as np

from .model import SECTOR_VALUES, ModelParams, boltzmann_weights, dimer_block, dimer_spectrum
from .xfer import InvalidN, NotAState, XState

__all__ = [
    "TooLarge",
    "check_two_qubit_state",
    "wootters_concurrence",
    "brute_force_density_matrix",
]

_MAX_SITES = 14

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# eigenvalues of R below this (relative) magnitude are numerical noise
_CLAMP = 1e-12


class TooLarge(ValueError):
    """Enumeration over 2^N configurations refused beyond N = 14."""


def check_two_qubit_state(rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate a dense 4x4 density matrix; returns it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotAState(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise NotAState("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise NotAState(f"trace {np.trace(rho)} deviates from 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise NotAState("matrix has a negative eigenvalue")
    return rho


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    Builds R = rho (sy x sy) rho* (sy x sy), takes the square roots of its
    eigenvalues in descending order and returns
    max(0, l1 - l2 - l3 - l4).  Tiny negative eigenvalues of R (numerical
    noise, never beyond ~1e-12 for valid states) are clamped to zero before
    the square root.
    """
    rho = check_two_qubit_state(rho)
    r = rho @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.linalg.eigvals(r).real
    evals[np.abs(evals) < _CLAMP * max(1.0, np.abs(evals).max())] = 0.0
    evals = np.clip(evals, 0.0, None)
    lam = np.sort(np.sqrt(evals))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _cell_matrices(p: ModelParams, impurity: bool) -> dict[int, np.ndarray]:
    """Unnormalized thermal cell matrices sum_j e^{-beta(e_j - e_min)} |phi_j><phi_j|
    of each nodal sector, e_min the family's lowest level over the sectors."""
    spectra = {s: dimer_spectrum(dimer_block(p, s, impurity)) for s in SECTOR_VALUES}
    shift = min(float(energies[0]) for energies, _ in spectra.values())
    return {s: (vectors * np.exp(-p.beta * (energies - shift))) @ vectors.T
            for s, (energies, vectors) in spectra.items()}


def brute_force_density_matrix(p: ModelParams, N: int, impurity: bool = True,
                               impurity_bond: int = 0) -> XState:
    """Defect dimer state of an N-cell ring by explicit configuration sum.

    Sums the product of host Boltzmann factors over all 2^N nodal
    configurations, with the defect cell's unnormalized thermal matrix at one
    chosen bond; the result is independent of that choice.  Each family's
    weights are taken against its own lowest level, whose common factors
    cancel in the ratio.  Cost 2^N, so N is capped at 14.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise InvalidN(f"chain length must be an integer >= 2, got {N!r}")
    if N > _MAX_SITES:
        raise TooLarge(f"2^{N} configurations is past the N = {_MAX_SITES} cap")
    if not 0 <= impurity_bond < N:
        raise ValueError(f"impurity bond {impurity_bond} outside 0..{N - 1}")

    w = boltzmann_weights(p)
    cells = _cell_matrices(p, impurity)

    # all configurations as bit arrays; mu = +1/2 for bit 0, -1/2 for bit 1
    bits = np.arange(2 ** N, dtype=np.int64)[:, None] >> np.arange(N)[None, :] & 1
    mu = 0.5 - bits.astype(float)
    bond_sum = mu + np.roll(mu, -1, axis=1)          # in {-1, 0, +1}
    idx = np.rint(1 - bond_sum).astype(np.int64)     # sector -> {0, 1, 2}

    w_by_idx = np.array([w[1], w[0], w[-1]])
    host_idx = np.delete(idx, impurity_bond, axis=1)
    prefactor = np.prod(w_by_idx[host_idx], axis=1)

    # group configurations by the defect bond's sector
    defect_idx = idx[:, impurity_bond]
    group = np.array([prefactor[defect_idx == k].sum() for k in range(3)])

    cells_by_idx = (cells[1], cells[0], cells[-1])
    traces = np.array([float(np.trace(c)) for c in cells_by_idx])
    z = float(group @ traces)
    if z <= 0.0:
        raise ArithmeticError(f"enumerated partition sum {z!r} not positive")
    mat = sum(group[k] * cells_by_idx[k] for k in range(3)) / z
    return XState(
        r11=float(mat[0, 0]),
        r22=float(mat[1, 1]),
        r33=float(mat[2, 2]),
        r44=float(mat[3, 3]),
        r23=float(mat[1, 2]),
    )
