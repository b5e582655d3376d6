"""Exact solver for a spin-1/2 Ising-XXZ chain with one embedded impurity dimer.

Transfer-matrix thermodynamics of a decorated chain whose quantum dimers are
conditioned on classical nodal spins, with one dimer carrying a Zeeman
distortion (1 + gamma).  The package computes the defect dimer's exact
thermal reduced density matrix (finite rings and the thermodynamic limit)
and the quantum-information measures built on it: Wootters concurrence,
l1 coherence, spin-spin correlators, quantum Fisher information and its
field derivative, and standard-teleportation fidelities.
"""

__version__ = "0.1.0"

from .model import (
    DimerEigensystem,
    ModelParams,
    OverflowRisk,
    boltzmann_weights,
    dimer_block,
    dimer_spectrum,
)
from .xfer import (
    DegenerateGap,
    InvalidN,
    NotAState,
    XState,
    finite_n_density_matrix,
    impurity_density_matrix,
    limit_states,
    partition_function,
)
from .oracle import TooLarge, brute_force_density_matrix, wootters_concurrence
from .measures import (
    MeasureBundle,
    coherence_batch,
    concurrence_batch,
    correlators_batch,
    measure_bundle,
    qfi,
    qfi_batch,
    qfi_dB_batch,
    qfi_field_derivative,
    spin_correlators,
)
from .teleport import (
    InputState,
    TeleportOutput,
    average_fidelity_batch,
    output_concurrence_batch,
    teleport_output,
)

# The CLI names resolve on first use, so importing the package does not
# import `cli` (and `python -m impurity_chain.cli` runs it only once).
_CLI_NAMES = (
    "ConfigError",
    "NotFound",
    "SweepConfig",
    "find_critical_field",
    "find_threshold_temperature",
    "run_point",
    "run_sweep",
    "threshold_temperatures",
)


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ModelParams", "DimerEigensystem", "OverflowRisk",
    "dimer_block", "dimer_spectrum", "boltzmann_weights",
    "XState", "InvalidN", "DegenerateGap", "NotAState", "partition_function",
    "limit_states", "impurity_density_matrix", "finite_n_density_matrix",
    "TooLarge", "brute_force_density_matrix", "wootters_concurrence",
    "MeasureBundle", "measure_bundle", "spin_correlators", "qfi",
    "qfi_field_derivative", "concurrence_batch", "coherence_batch",
    "correlators_batch", "qfi_batch", "qfi_dB_batch",
    "InputState", "TeleportOutput", "teleport_output",
    "output_concurrence_batch", "average_fidelity_batch",
    "ConfigError", "NotFound", "SweepConfig", "run_point", "run_sweep",
    "threshold_temperatures", "find_threshold_temperature", "find_critical_field",
]
