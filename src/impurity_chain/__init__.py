"""Exact solver for a spin-1/2 Ising-XXZ chain with one embedded impurity dimer.

Transfer-matrix thermodynamics of a decorated chain whose quantum dimers are
conditioned on classical nodal spins, with one dimer carrying a Zeeman
distortion (1 + gamma).  The package computes the defect dimer's exact
thermal reduced density matrix (finite rings and the thermodynamic limit)
and the quantum-information measures built on it: Wootters concurrence,
l1 coherence, spin-spin correlators, quantum Fisher information and its
field derivative, and standard-teleportation fidelities.  The sweeps, the
finders and the command line live in `impurity_chain.cli`, and the oracle
that checks the solver in `impurity_chain.oracle`; the package imports
neither and re-exports only the solver.
"""

__version__ = "0.1.0"

from .model import ModelParams, OverflowRisk
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
from .measures import (
    MeasureBundle,
    coherence_batch,
    concurrence_batch,
    measure_bundle,
    measure_columns,
    qfi,
    qfi_batch,
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

__all__ = [
    "__version__",
    "ModelParams", "OverflowRisk",
    "XState", "InvalidN", "DegenerateGap", "NotAState", "partition_function",
    "limit_states", "impurity_density_matrix", "finite_n_density_matrix",
    "MeasureBundle", "measure_bundle", "spin_correlators", "qfi", "qfi_field_derivative",
    "concurrence_batch", "coherence_batch", "qfi_batch", "measure_columns",
    "InputState", "TeleportOutput", "teleport_output",
    "output_concurrence_batch", "average_fidelity_batch",
]
