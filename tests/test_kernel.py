"""The batched limit-state kernel: batch-size independence and the whole range.

Every output of the solver goes through `xfer.limit_states` and the array
measures.  Sweeps split grids over worker processes and the finders mix
batched scans with one-point refinements, so a point must get the same bits
whatever batch it is evaluated in.
"""

import itertools

import numpy as np
import pytest

from impurity_chain.measures import (
    coherence_batch,
    concurrence_batch,
    concurrence_x,
    correlators_batch,
    correlators_shortcut_batch,
    l1_coherence,
    qfi,
    qfi_batch,
    qfi_dB_batch,
    qfi_field_derivative,
    spin_correlators,
    spin_correlators_shortcut,
)
from impurity_chain.model import ModelParams, OverflowRisk
from impurity_chain.teleport import (
    InputState,
    average_fidelity,
    average_fidelity_batch,
    output_concurrence,
    output_concurrence_batch,
)
from impurity_chain.xfer import XState, impurity_density_matrix, limit_states
from conftest import random_grid, whole_range_scan

NAMES = ("J", "Delta", "J0", "g1", "g2", "g3", "gamma", "B", "T")


def chunked(grid, sizes):
    """Evaluate contiguous chunks of the given sizes (cycled) and join them."""
    n = len(grid["B"])
    parts, start = [], 0
    for size in itertools.cycle(sizes):
        if start >= n:
            break
        piece = {k: v[start:start + size] for k, v in grid.items()}
        parts.append(limit_states(**piece))
        start += size
    return np.concatenate(parts, axis=1)


def point(grid, i):
    return ModelParams(**{k: float(v[i]) for k, v in grid.items()})


class TestBatchIndependence:
    def test_whole_chunked_and_single_points_bit_identical(self, rng):
        grid = random_grid(rng)
        whole = limit_states(**grid)
        assert whole.shape == (5, 121)
        pieces = chunked(grid, (7, 37))
        singles = np.stack([limit_states(**{k: v[i:i + 1] for k, v in grid.items()})[:, 0]
                            for i in range(121)], axis=1)
        assert whole.tobytes() == pieces.tobytes() == singles.tobytes()
        fisher = qfi_batch(whole)
        assert fisher.tobytes() == qfi_batch(pieces[:, :60]).tobytes() + qfi_batch(
            pieces[:, 60:]).tobytes()
        assert fisher.tobytes() == np.array([qfi_batch(whole[:, i:i + 1])[0]
                                             for i in range(121)]).tobytes()

    def test_scalar_parameters_broadcast_like_arrays(self):
        fields = np.linspace(0.0, 3.0, 31)
        fixed = dict(J=1.0, Delta=0.5, J0=1.0, g1=1.2, g2=5.0, g3=1.1, gamma=-0.8, T=0.05)
        broadcast = limit_states(**fixed, B=fields)
        full = limit_states(**{k: np.full(31, v) for k, v in fixed.items()}, B=fields)
        assert broadcast.tobytes() == full.tobytes()

    def test_derivative_independent_of_batch(self, rng):
        grid = random_grid(rng, 40)
        grid["T"] = np.maximum(grid["T"], 0.05)
        whole = qfi_dB_batch(grid)
        singles = [qfi_field_derivative(point(grid, i)) for i in range(40)]
        assert whole.tobytes() == np.array(singles).tobytes()

    def test_one_point_api_is_a_batch_of_one(self, rng):
        grid = random_grid(rng, 60)
        states = limit_states(**grid)
        inp = InputState(theta=1.1)
        columns = {
            concurrence_x: concurrence_batch(states),
            l1_coherence: coherence_batch(states),
            qfi: qfi_batch(states),
            average_fidelity: average_fidelity_batch(states),
        }
        xx, zz = correlators_batch(states)
        xs, zs = correlators_shortcut_batch(states)
        cout = output_concurrence_batch(states, inp.input_concurrence)
        for i in range(60):
            st = impurity_density_matrix(point(grid, i))
            assert st == XState(*states[:, i].tolist())
            for scalar, batch in columns.items():
                assert scalar(st) == batch[i]
            assert spin_correlators(st) == (xx[i], zz[i])
            assert spin_correlators_shortcut(st) == (xs[i], zs[i])
            assert output_concurrence(st, inp) == cout[i]

    def test_gamma_zero_equals_host_cells_bitwise(self, rng):
        grid = random_grid(rng)
        grid["gamma"] = np.zeros(121)
        on = limit_states(**grid, impurity=True)
        off = limit_states(**grid, impurity=False)
        assert on.tobytes() == off.tobytes()


class TestGuards:
    def test_error_names_the_first_failing_point(self):
        temps = np.array([0.1, 1e-310, 1e-320])
        with pytest.raises(OverflowRisk, match="T=1e-310"):
            limit_states(1.0, 1.0, 1.0, 1.2, 5.0, 1.1, 0.0, 1.0, temps)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="T=0.0"):
            limit_states(1.0, 1.0, 1.0, 1.2, 5.0, 1.1, 0.0, 1.0, np.array([0.5, 0.0]))


def test_whole_range_limit_state_scan():
    """Every one of the 3,168 points of `whole_range_scan` gives a valid
    state, one point at a time and as one batch."""
    points = whole_range_scan()
    assert len(points) == 3168
    failures, worst_trace, lowest = [], 0.0, 0.0
    states = []
    for p in points:
        try:
            st = impurity_density_matrix(p)
        except Exception as exc:  # every failure is counted and reported
            failures.append(f"{p}: {exc!r}")
            continue
        states.append(st)
        worst_trace = max(worst_trace, abs(st.trace - 1.0))
        lowest = min(lowest, float(st.eigenvalues()[0]))
    assert not failures, f"{len(failures)} failures, first {failures[0]}"
    assert worst_trace <= 1e-12
    assert lowest >= -1e-12
    batch = limit_states(**{k: np.array([getattr(p, k) for p in points]) for k in NAMES})
    assert batch.tobytes() == np.array([list(vars(st).values()) for st in states]).T.tobytes()
