import math

import numpy as np
import pytest

from impurity_chain.measures import (
    central_difference,
    coherence_batch,
    concurrence_batch,
    correlators_shortcut_batch,
    measure_bundle,
    qfi,
    qfi_batch,
    qfi_field_derivative,
    spin_correlators,
)
from impurity_chain.model import ModelParams
from impurity_chain.xfer import XState, impurity_density_matrix, limit_states
from conftest import draw_xstate, of_state, random_grid, whole_range_scan

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)

BELL_PSI_MINUS = XState(0.0, 0.5, 0.5, 0.0, -0.5)
BELL_PSI_PLUS = XState(0.0, 0.5, 0.5, 0.0, 0.5)
MAXIMALLY_MIXED = XState(0.25, 0.25, 0.25, 0.25, 0.0)

_I2 = np.eye(2, dtype=complex)
_SPIN = (
    _I2,
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)
OBSERVABLES = tuple(math.sqrt(2.0) * (np.kron(a, _I2) + np.kron(_I2, a)) for a in _SPIN)


def qfi_direct(rho, observable):
    """Independent evaluation of the full 16-term double sum for one observable,
    skipping pairs below 1e-12 of the largest eigenvalue."""
    tau, vecs = np.linalg.eigh(rho)
    elements = vecs.conj().T @ observable @ vecs
    total = 0.0
    for i in range(4):
        for j in range(4):
            if tau[i] + tau[j] <= 1e-12 * tau[-1]:
                continue
            total += 2.0 * (tau[i] - tau[j]) ** 2 / (tau[i] + tau[j]) * abs(elements[i, j]) ** 2
    return total


def random_pure_x(rng):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    a, b = math.cos(angle), math.sin(angle)
    return XState(0.0, a * a, b * b, 0.0, a * b)


class TestConcurrence:
    def test_bell_state(self):
        assert of_state(concurrence_batch, BELL_PSI_MINUS) == 1.0

    def test_maximally_mixed(self):
        assert of_state(concurrence_batch, MAXIMALLY_MIXED) == 0.0

    def test_diagonal_states_are_separable(self, rng):
        for _ in range(20):
            st = draw_xstate(rng)
            diagonal = XState(st.r11, st.r22, st.r33, st.r44, 0.0)
            assert of_state(concurrence_batch, diagonal) == 0.0

    def test_range(self, rng):
        for _ in range(200):
            c = of_state(concurrence_batch, draw_xstate(rng))
            assert 0.0 <= c <= 1.0


class TestCoherence:
    def test_bell_state(self):
        assert of_state(coherence_batch, BELL_PSI_MINUS) == 1.0

    def test_diagonal_state(self):
        assert of_state(coherence_batch, XState(0.4, 0.3, 0.2, 0.1, 0.0)) == 0.0

    def test_is_twice_the_coherence(self):
        assert of_state(coherence_batch, XState(0.1, 0.3, 0.3, 0.3, 0.3)) == pytest.approx(0.6)


class TestCorrelators:
    def test_singlet(self):
        assert spin_correlators(BELL_PSI_MINUS) == (pytest.approx(-0.25), pytest.approx(-0.25))

    def test_polarized_product_state(self):
        assert spin_correlators(XState(1.0, 0.0, 0.0, 0.0, 0.0)) == (0.0, pytest.approx(0.25))

    def test_maximally_mixed(self):
        assert spin_correlators(MAXIMALLY_MIXED) == (0.0, 0.0)

    def test_explicit_trace_oracle(self, rng):
        sx = np.kron(_SPIN[1], _SPIN[1])
        sz = np.kron(_SPIN[3], _SPIN[3])
        for _ in range(50):
            st = draw_xstate(rng)
            rho = st.to_matrix().astype(complex)
            xx, zz = spin_correlators(st)
            assert xx == pytest.approx(np.trace(rho @ sx).real, abs=1e-14)
            assert zz == pytest.approx(np.trace(rho @ sz).real, abs=1e-14)
            assert -0.25 - 1e-14 <= xx <= 0.25 + 1e-14
            assert -0.25 - 1e-14 <= zz <= 0.25 + 1e-14

    def test_shortcut_variant(self):
        st = XState(0.1, 0.4, 0.3, 0.2, -0.15)
        assert of_state(correlators_shortcut_batch, st) == (0.2, 0.4)

    def test_conventions_differ_generically(self, rng):
        st = draw_xstate(rng)
        assert spin_correlators(st) != of_state(correlators_shortcut_batch, st)


class TestQfi:
    def test_maximally_mixed_is_blind(self):
        assert qfi(MAXIMALLY_MIXED) == 0.0

    def test_singlet_is_blind(self):
        # the singlet is annihilated by every collective spin component
        assert qfi(BELL_PSI_MINUS) == pytest.approx(0.0, abs=1e-12)

    def test_triplet_bell_value(self):
        # |psi+>: Sx and Sy terms contribute 4*Var = 8 each, Sz and identity none
        assert qfi(BELL_PSI_PLUS) == pytest.approx(16.0, abs=1e-10)

    def test_against_independent_double_sum(self, rng):
        for _ in range(50):
            st = draw_xstate(rng)
            rho = st.to_matrix()
            expected = sum(qfi_direct(rho, g) for g in OBSERVABLES)
            assert qfi(st) == pytest.approx(expected, abs=1e-10)

    def test_pure_state_variance_identity(self, rng):
        for _ in range(100):
            st = random_pure_x(rng)
            ket = None
            tau, vecs = np.linalg.eigh(st.to_matrix())
            ket = vecs[:, int(np.argmax(tau))]
            expected = 0.0
            for g in OBSERVABLES:
                mean = ket.conj() @ g @ ket
                square = ket.conj() @ (g @ g) @ ket
                expected += 4.0 * (square - mean ** 2).real
            assert qfi(st) == pytest.approx(expected, abs=1e-10)

    def test_identity_observable_contributes_nothing(self, rng):
        for _ in range(20):
            st = draw_xstate(rng)
            assert qfi_direct(st.to_matrix(), OBSERVABLES[0]) < 1e-14

    def test_continuous_through_eigenvalue_crossing(self):
        degenerate = XState(0.3, 0.2, 0.2, 0.3, 0.1)
        nudged = XState(0.3, 0.2 + 1e-9, 0.2 - 1e-9, 0.3 - 1e-16, 0.1)
        assert qfi(nudged) == pytest.approx(qfi(degenerate), abs=1e-6)

    def test_closed_form_against_double_sum_on_kernel_states(self, rng):
        # the closed form against the eigenbasis double sum over the whole
        # physical range, plus hand-made states at its edge cases
        scan = whole_range_scan()
        columns = {k: np.concatenate([v, [getattr(p, k) for p in scan]])
                   for k, v in random_grid(rng, 400).items()}
        c, s = 0.6, 0.8
        pure = 1.0 - 3e-13 - 3e-12
        edge_cases = np.array([
            (0.3, 0.2, 0.2, 0.3, 0.0),    # h = 0
            (0.1, 0.4, 0.4, 0.1, 0.0),    # h = 0
            (0.0, 0.5, 0.5, 0.0, 0.0),    # h = 0 and r11 = r44 = 0
            (0.0, 0.5, 0.5, 0.0, 0.5),    # r11 = r44 = 0, lambda- = 0
            (0.0, 0.7, 0.3, 0.0, -0.2),   # r11 = r44 = 0
            # lambda- ~ 0: r11 + lambda- falls below the cutoff, r44 + lambda- not
            (3e-13, pure * c * c, pure * s * s, 3e-12, pure * c * s),
        ]).T
        states = np.concatenate([limit_states(**columns), edge_cases], axis=1)
        fisher = qfi_batch(states)
        for i in range(states.shape[1]):
            rho = XState(*states[:, i].tolist()).to_matrix()
            expected = sum(qfi_direct(rho, g) for g in OBSERVABLES)
            assert abs(fisher[i] - expected) <= 1e-12 * max(1.0, expected), i

    def test_nonnegative(self, rng):
        for _ in range(100):
            assert qfi(draw_xstate(rng)) >= 0.0


class TestFieldDerivative:
    def test_central_difference_is_exact_on_quadratics(self):
        for b in (0.0, 0.7, 2.0):
            d = central_difference(lambda x: x * x, b, 1e-3)
            assert d == pytest.approx(2.0 * b, abs=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            central_difference(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_rejects_non_finite_step(self, step):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.05)
        with pytest.raises(ValueError, match="finite"):
            qfi_field_derivative(p, delta_b=step)
        with pytest.raises(ValueError, match="finite"):
            measure_bundle(p, with_derivative=True, delta_b=step)

    def test_flat_deep_saturation(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=10.0, T=0.05)
        assert abs(qfi_field_derivative(p)) <= 1e-6

    def test_second_order_convergence(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=2.0, T=0.3)
        reference = qfi_field_derivative(p, delta_b=1e-5)
        err1 = abs(qfi_field_derivative(p, delta_b=8e-3) - reference)
        err2 = abs(qfi_field_derivative(p, delta_b=4e-3) - reference)
        assert err2 <= err1 / 2.5  # O(h^2) would give a factor 4

    def test_sharp_feature_exists_for_both_couplings(self):
        # an interior spike of |dF/dB| exists below B = 0.9 for J0 = 0.7 and 1
        for j0 in (0.7, 1.0):
            fields = np.linspace(0.2, 0.9, 71)
            slopes = [abs(qfi_field_derivative(
                ModelParams(**STANDARD, Delta=0.5, J0=j0, gamma=-0.8, B=float(b), T=0.05)))
                for b in fields]
            peak = int(np.argmax(slopes))
            assert 0 < peak < len(fields) - 1
            assert slopes[peak] > 3.0


class TestMeasureBundle:
    def test_matches_individual_measures(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=0.8, T=0.3)
        st = impurity_density_matrix(p)
        bundle = measure_bundle(p, with_derivative=True)
        assert bundle.concurrence == of_state(concurrence_batch, st)
        assert bundle.coherence_l1 == of_state(coherence_batch, st)
        assert (bundle.sxsx, bundle.szsz) == spin_correlators(st)
        assert bundle.qfi == qfi(st)
        assert bundle.qfi_dB == qfi_field_derivative(p)

    def test_derivative_optional(self):
        assert measure_bundle(ModelParams(B=0.5, T=0.5)).qfi_dB is None


class TestModelFeatures:
    def test_qfi_vanishes_at_critical_field(self):
        b_star = 1.0 / ((5.0 - 1.1) * 0.2)
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=b_star, T=0.05)
        at_critical = qfi(impurity_density_matrix(p))
        fields = np.linspace(0.0, 3.0, 61)
        curve = [qfi(impurity_density_matrix(
            ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=float(b), T=0.05)))
            for b in fields]
        assert at_critical <= 0.05 * max(curve)
