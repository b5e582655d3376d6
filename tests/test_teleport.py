import cmath
import math

import numpy as np
import pytest

from impurity_chain.model import ModelParams
from impurity_chain.oracle import wootters_concurrence
from impurity_chain.teleport import (
    InputState,
    average_fidelity_batch,
    output_concurrence_batch,
    teleport_output,
)
from impurity_chain.xfer import NotAState, XState, impurity_density_matrix
from conftest import draw_xstate, of_state

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
# no classical measure-and-prepare protocol reaches an average fidelity above 2/3
CLASSICAL_FIDELITY_BOUND = 2.0 / 3.0

PERFECT = XState(0.0, 0.5, 0.5, 0.0, -0.5)       # the singlet channel
MIXED = XState(0.25, 0.25, 0.25, 0.25, 0.0)

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# the Bell vectors (Psi-, Phi-, Phi+, Psi+) times sqrt(2), so that their
# entries 0 and +-1 keep the populations of simple channels exact
_BELL = np.array([
    [0.0, 1.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
])


def bell_probabilities(ch):
    """<Bell_k| rho |Bell_k> of the dense channel matrix, in the order (Psi-,
    Phi-, Phi+, Psi+) of the Paulis (I, X, Y, Z); NotAState for an invalid channel."""
    rho = ch.validate().to_matrix()
    return tuple(float(b @ rho @ b) / 2.0 for b in _BELL)


def ket(inp):
    """|psi> = cos(theta/2)|10> + e^{i phi} sin(theta/2)|01>, basis |00>, |01>, |10>, |11>."""
    amp = cmath.exp(1j * inp.phi) * math.sin(0.5 * inp.theta)
    return np.array([0.0, amp, math.cos(0.5 * inp.theta), 0.0], dtype=complex)


def density_matrix(inp):
    k = ket(inp)
    return np.outer(k, k.conj())


def fidelity(ch, inp):
    """<psi| rho_out |psi> of teleport_output's state."""
    k = ket(inp)
    return float((k.conj() @ teleport_output(ch, inp).matrix @ k).real)


def kraus_reference(ch, inp):
    """Independent composition sum, built from scratch for cross-checks."""
    probs = bell_probabilities(ch)
    rho = density_matrix(inp)
    out = np.zeros((4, 4), dtype=complex)
    for i, pi in enumerate(probs):
        for j, pj in enumerate(probs):
            k = np.kron(_PAULI[i], _PAULI[j])
            out += pi * pj * (k @ rho @ k.conj().T)
    return out


def random_input(rng):
    return InputState(theta=float(rng.uniform(0.0, math.pi)),
                      phi=float(rng.uniform(0.0, 2.0 * math.pi)))


def quadrature_average_fidelity(ch, order=64):
    """64x64 Gauss-Legendre integral of the direct expectation <psi|rho_out|psi>.

    Uses F(theta, phi) = sum_ij p_i p_j |<psi|sigma_i x sigma_j|psi>|^2, which
    follows from <psi|K rho_in K|psi> = |<psi|K|psi>|^2; independent of every
    closed form under test.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * math.pi * (nodes + 1.0)
    w_theta = 0.5 * math.pi * weights
    phi = math.pi * (nodes + 1.0)
    w_phi = math.pi * weights

    tt, ff = np.meshgrid(theta, phi, indexing="ij")
    kets = np.zeros(tt.shape + (4,), dtype=complex)
    kets[..., 1] = np.exp(1j * ff) * np.sin(0.5 * tt)
    kets[..., 2] = np.cos(0.5 * tt)

    probs = bell_probabilities(ch)
    kraus = np.stack([np.kron(a, b) for a in _PAULI for b in _PAULI])
    pair_weights = np.array([pi * pj for pi in probs for pj in probs])
    amplitudes = np.einsum("tfi,kij,tfj->ktf", kets.conj(), kraus, kets)
    f_grid = np.einsum("k,ktf->tf", pair_weights, np.abs(amplitudes) ** 2)
    integral = np.einsum("t,f,tf->", w_theta, w_phi, f_grid * np.sin(tt))
    return float(integral / (4.0 * math.pi))


class TestInputState:
    def test_ket_layout(self):
        k = ket(InputState(theta=math.pi / 2, phi=0.0))
        assert k[1] == pytest.approx(1 / math.sqrt(2))
        assert k[2] == pytest.approx(1 / math.sqrt(2))
        assert k[0] == k[3] == 0.0

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.3, 0.0), (1.0, -0.5), (1.0, 7.0)])
    def test_range_validation(self, theta, phi):
        with pytest.raises(ValueError):
            InputState(theta=theta, phi=phi)


class TestBellProbabilities:
    def test_perfect_channel(self):
        assert bell_probabilities(PERFECT) == (1.0, 0.0, 0.0, 0.0)

    def test_maximally_mixed(self):
        assert bell_probabilities(MIXED) == (0.25, 0.25, 0.25, 0.25)

    def test_no_coherence_balances_psi_sectors(self, rng):
        st = draw_xstate(rng)
        flat = XState(st.r11, st.r22, st.r33, st.r44, 0.0)
        p0, p1, p2, p3 = bell_probabilities(flat)
        assert p0 == p3 == pytest.approx((flat.r22 + flat.r33) / 2)
        assert p1 == p2

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(50):
            probs = bell_probabilities(draw_xstate(rng))
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(q >= -1e-14 for q in probs)

    def test_invalid_channel_rejected(self):
        with pytest.raises(NotAState):
            bell_probabilities(XState(0.5, 0.5, 0.5, 0.5, 0.0))


class TestTeleportOutput:
    def test_perfect_channel_is_identity_map(self, rng):
        for _ in range(20):
            inp = random_input(rng)
            out = teleport_output(PERFECT, inp)
            assert np.abs(out.matrix - density_matrix(inp)).max() <= 1e-12

    def test_maximally_mixed_channel_depolarizes(self, rng):
        out = teleport_output(MIXED, random_input(rng))
        assert np.abs(out.matrix - np.eye(4) / 4.0).max() <= 1e-12

    def test_polar_input_is_classical(self, rng):
        ch = draw_xstate(rng)
        out = teleport_output(ch, InputState(theta=0.0))
        assert out.kappa == 0.0
        assert out.f == pytest.approx((ch.r11 + ch.r44) ** 2, abs=1e-14)
        assert out.g == pytest.approx((ch.r22 + ch.r33) ** 2, abs=1e-14)

    def test_closed_form_equals_kraus_composition(self, rng):
        for _ in range(300):
            ch, inp = draw_xstate(rng), random_input(rng)
            out = teleport_output(ch, inp)
            assert np.abs(out.matrix - kraus_reference(ch, inp)).max() <= 1e-12

    @pytest.mark.parametrize("ch", [XState(0.5, 0.5, 0.5, 0.5, 0.0),
                                    XState(0.25, 0.25, 0.25, 0.25, 0.5),
                                    XState(math.nan, 0.5, 0.5, 0.0, 0.0),
                                    XState(0.0, math.nan, 0.5, 0.0, 0.0),
                                    XState(0.0, 0.5, math.nan, 0.0, 0.0),
                                    XState(0.5, 0.0, 0.0, math.nan, 0.0),
                                    XState(0.0, 0.5, 0.5, 0.0, math.nan),
                                    XState(0.0, 0.5, 0.5, 0.0, math.inf)])
    def test_invalid_channel_rejected(self, ch):
        # a non-finite element is named in the error
        named = next((k for k, v in vars(ch).items() if not math.isfinite(v)), None)
        with pytest.raises(NotAState, match=named):
            teleport_output(ch, InputState(theta=1.0))

    def test_output_is_hermitian_unit_trace(self, rng):
        for _ in range(50):
            out = teleport_output(draw_xstate(rng), random_input(rng))
            assert np.abs(out.matrix - out.matrix.conj().T).max() == 0.0
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert 2 * out.c + out.f + out.g == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-12


class TestOutputConcurrence:
    def test_perfect_channel_equator(self):
        assert of_state(output_concurrence_batch, PERFECT,
                        abs(math.sin(math.pi / 2))) == pytest.approx(1.0)

    def test_polar_input_never_entangled(self, rng):
        assert of_state(output_concurrence_batch, draw_xstate(rng),
                        abs(math.sin(0.0))) == 0.0

    def test_agrees_with_generic_wootters(self, rng):
        for _ in range(200):
            ch, inp = draw_xstate(rng), random_input(rng)
            c_in = abs(math.sin(inp.theta))
            assert abs(wootters_concurrence(density_matrix(inp)) - c_in) <= 1e-10
            closed = of_state(output_concurrence_batch, ch, c_in)
            generic = wootters_concurrence(teleport_output(ch, inp).matrix)
            assert abs(closed - generic) <= 1e-10


class TestFidelity:
    def test_perfect_channel(self, rng):
        for _ in range(20):
            assert fidelity(PERFECT, random_input(rng)) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_channel(self, rng):
        assert fidelity(MIXED, random_input(rng)) == pytest.approx(0.25, abs=1e-14)

    def test_polar_input(self, rng):
        ch = draw_xstate(rng)
        assert fidelity(ch, InputState(theta=0.0)) == pytest.approx(
            (ch.r22 + ch.r33) ** 2, abs=1e-14)

    def test_agrees_with_direct_expectation(self, rng):
        for _ in range(100):
            ch, inp = draw_xstate(rng), random_input(rng)
            k = ket(inp)
            direct = (k.conj() @ kraus_reference(ch, inp) @ k).real
            assert fidelity(ch, inp) == pytest.approx(direct, abs=1e-12)

    def test_range(self, rng):
        for _ in range(100):
            f = fidelity(draw_xstate(rng), random_input(rng))
            assert -1e-14 <= f <= 1.0 + 1e-14


class TestAverageFidelity:
    def test_perfect_channel(self):
        assert of_state(average_fidelity_batch, PERFECT) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_channel(self):
        assert of_state(average_fidelity_batch, MIXED) == pytest.approx(0.25, abs=1e-14)

    def test_dephased_channel_never_beats_classical(self, rng):
        for _ in range(20):
            st = draw_xstate(rng)
            scale = 0.5 / (st.r22 + st.r33)
            rest = (1.0 - 0.5) / (st.r11 + st.r44)
            dephased = XState(st.r11 * rest, st.r22 * scale, st.r33 * scale,
                              st.r44 * rest, 0.0)
            assert of_state(average_fidelity_batch, dephased) <= CLASSICAL_FIDELITY_BOUND

    def test_quadrature_oracle(self, rng):
        for _ in range(10):
            ch = draw_xstate(rng)
            assert of_state(average_fidelity_batch, ch) == pytest.approx(
                quadrature_average_fidelity(ch), abs=1e-8)

    def test_bounds_on_arbitrary_x_channels(self, rng):
        # sharp analytic bounds for the X family are [2/9, 1]; 1/4 is only the
        # infinite-temperature value, not a lower bound
        for _ in range(300):
            fa = of_state(average_fidelity_batch, draw_xstate(rng))
            assert 2.0 / 9.0 - 1e-12 <= fa <= 1.0 + 1e-12

    def test_thermal_channel_optimum(self):
        b_star = 1.0 / ((5.0 - 1.1) * 0.2)
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=b_star, T=0.01)
        fa = of_state(average_fidelity_batch, impurity_density_matrix(p))
        assert fa >= 0.99
        assert fa > CLASSICAL_FIDELITY_BOUND
