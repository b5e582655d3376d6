import numpy as np
import pytest

from impurity_chain.model import ModelParams
from impurity_chain.oracle import (
    TooLarge,
    brute_force_density_matrix,
    check_two_qubit_state,
    wootters_concurrence,
)
from impurity_chain.xfer import (
    InvalidN,
    NotAState,
    finite_n_density_matrix,
    impurity_density_matrix,
)
from impurity_chain.measures import concurrence_batch
from conftest import REFERENCE_MISS, draw_params, draw_xstate, of_state

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_FLIP = np.kron(_SY, _SY)


def bell(kind):
    v = np.zeros(4, dtype=complex)
    if kind == "psi-":
        v[1], v[2] = 1.0, -1.0
    elif kind == "psi+":
        v[1], v[2] = 1.0, 1.0
    elif kind == "phi+":
        v[0], v[3] = 1.0, 1.0
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestBruteForce:
    def test_matches_transfer_matrix_route(self, rng):
        for i in range(40):
            n = 2 + i % 11
            p = draw_params(rng)
            bf = brute_force_density_matrix(p, n)
            tm = finite_n_density_matrix(p, n)
            diffs = [abs(a - b) for a, b in (
                (bf.r11, tm.r11), (bf.r22, tm.r22), (bf.r33, tm.r33),
                (bf.r44, tm.r44), (bf.r23, tm.r23))]
            assert max(diffs) <= 1e-10

    def test_infinite_temperature_three_cells(self):
        p = ModelParams(B=0.8, gamma=-0.8, T=1e12)
        st = brute_force_density_matrix(p, 3)
        for r in (st.r11, st.r22, st.r33, st.r44):
            assert r == pytest.approx(0.25, abs=1e-9)
        assert st.r23 == pytest.approx(0.0, abs=1e-9)

    def test_swap_symmetric_dimer_balances_central_populations(self, rng):
        # equal dimer g-factors and no one-sided nodal coupling make the two
        # dimer spins interchangeable, so the |01> and |10> populations match
        for _ in range(10):
            g = float(rng.uniform(0.5, 4.0))
            p = draw_params(rng, gamma=0.0, g2=g, g3=g, J0=0.0)
            st = brute_force_density_matrix(p, 2)
            assert st.r22 == pytest.approx(st.r33, abs=1e-12)

    def test_defect_bond_position_is_irrelevant(self, rng):
        p = draw_params(rng)
        states = [brute_force_density_matrix(p, 6, impurity_bond=r) for r in (0, 2, 5)]
        for other in states[1:]:
            for a, b in zip(
                    (states[0].r11, states[0].r22, states[0].r33, states[0].r44, states[0].r23),
                    (other.r11, other.r22, other.r33, other.r44, other.r23)):
                assert a == pytest.approx(b, abs=1e-13)

    def test_limit_state_where_the_forty_digit_reference_misses(self):
        # at T = 0.005 the 14-cell ring is the thermodynamic limit to rounding
        p = ModelParams(**REFERENCE_MISS)
        state, ring = impurity_density_matrix(p), brute_force_density_matrix(p, 14)
        for k in ("r11", "r22", "r33", "r44", "r23"):
            assert abs(getattr(state, k) - getattr(ring, k)) <= 1e-12, k
        assert wootters_concurrence(ring.to_matrix()) == pytest.approx(0.26110544708922356,
                                                                       abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            brute_force_density_matrix(ModelParams(), 15)

    @pytest.mark.parametrize("bad", [1, 0, 3.5])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(InvalidN):
            brute_force_density_matrix(ModelParams(), bad)

    def test_rejects_bad_bond(self):
        with pytest.raises(ValueError):
            brute_force_density_matrix(ModelParams(), 4, impurity_bond=4)


class TestWoottersConcurrence:
    def test_bell_state_is_maximal(self):
        assert wootters_concurrence(bell("psi-")) == pytest.approx(1.0, abs=1e-12)
        assert wootters_concurrence(bell("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_agrees_with_x_state_closed_form(self, rng):
        for _ in range(200):
            st = draw_xstate(rng)
            generic = wootters_concurrence(st.to_matrix().astype(complex))
            assert abs(generic - of_state(concurrence_batch, st)) <= 1e-10

    def test_flip_spectrum_noise_is_bounded(self, rng):
        # eigenvalues of R are nonnegative up to ~1e-12 noise for valid states
        for _ in range(100):
            st = draw_xstate(rng)
            rho = st.to_matrix().astype(complex)
            r = rho @ _FLIP @ rho.conj() @ _FLIP
            evals = np.linalg.eigvals(r).real
            assert evals.min() >= -1e-12

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.2
        with pytest.raises(NotAState):
            wootters_concurrence(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAState):
            wootters_concurrence(np.eye(4, dtype=complex))

    def test_rejects_negative_state(self):
        bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotAState):
            wootters_concurrence(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(NotAState):
            check_two_qubit_state(np.eye(3) / 3.0)
