import math

import numpy as np
import pytest

from impurity_chain.model import (
    ModelParams,
    OverflowRisk,
    SECTOR_VALUES,
    boltzmann_weights,
    dimer_block,
    dimer_spectrum,
)
from impurity_chain.oracle import brute_force_density_matrix
from impurity_chain.xfer import partition_function
from conftest import draw_params

STANDARD_G = dict(g1=1.2, g2=5.0, g3=1.1)


class TestParams:
    def test_rejects_zero_heisenberg_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(J=0.0)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_rejects_nonpositive_temperature(self, T):
        with pytest.raises(ValueError):
            ModelParams(T=T)

    @pytest.mark.parametrize("field", ["J", "Delta", "J0", "g1", "g2", "g3", "gamma", "B", "T"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(**{field: value})

    def test_beta(self):
        assert ModelParams(T=0.25).beta == 4.0


class TestZeemanFields:
    """The field terms of the dimer blocks: g_k * B, times 1 + gamma in the
    defect's two dimer spins, never in the nodal spin."""

    @staticmethod
    def fields(p, s, impurity):
        """(nodal, spin-2, spin-3) Zeeman fields read back from the block."""
        h = dimer_block(p, s, impurity=impurity)
        zz = p.J * p.Delta / 4.0
        nodal = p.J0 * s / 2.0
        b2_plus_b3 = h[3, 3] - h[0, 0] - 2.0 * (-nodal)
        b2_minus_b3 = h[2, 2] - h[1, 1] + 2.0 * nodal
        b1 = -(h[0, 0] + h[3, 3] - 2.0 * zz) / s if s else None
        return b1, 0.5 * (b2_plus_b3 + b2_minus_b3), 0.5 * (b2_plus_b3 - b2_minus_b3)

    def test_no_impurity(self):
        p = ModelParams(**STANDARD_G, B=1.0, gamma=0.0)
        for impurity in (False, True):
            assert self.fields(p, 1, impurity) == pytest.approx((1.2, 5.0, 1.1), abs=1e-12)

    def test_with_impurity(self):
        p = ModelParams(**STANDARD_G, B=1.0, gamma=-0.8)
        assert self.fields(p, 1, False) == pytest.approx((1.2, 5.0, 1.1), abs=1e-12)
        assert self.fields(p, 1, True) == pytest.approx((1.2, 1.0, 0.22), abs=1e-12)

    def test_zero_field(self):
        p = ModelParams(g1=0.9, g2=3.0, g3=2.0, B=0.0, gamma=0.3)
        for s in SECTOR_VALUES:
            assert np.array_equal(dimer_block(p, s, impurity=True), dimer_block(p, s))
        assert self.fields(p, -1, True) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


class TestDimerBlock:
    def test_zero_field_block(self):
        p = ModelParams(J=1.0, Delta=1.0, J0=1.0, B=0.0, T=1.0)
        h = dimer_block(p, 0)
        expected = np.diag([0.25, -0.25, -0.25, 0.25])
        expected[1, 2] = expected[2, 1] = 0.5
        assert np.array_equal(h, expected)

    @pytest.mark.parametrize("delta", [0.0, 0.7, 1.0, 2.3])
    def test_zero_field_eigenvalues(self, delta):
        p = ModelParams(J=1.0, Delta=delta, B=0.0)
        energies, _ = dimer_spectrum(dimer_block(p, 0))
        zz = delta / 4.0
        expected = np.sort([-zz - 0.5, -zz + 0.5, zz, zz])
        assert np.allclose(energies, expected, atol=1e-14)

    def test_host_equals_impurity_at_gamma_zero(self, rng):
        for _ in range(20):
            p = draw_params(rng, gamma=0.0)
            for s in SECTOR_VALUES:
                assert np.array_equal(dimer_block(p, s, impurity=False),
                                      dimer_block(p, s, impurity=True))

    def test_symmetric_and_x_sparse(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            h = dimer_block(p, int(rng.choice(SECTOR_VALUES)), impurity=True)
            assert np.array_equal(h, h.T)
            off = h - np.diag(np.diag(h))
            off[1, 2] = off[2, 1] = 0.0
            assert np.all(off == 0.0)

    def test_accepts_sector_objects(self):
        # any integer type names a sector
        p = ModelParams(B=0.4)
        for s in SECTOR_VALUES:
            assert np.array_equal(dimer_block(p, np.int64(s)), dimer_block(p, s))

    def test_sector_multiplicities(self):
        # s = 0 is realized by two nodal pairs, s = +-1 by one each: the
        # two-cell ring sums w_h(s) w_d(s) with multiplicities (1, 2, 1)
        pairs = [round(a + b) for a in (0.5, -0.5) for b in (0.5, -0.5)]
        assert [pairs.count(s) for s in SECTOR_VALUES] == [1, 2, 1]
        p = ModelParams(B=0.4, gamma=-0.3, T=0.7)
        true_w = [{s: np.exp(-p.beta * dimer_spectrum(dimer_block(p, s, imp))[0]).sum()
                   for s in SECTOR_VALUES} for imp in (False, True)]
        z2 = sum(m * true_w[0][s] * true_w[1][s] for m, s in zip((1, 2, 1), SECTOR_VALUES))
        assert partition_function(p, 2) == pytest.approx(math.log(z2), abs=1e-12)

    def test_rejects_bad_sector(self):
        with pytest.raises(ValueError):
            dimer_block(ModelParams(), 2)


class TestDimerSpectrum:
    def test_isotropic_zero_field(self):
        p = ModelParams(J=1.0, Delta=1.0, B=0.0)
        energies, _ = dimer_spectrum(dimer_block(p, 0))
        assert np.allclose(energies, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_degenerate_central_block_mixes_equally(self):
        # g2 = g3 and s = 0 zero the central asymmetry for any field
        p = ModelParams(J=1.0, Delta=0.7, g2=2.0, g3=2.0, B=1.3)
        _, vectors = dimer_spectrum(dimer_block(p, 0))
        central = [v for v in vectors.T if abs(v[1]) > 1e-15]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for v in central:
            assert abs(v[1]) == pytest.approx(inv_sqrt2, abs=1e-15)
            assert abs(v[2]) == pytest.approx(inv_sqrt2, abs=1e-15)

    def test_against_dense_eigensolver(self, rng):
        for _ in range(200):
            p = draw_params(rng)
            s = int(rng.choice(SECTOR_VALUES))
            h = dimer_block(p, s, impurity=bool(rng.integers(2)))
            energies, vectors = dimer_spectrum(h)
            assert np.allclose(energies, np.linalg.eigvalsh(h), atol=1e-12)
            residual = h @ vectors - vectors * energies
            assert np.abs(residual).max() <= 1e-12
            gram = vectors.T @ vectors
            assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_energies_ascending(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            energies, _ = dimer_spectrum(dimer_block(p, int(rng.choice(SECTOR_VALUES))))
            assert np.all(np.diff(energies) >= 0.0)

    def test_outer_basis_states_are_exact_eigenvectors(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            _, vectors = dimer_spectrum(dimer_block(p, int(rng.choice(SECTOR_VALUES)), True))
            cols = [tuple(np.abs(c)) for c in vectors.T]
            assert (1.0, 0.0, 0.0, 0.0) in cols
            assert (0.0, 0.0, 0.0, 1.0) in cols

    def test_central_levels_match_half_gap_closed_form(self, rng):
        # the closed form is mean -+ sqrt(Omega^2 + J^2)/2; the same expression
        # without the 1/2 prefactor does not diagonalize the block
        for _ in range(50):
            p = draw_params(rng)
            s = int(rng.choice(SECTOR_VALUES))
            b1, b2, b3 = p.g1 * p.B, p.g2 * p.B, p.g3 * p.B
            omega = p.J0 * s - (b2 - b3)
            energies, _ = dimer_spectrum(dimer_block(p, s))
            mean = -p.J * p.Delta / 4.0 - b1 * s / 2.0
            half = 0.5 * math.hypot(omega, p.J)
            assert np.min(np.abs(energies - (mean - half))) <= 1e-12
            assert np.min(np.abs(energies - (mean + half))) <= 1e-12
            if half > 1e-6:
                unhalved = mean + 2.0 * half
                zz = p.J * p.Delta / 4.0
                outer = [zz + p.J0 * s / 2.0 - b1 * s / 2.0 - (b2 + b3) / 2.0,
                         zz - p.J0 * s / 2.0 - b1 * s / 2.0 + (b2 + b3) / 2.0]
                if min(abs(unhalved - e) for e in outer) > 1e-6:
                    assert np.min(np.abs(energies - unhalved)) > 1e-8

    def test_outer_levels_match_closed_form(self, rng):
        for _ in range(50):
            p = draw_params(rng)
            s = int(rng.choice(SECTOR_VALUES))
            b1, b2, b3 = p.g1 * p.B, p.g2 * p.B, p.g3 * p.B
            energies, _ = dimer_spectrum(dimer_block(p, s))
            zz = p.J * p.Delta / 4.0
            e_up = zz + p.J0 * s / 2.0 - b1 * s / 2.0 - (b2 + b3) / 2.0
            e_dn = zz - p.J0 * s / 2.0 - b1 * s / 2.0 + (b2 + b3) / 2.0
            assert np.min(np.abs(energies - e_up)) <= 1e-12
            assert np.min(np.abs(energies - e_dn)) <= 1e-12

    def test_central_vectors_match_closed_coefficients(self, rng):
        # closed-form amplitudes for the defect block, J > 0:
        # (Sigma_pm, Gamma_pm) = (J, -kappa pm R) / sqrt(2 R (R -+ kappa))
        for _ in range(50):
            p = draw_params(rng, J=float(rng.uniform(0.5, 2.0)))
            s = int(rng.choice(SECTOR_VALUES))
            h2, h3 = p.g2 * p.B * (1.0 + p.gamma), p.g3 * p.B * (1.0 + p.gamma)
            kappa = p.J0 * s - (h2 - h3)
            r = math.hypot(kappa, p.J)
            _, vectors = dimer_spectrum(dimer_block(p, s, impurity=True))
            plus = np.array([p.J, r - kappa]) / math.sqrt(2.0 * r * (r - kappa))
            minus = np.array([p.J, -(r + kappa)]) / math.sqrt(2.0 * r * (r + kappa))
            central = [c[[1, 2]] for c in vectors.T if abs(c[0]) + abs(c[3]) == 0.0]
            hits = 0
            for v in central:
                for ref in (plus, minus):
                    if np.allclose(v, ref, atol=1e-10) or np.allclose(v, -ref, atol=1e-10):
                        hits += 1
                        break
            assert hits == 2

    def test_maximal_mixing_at_kappa_zero(self):
        # kappa = J0*s - (g2-g3)(1+gamma)B vanishes at B = J0*s/((g2-g3)(1+gamma))
        p0 = ModelParams(**STANDARD_G, J0=1.0, gamma=-0.8)
        b_star = p0.J0 / ((p0.g2 - p0.g3) * (1.0 + p0.gamma))
        p = ModelParams(**STANDARD_G, J0=1.0, gamma=-0.8, B=b_star)
        _, vectors = dimer_spectrum(dimer_block(p, 1, impurity=True))
        central = [c for c in vectors.T if abs(c[0]) + abs(c[3]) == 0.0]
        for v in central:
            assert abs(v[1]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
            assert abs(v[2]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


class TestBoltzmannWeights:
    def test_infinite_temperature_limit(self):
        p = ModelParams(B=0.7, gamma=-0.5, T=1e12)
        for impurity in (False, True):
            weights = boltzmann_weights(p, impurity)
            for s in SECTOR_VALUES:
                assert weights[s] == pytest.approx(4.0, abs=1e-10)

    def test_gamma_zero_families_identical(self, rng):
        for _ in range(20):
            p = draw_params(rng, gamma=0.0)
            assert boltzmann_weights(p) == boltzmann_weights(p, impurity=True)

    def test_isotropic_zero_field_value(self):
        # without nodal coupling every sector has the levels -3/4, 1/4 (x3)
        p = ModelParams(J=1.0, Delta=1.0, J0=0.0, B=0.0, T=1.0)
        host = boltzmann_weights(p)
        assert host[0] == pytest.approx(1.0 + 3.0 * math.exp(-1.0), abs=1e-14)

    def test_sector_field_symmetry_at_zero_field(self, rng):
        # with B = 0 the s -> -s spectra coincide level by level
        for _ in range(20):
            p = draw_params(rng, B=0.0)
            up, _ = dimer_spectrum(dimer_block(p, 1, impurity=True))
            down, _ = dimer_spectrum(dimer_block(p, -1, impurity=True))
            assert np.allclose(up, down, atol=1e-14)
            host, defect = boltzmann_weights(p), boltzmann_weights(p, impurity=True)
            assert host[1] == host[-1]
            assert defect[1] == defect[-1]

    def test_overflow_guard(self):
        # each family is weighted against its own minimum, so no exponent is
        # positive; what is left to guard is 1/T itself
        with pytest.raises(OverflowRisk, match="1/T overflows"):
            partition_function(ModelParams(T=1e-310), 4)

    def test_overflowing_inverse_temperature_raises(self):
        # 1/T is inf below the smallest normal float; the scalar path raises
        # as the kernel does instead of returning NaN weights
        p = ModelParams(T=1e-310)
        with pytest.raises(OverflowRisk, match="T=1e-310"):
            boltzmann_weights(p)
        with pytest.raises(OverflowRisk, match="1/T overflows"):
            brute_force_density_matrix(p, 4)

    def test_family_minimum_shift_keeps_exponents_nonpositive(self, rng):
        for _ in range(20):
            p = draw_params(rng, T=0.01)
            for impurity in (False, True):
                weights = boltzmann_weights(p, impurity)
                assert all(0.0 < weights[s] <= 4.0 + 1e-12 for s in SECTOR_VALUES)
                assert max(weights.values()) >= 1.0


class TestGammaContinuity:
    def test_weights_converge_as_gamma_vanishes(self):
        base = ModelParams(**STANDARD_G, Delta=0.8, J0=1.3, B=1.1, T=0.4)
        host = boltzmann_weights(base)
        for gamma in (1e-8, -1e-8):
            p = ModelParams(**STANDARD_G, Delta=0.8, J0=1.3, B=1.1, T=0.4, gamma=gamma)
            defect = boltzmann_weights(p, impurity=True)
            for s in SECTOR_VALUES:
                assert defect[s] == pytest.approx(host[s], rel=1e-6)

    def test_spectra_converge_as_gamma_vanishes(self):
        base = ModelParams(**STANDARD_G, Delta=1.4, J0=0.9, B=0.7)
        for gamma in (1e-8, -1e-8):
            p = ModelParams(**STANDARD_G, Delta=1.4, J0=0.9, B=0.7, gamma=gamma)
            for s in SECTOR_VALUES:
                reference, _ = dimer_spectrum(dimer_block(base, s))
                energies, _ = dimer_spectrum(dimer_block(p, s, impurity=True))
                assert np.allclose(energies, reference, atol=1e-6)
