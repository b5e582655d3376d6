import decimal
import math
import re
from dataclasses import replace
from types import SimpleNamespace

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
from impurity_chain.oracle import _cell_matrices, brute_force_density_matrix
from impurity_chain.xfer import (
    DegenerateGap,
    InvalidN,
    NotAState,
    XState,
    _host_power,
    _projector,
    finite_n_density_matrix,
    impurity_density_matrix,
    limit_states,
    partition_function,
)
from conftest import VANISHED_SECTORS, draw_params, whole_range_scan

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
B_STAR = 1.0 / ((5.0 - 1.1) * 0.2)  # J0 / ((g2 - g3)(1 + gamma)) at J0=1, gamma=-0.8


def xstate_array(st):
    return np.array([st.r11, st.r22, st.r33, st.r44, st.r23])


def family_minimum(p, impurity=False):
    """Lowest level of one cell family over the three sectors."""
    return min(float(dimer_spectrum(dimer_block(p, s, impurity))[0][0])
               for s in SECTOR_VALUES)


def host_log_lambda(p):
    """log of the host transfer matrix's largest eigenvalue, from a dense solver."""
    w = boltzmann_weights(p)
    W = np.array([[w[1], w[0]], [w[0], w[-1]]])
    return math.log(np.linalg.eigvalsh(W)[-1]) - p.beta * family_minimum(p)


def host_power(w1, w0, wm, k):
    """W^k of W = [[w1, w0], [w0, wm]] by the kernel's binary powering: the
    entries scaled to a largest entry of 1, and the log of that scale."""
    (a, b, c), log_scale = _host_power(*(np.array([x], dtype=float) for x in (w1, w0, wm)), k)
    return np.array([[a[0], b[0]], [b[0], c[0]]]), float(log_scale[0])


def host_matrix(p, impurity=False):
    """(w(+1), w(0), w(-1)) of one family against its own minimum."""
    w = boltzmann_weights(p, impurity)
    return w[1], w[0], w[-1]


class TestTransferMatrices:
    """The host transfer matrix [[w(+1), w(0)], [w(0), w(-1)]] as the kernel
    powers it, from the scalar weights of each family."""

    def test_infinite_temperature_all_entries_equal(self):
        p = ModelParams(B=0.9, gamma=-0.3, T=1e12)
        for impurity in (False, True):
            m, _ = host_power(*host_matrix(p, impurity), 1)
            assert np.allclose(m, 1.0, atol=1e-10)

    def test_gamma_zero_matrices_identical(self, rng):
        for _ in range(10):
            p = draw_params(rng, gamma=0.0)
            assert host_matrix(p) == host_matrix(p, impurity=True)

    def test_zero_field_diagonal_symmetry(self, rng):
        for _ in range(10):
            p = draw_params(rng, B=0.0)
            w1, w0, wm = host_matrix(p)
            assert w1 == wm
            for k in (1, 4, 11):
                m, _ = host_power(w1, w0, wm, k)
                assert m[0, 0] == m[1, 1]

    def test_mantissa_normalized_and_symmetric(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            for k in (1, int(rng.integers(2, 200))):
                m, _ = host_power(*host_matrix(p), k)
                assert m.max() == 1.0
                assert np.all(m >= 0.0) and np.all(np.isfinite(m))

    def test_log_scale_restores_true_weights(self, rng):
        # true w(s) = sum_j exp(-beta e_j(s)), reachable directly at mild T
        p = draw_params(rng, T=2.0, B=0.5)
        m, log_scale = host_power(*host_matrix(p), 1)
        energies, _ = dimer_spectrum(dimer_block(p, 1))
        true_w = np.exp(-p.beta * energies).sum()
        assert (math.log(m[0, 0]) + log_scale - p.beta * family_minimum(p)
                == pytest.approx(math.log(true_w), abs=1e-12))


class TestTmEigen:
    """Powers of a transfer matrix by binary powering against its
    eigen-decomposition: the ring's host coefficients."""

    def test_symmetric_entries(self):
        # eigenvalues 1.1 and 0.5 with eigenvectors (1, +-1)/sqrt(2)
        for k in (1, 2, 7, 30):
            m, log_scale = host_power(0.8, 0.3, 0.8, k)
            full = m * math.exp(log_scale)
            assert full[0, 0] == pytest.approx((1.1 ** k + 0.5 ** k) / 2, rel=1e-13)
            assert full[0, 1] == pytest.approx((1.1 ** k - 0.5 ** k) / 2, rel=1e-13)
            assert full[1, 1] == full[0, 0]

    def test_diagonal_matrix(self):
        for k in (1, 3, 12):
            m, log_scale = host_power(1.0, 0.0, 0.4, k)
            assert log_scale == 0.0
            assert m[0, 0] == 1.0 and m[0, 1] == 0.0
            assert m[1, 1] == pytest.approx(0.4 ** k, rel=1e-14)

    def test_against_dense_eigensolver(self, rng):
        for _ in range(100):
            w1, w0, wm = rng.uniform(0.01, 4.0, size=3)
            k = int(rng.integers(1, 40))
            lam, vec = np.linalg.eigh(np.array([[w1, w0], [w0, wm]]))
            dense = (vec * lam ** k) @ vec.T
            m, log_scale = host_power(w1, w0, wm, k)
            assert np.allclose(m * math.exp(log_scale), dense, rtol=1e-12, atol=0.0)

    def test_perron_frobenius(self, rng):
        # W^k -> lambda+^k u u^T: the log scale grows as k log lambda+ plus the
        # log of the largest entry of u u^T, and every entry stays positive
        for _ in range(20):
            w1, w0, wm = host_matrix(draw_params(rng))
            lam, vec = np.linalg.eigh(np.array([[w1, w0], [w0, wm]]))
            m, log_scale = host_power(w1, w0, wm, 4000)
            assert m.min() > 0.0
            expected = 4000 * math.log(lam[-1]) + math.log((vec[:, -1] ** 2).max())
            assert log_scale == pytest.approx(expected, rel=1e-12)

    def test_no_cancellation_at_tiny_coupling(self):
        # W^2 and W^3 of [[1, e], [e, 1/2]] to full relative precision, e = 1e-200
        e = 1e-200
        m, log_scale = host_power(1.0, e, 0.5, 2)
        assert log_scale == 0.0
        assert m[0, 1] == pytest.approx(1.5 * e, rel=1e-15)
        assert m[1, 1] == pytest.approx(0.25, rel=1e-15)
        m, _ = host_power(1.0, e, 0.5, 3)
        assert m[0, 1] == pytest.approx(1.75 * e, rel=1e-15)
        assert m[1, 1] == pytest.approx(0.125, rel=1e-15)


def projector(x, y, z):
    """The kernel's upper eigenprojector of [[x, y], [y, z]], divided by 2g, as (3, n)."""
    gap, entries = _projector(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    return np.array(np.broadcast_arrays(*entries)) / (2.0 * gap)


def dense_projector(x, y, z):
    """The upper eigenvector's projector from np.linalg.eigh, as (3, n)."""
    m = np.stack([np.stack([x, y], axis=-1), np.stack([y, z], axis=-1)], axis=-2)
    v = np.linalg.eigh(m)[1][..., -1]
    return np.array([v[:, 0] * v[:, 0], v[:, 0] * v[:, 1], v[:, 1] * v[:, 1]])


def exact_projector(x, y, z):
    """The same projector in 80-digit decimal arithmetic, rounded once, as (3, n).

    The smaller of g -+ d is taken as 4y^2 / (g + |d|), which is exact in
    exact arithmetic, so that it keeps all 80 digits down to y = 0."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for xi, yi, zi in zip(x, y, z):
            xi, yi, zi = (decimal.Decimal(float(v)) for v in (xi, yi, zi))
            d = xi - zi
            g = (d * d + 4 * yi * yi).sqrt()
            big = g + abs(d)
            small = 4 * yi * yi / big
            entries = (big, 2 * yi, small) if d >= 0 else (small, 2 * yi, big)
            out.append([float(v / (2 * g)) for v in entries])
    return np.array(out).T


def assert_relative(got, want, rtol):
    """Every entry within rtol of its own magnitude; zeros exactly."""
    assert np.all(np.abs(got - want) <= rtol * np.abs(want)), np.max(
        np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want)))


class TestProjector:
    """The one 2x2 eigenprojector of the host transfer matrix and the defect's
    central block.  np.linalg.eigh is good to about 1e-15 of the largest entry,
    not per entry (its entries below 1e-16 can be wholly wrong), so per entry
    the kernel is held to an 80-digit decimal reference."""

    def test_against_dense_and_exact_projectors(self, rng):
        n = 2000
        x, y, z = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        z[:100] = x[:100]        # d = 0
        y[100:200] = 0.0         # y = 0, both signs of d
        d = x - z
        assert (d > 0.0).sum() > 500 and (d < 0.0).sum() > 500
        got = projector(x, y, z)
        assert np.abs(got - dense_projector(x, y, z)).max() <= 1e-15
        assert_relative(got, exact_projector(x, y, z), 1e-15)
        assert np.abs(got[:, :100]) == pytest.approx(np.full((3, 100), 0.5), rel=1e-15)
        assert np.all(np.sign(got[1, :100]) == np.sign(y[:100]))
        assert np.all(got[:, 100:200] == np.where(d[100:200] > 0.0, [[1.0], [0.0], [0.0]],
                                                  [[0.0], [0.0], [1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-150])
    def test_weak_coupling_down_to_underflow(self, scale):
        # |y| << |d|: the small diagonal entry is about (y/d)^2, taken as
        # 4y^2 / (g + |d|), and as (2y / (g + |d|)) 2y where 4y^2 underflows
        # (at scale 1e-150, y <= 1e-155)
        ratio = 10.0 ** -np.arange(1.0, 16.0)
        d = np.repeat([[2.0], [-0.7]], len(ratio), axis=1).ravel() * scale
        y = np.tile(ratio, 2) * np.abs(d) * np.where(np.arange(d.size) % 2, 1.0, -1.0)
        x, z = 0.3 * scale + d, np.full(d.size, 0.3 * scale)
        got = projector(x, y, z)
        assert_relative(got, exact_projector(x, y, z), 1e-15)
        assert np.abs(got - dense_projector(x, y, z)).max() <= 1e-15
        if scale < 1.0:
            assert (4.0 * y * y < np.finfo(float).tiny).sum() > 10

    def test_zero_gap_is_the_first_basis_vector(self):
        gap, entries = _projector(np.array([0.4, 0.0]), np.array([0.0, 0.0]),
                                  np.array([0.4, 0.0]))
        assert gap.tolist() == [0.0, 0.0]
        assert [e.tolist() for e in entries] == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]


class TestPartitionFunction:
    def test_two_cells_against_enumeration(self, rng):
        for _ in range(20):
            p = draw_params(rng, T=float(rng.uniform(0.5, 2.0)))
            # direct sum over the 4 nodal configurations with true energies
            def true_w(s, impurity):
                energies, _ = dimer_spectrum(dimer_block(p, s, impurity=impurity))
                return np.exp(-p.beta * energies).sum()
            z2 = 0.0
            for mu1 in (0.5, -0.5):
                for mu2 in (0.5, -0.5):
                    s12 = int(round(mu1 + mu2))
                    z2 += true_w(s12, False) * true_w(s12, True)
            assert partition_function(p, 2) == pytest.approx(math.log(z2), abs=1e-12)

    def test_gamma_zero_closed_form(self, rng):
        # without the defect, Z_N = L+^N + L-^N
        for _ in range(10):
            p = draw_params(rng, gamma=0.0, T=float(rng.uniform(0.5, 2.0)))
            w = boltzmann_weights(p)
            shift = family_minimum(p)
            lm, lp = np.linalg.eigvalsh(np.array([[w[1], w[0]], [w[0], w[-1]]]))
            for n in (2, 5, 9):
                expected = (math.log(lp ** n + lm ** n) - n * p.beta * shift)
                assert partition_function(p, n) == pytest.approx(expected, abs=1e-12)

    def test_infinite_temperature_counts_states(self):
        p = ModelParams(B=0.3, gamma=-0.8, T=1e12)
        for n in (2, 4, 7):
            assert partition_function(p, n) == pytest.approx(n * math.log(8.0), abs=1e-6)

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "4"])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(InvalidN):
            partition_function(ModelParams(), bad)

    def test_per_site_limit_is_dominant_eigenvalue(self):
        # defect-free chain: log Z_N / N drifts below 1e-8 between N=200 and 400
        p = ModelParams(**STANDARD, Delta=0.7, J0=1.0, B=0.8, T=0.1, gamma=0.0)
        per_site_200 = partition_function(p, 200) / 200
        per_site_400 = partition_function(p, 400) / 400
        assert abs(per_site_400 - per_site_200) / abs(per_site_400) < 1e-8
        log_lp = host_log_lambda(p)
        assert per_site_400 == pytest.approx(log_lp, rel=1e-2)

    def test_defect_term_is_a_boundary_correction(self):
        # log Z_N - (N-1) log L+ converges to log a
        p = ModelParams(**STANDARD, Delta=0.7, J0=1.0, B=0.8, T=0.2, gamma=-0.8)
        log_lp = host_log_lambda(p)
        tail_200 = partition_function(p, 200) - 199 * log_lp
        tail_400 = partition_function(p, 400) - 399 * log_lp
        assert tail_200 == pytest.approx(tail_400, abs=1e-12)


class TestCellDensityElements:
    """The thermal cell matrices sum_j e^{-beta(e_j - e_min)} |phi_j><phi_j| in
    their scalar form, which the enumeration oracle sums over; the kernel's
    batched entries are checked against that enumeration below."""

    def test_trace_equals_sector_weight(self, rng):
        for _ in range(30):
            p = draw_params(rng)
            weights = boltzmann_weights(p, impurity=True)
            cells = _cell_matrices(p, impurity=True)
            for s in SECTOR_VALUES:
                assert np.trace(cells[s]) == pytest.approx(weights[s], rel=1e-12)

    def test_infinite_temperature_identity(self):
        p = ModelParams(B=1.1, gamma=-0.8, T=1e12)
        for cell in _cell_matrices(p, impurity=True).values():
            assert np.allclose(cell, np.eye(4), atol=1e-10)

    def test_low_temperature_ground_projector(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=B_STAR, T=0.01)
        _, vectors = dimer_spectrum(dimer_block(p, 1, impurity=True))
        ground = vectors[:, 0]
        cell = _cell_matrices(p, impurity=True)[1]
        projector = cell / np.trace(cell)
        assert np.abs(projector - np.outer(ground, ground)).max() <= 1e-10

    def test_x_pattern_sparsity(self, rng):
        mask = np.zeros((4, 4), dtype=bool)
        for k, l in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
            mask[k, l] = True
        for _ in range(20):
            p = draw_params(rng)
            cell = _cell_matrices(p, impurity=bool(rng.integers(2)))[int(rng.choice(SECTOR_VALUES))]
            assert np.all(cell[~mask] == 0.0)


class TestLimitState:
    def test_unit_trace_and_validity(self, rng):
        for _ in range(50):
            st = impurity_density_matrix(draw_params(rng))
            st.validate()

    def test_gamma_zero_equals_host_chain(self, rng):
        # the oracle's host cells, whatever gamma, in the dominant projector
        # of the host transfer matrix
        for _ in range(20):
            p = draw_params(rng, gamma=-0.8)
            w = boltzmann_weights(p)
            u = np.linalg.eigh(np.array([[w[1], w[0]], [w[0], w[-1]]]))[1][:, -1]
            cells = _cell_matrices(p, impurity=False)
            num = u[0] ** 2 * cells[1] + 2.0 * u[0] * u[1] * cells[0] + u[1] ** 2 * cells[-1]
            host = (num / np.trace(num))[[0, 1, 2, 3, 1], [0, 1, 2, 3, 2]]
            limit = xstate_array(impurity_density_matrix(replace(p, gamma=0.0)))
            assert np.abs(limit - host).max() <= 1e-13

    def test_matches_finite_chain_n24(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=1.0, T=0.5)
        limit = xstate_array(impurity_density_matrix(p))
        finite = xstate_array(finite_n_density_matrix(p, 24))
        assert np.abs(limit - finite).max() <= 1e-10

    def test_matches_finite_chain_n30_colder(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=1.0, T=0.2)
        limit = xstate_array(impurity_density_matrix(p))
        finite = xstate_array(finite_n_density_matrix(p, 30))
        assert np.abs(limit - finite).max() <= 1e-9

    def test_maximally_entangled_at_critical_field(self):
        for delta in (0.5, 1.0, 2.0):
            p = ModelParams(**STANDARD, Delta=delta, J0=1.0, gamma=-0.8, B=B_STAR, T=0.01)
            st = impurity_density_matrix(p)
            assert st.r22 == pytest.approx(0.5, abs=1e-3)
            assert st.r33 == pytest.approx(0.5, abs=1e-3)
            assert abs(st.r23) == pytest.approx(0.5, abs=1e-3)
            assert st.r11 + st.r44 <= 1e-4

    def test_agrees_with_plain_assembly(self, rng):
        # the dominant eigenvector u of the host matrix from a dense solver:
        # sector coefficients (u+^2, 2 u+ u-, u-^2) on the defect's cell matrices
        for _ in range(30):
            p = draw_params(rng)
            w = boltzmann_weights(p)
            u = np.linalg.eigh(np.array([[w[1], w[0]], [w[0], w[-1]]]))[1][:, -1]
            cells = _cell_matrices(p, impurity=True)
            num = u[0] ** 2 * cells[1] + 2.0 * u[0] * u[1] * cells[0] + u[1] ** 2 * cells[-1]
            mat = num / np.trace(num)
            plain = mat[[0, 1, 2, 3, 1], [0, 1, 2, 3, 2]]
            hardened = xstate_array(impurity_density_matrix(p))
            assert np.abs(plain - hardened).max() <= 1e-13

    def test_shift_invariance(self, rng):
        # moving both energy references of that assembly leaves every element
        # unchanged and equal to the kernel's state
        for _ in range(20):
            p = draw_params(rng)
            w = boltzmann_weights(p)
            cells = _cell_matrices(p, impurity=True)
            kernel = xstate_array(impurity_density_matrix(p))
            for dh, di in ((0.0, 0.0), (1.7, 0.0), (0.0, -2.3), (0.9, 0.4)):
                host = {s: w[s] * math.exp(p.beta * dh) for s in SECTOR_VALUES}
                u = np.linalg.eigh(np.array([[host[1], host[0]], [host[0], host[-1]]]))[1][:, -1]
                num = math.exp(p.beta * di) * (
                    u[0] ** 2 * cells[1] + 2.0 * u[0] * u[1] * cells[0] + u[1] ** 2 * cells[-1])
                mat = num / np.trace(num)
                assert np.abs(mat[[0, 1, 2, 3, 1], [0, 1, 2, 3, 2]] - kernel).max() <= 1e-12

    def test_survives_conflicting_sector_preferences(self):
        # host chain orders opposite to the defect's preference at very low T
        p = ModelParams(**STANDARD, Delta=0.5, J0=0.7, gamma=-0.8, B=0.3, T=0.005)
        st = impurity_density_matrix(p)
        st.validate()
        assert all(map(math.isfinite, xstate_array(st)))

    def test_deep_field_corner_stays_finite(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=5.0, T=0.01)
        st = impurity_density_matrix(p)
        st.validate()
        assert st.r11 == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry_where_w0_squared_underflows(self):
        # B = 0 with w(0) ~ e^-600: 4 w0^2 is below the smallest normal
        # float, yet s -> -s symmetry still requires r22 = r33, r11 = r44
        p = ModelParams(J=1.0, Delta=0.0, J0=2.0, B=0.0, T=0.001)
        st = impurity_density_matrix(p)
        assert st.r22 == st.r33
        assert st.r11 == st.r44
        ring = finite_n_density_matrix(p, 400)
        assert st.r22 == pytest.approx(ring.r22, abs=1e-12)


def decoupled_limit_states(B, **columns):
    """Limit states at J = 0 by dense algebra, as (5, n).

    Every cell matrix is then diagonal: e^(-(level - lowest) / T) of the model's
    dimer blocks, read through a namespace because ModelParams rejects J = 0.
    The host coefficients come from np.linalg.eigh of the host transfer matrix.
    """
    states = []
    for values in zip(*columns.values()):
        p = SimpleNamespace(**STANDARD, J=0.0, B=B, **dict(zip(columns, values)))

        def cells(impurity):
            levels = {s: np.diag(dimer_block(p, s, impurity)) for s in SECTOR_VALUES}
            lowest = min(e.min() for e in levels.values())
            return {s: np.exp(-(e - lowest) / p.T) for s, e in levels.items()}

        host, defect = cells(False), cells(True)
        w = {s: f.sum() for s, f in host.items()}
        u = np.linalg.eigh(np.array([[w[1], w[0]], [w[0], w[-1]]]))[1][:, -1]
        num = u[0] ** 2 * defect[1] + 2.0 * u[0] * u[1] * defect[0] + u[1] ** 2 * defect[-1]
        states.append(np.append(num / num.sum(), 0.0))
    return np.array(states).T


@pytest.mark.parametrize("B", [0.0, 0.5])
def test_decoupled_dimer_states(B):
    # J = 0 (which ModelParams rejects, and limit_states takes) leaves the
    # central block diagonal; at B = 0 and J0 = 0 its gap is 0 in the s = 0
    # sector, and the defect's projector there divides nothing by 0
    columns = dict(Delta=np.linspace(0.0, 2.0, 7), J0=np.linspace(-1.0, 1.0, 7),
                   gamma=np.linspace(-1.0, 1.0, 7), T=np.linspace(0.05, 1.0, 7))
    states = limit_states(J=np.zeros(7), **STANDARD, B=B, **columns)
    assert np.abs(states - decoupled_limit_states(B, **columns)).max() <= 1e-15
    assert np.all(states[4] == 0.0)


def test_point_bits_do_not_depend_on_a_decoupled_neighbour(rng):
    # a J = 0 point sends its whole batch through the projector's selects,
    # which leave every other point's bits as they are alone
    grid = {k: rng.uniform(0.1, 2.0, 50) for k in ("J", "Delta", "J0", "B", "T")}
    alone = limit_states(**grid, **STANDARD, gamma=-0.8)
    grid["J"] = np.append(grid["J"], 0.0)
    grid.update({k: np.append(v, v[0]) for k, v in grid.items() if k != "J"})
    assert limit_states(**grid, **STANDARD, gamma=-0.8)[:, :50].tobytes() == alone.tobytes()


DEGENERATE_HOST = ("the host's dominant eigenvalue is degenerate, so the infinite chain's "
                   "limit state depends on the boundary at ")


def test_host_guard_raises_before_dividing():
    # J = 0, B = 0: the s = +-1 sectors tie and w(0) = 4 e^-1000 underflows, so
    # the host has no dominant eigenvector; the guard names the point, with no
    # numpy warning on the way
    with pytest.raises(DegenerateGap, match=re.escape(DEGENERATE_HOST + "J=0.0")):
        limit_states(J=np.zeros(2), Delta=1.0, J0=10.0, **STANDARD, gamma=0.0, B=0.0,
                     T=0.005)


def test_huge_nodal_coupling_names_the_degenerate_host_eigenvalue():
    # J0 = -1e20: the nodal Zeeman term is lost in the rounding of levels near
    # 5e19, so the host weights are (2, 0, 2), not vanished
    p = ModelParams(J0=-1e20, B=1.95)
    assert boltzmann_weights(p) == {1: 2.0, 0: 0.0, -1: 2.0}
    with pytest.raises(DegenerateGap, match=re.escape(DEGENERATE_HOST) + ".*J0=-1e\\+20"):
        impurity_density_matrix(p)
    # the ring at the same point is well defined
    finite_n_density_matrix(p, 6).validate()


def test_every_sector_weight_vanished_names_the_point():
    # each one-point entry of the kernel raises, with no numpy warning on the way
    p = ModelParams(**VANISHED_SECTORS)
    point = ", ".join(f"{k}={v!r}" for k, v in VANISHED_SECTORS.items())
    for call in (lambda: limit_states(**VANISHED_SECTORS), lambda: finite_n_density_matrix(p, 6),
                 lambda: partition_function(p, 6)):
        with pytest.raises(DegenerateGap, match=re.escape(
                f"every sector weight vanished in log domain at {point}")):
            call()


@pytest.mark.parametrize("J, state", [
    *[(J, (0.0, 0.5, 0.5, 0.0, -0.5)) for J in (1e155, 1e160, 1e200, 1e300, 1.7e308)],
    (-1e200, (1 / 3, 1 / 6, 1 / 6, 1 / 3, 1 / 6)),
])
def test_exchange_past_the_square_root_of_the_float_range(J, state):
    # 4y^2 overflows past about 1.3e154; the projector is then scaled, with no
    # numpy warning: the singlet for J > 0, the triplet mixture for J < 0
    st = impurity_density_matrix(ModelParams(J=J))
    assert (st.r11, st.r22, st.r33, st.r44, st.r23) == pytest.approx(state, abs=1e-15)


def test_an_overflowing_square_leaves_the_other_points_bits(rng):
    grid = {k: rng.uniform(0.1, 2.0, 50) for k in ("J", "Delta", "J0", "B", "T")}
    alone = limit_states(**grid, **STANDARD, gamma=-0.8)
    grid = {k: np.append(v, 1e200 if k == "J" else v[0]) for k, v in grid.items()}
    batch = limit_states(**grid, **STANDARD, gamma=-0.8)
    assert batch[:, :50].tobytes() == alone.tobytes()
    assert batch[:, 50] == pytest.approx([0.0, 0.5, 0.5, 0.0, -0.5], abs=1e-15)


@pytest.mark.parametrize("Delta", [-1e20, 0.0, 1e20])
@pytest.mark.parametrize("J", [1.5 * 2.0 ** 512, -1.5 * 2.0 ** 512])
def test_every_anisotropy_reaches_the_overflow_select(J, Delta):
    # the kernel re-takes the central projector where the largest Boltzmann
    # exponent, which bounds the central gap >= |J|, reaches 2^500; a huge
    # anisotropy moves the levels but must not hide an overflowing J^2
    p = ModelParams(J=J, Delta=Delta)
    impurity_density_matrix(p).validate()
    finite_n_density_matrix(p, 6).validate()


def test_log_z_past_the_float_range_raises_overflow_risk():
    # beta (N - 1) times the host's level shift overflows; the ring's state at
    # the same point never reads log Z, and returns without a numpy warning
    p = ModelParams(B=1e306, T=0.005)
    with pytest.raises(OverflowRisk, match=re.escape("log Z_6 is past the float range at ")
                       + ".*B=1e\\+306, T=0.005"):
        partition_function(p, 6)
    assert finite_n_density_matrix(p, 6).validate().r11 == 1.0


@pytest.mark.parametrize("B", [1e308, 3e307, -1e308])
def test_field_past_the_float_range_raises_overflow_risk(B):
    # g2 B overflows at 1e308, and the level sums at 3e307; the kernel names
    # the point, with no numpy warning on the way
    named = "level is past the float range at .*" + re.escape(f"B={B!r}")
    with pytest.raises(OverflowRisk, match=named):
        limit_states(J=1.0, Delta=1.0, J0=1.0, **STANDARD, gamma=-0.8, B=np.array([0.5, B]),
                     T=1.0)


class TestFiniteChain:
    def test_two_cells_against_enumeration(self, rng):
        for _ in range(20):
            p = draw_params(rng)
            w = boltzmann_weights(p)
            cells = _cell_matrices(p, impurity=True)
            wt = {s: float(np.trace(cells[s])) for s in SECTOR_VALUES}
            num = np.zeros((4, 4))
            z = 0.0
            for mu1 in (0.5, -0.5):
                for mu2 in (0.5, -0.5):
                    s12 = int(round(mu1 + mu2))
                    z += w[s12] * wt[s12]
                    num += w[s12] * cells[s12]
            expected = num / z
            got = finite_n_density_matrix(p, 2)
            assert np.abs(xstate_array(got) - np.array(
                [expected[0, 0], expected[1, 1], expected[2, 2],
                 expected[3, 3], expected[1, 2]])).max() <= 1e-12

    def test_position_independence(self, rng):
        # tr(W^{r-1} P W^{N-r}) is the same for every defect position r
        for _ in range(10):
            p = draw_params(rng, T=float(rng.uniform(0.4, 1.5)))
            n = 7
            w = boltzmann_weights(p)
            cells = _cell_matrices(p, impurity=True)
            wt = {s: float(np.trace(cells[s])) for s in SECTOR_VALUES}
            W = np.array([[w[1], w[0]], [w[0], w[-1]]])
            Wt = np.array([[wt[1], wt[0]], [wt[0], wt[-1]]])
            z = np.trace(Wt @ np.linalg.matrix_power(W, n - 1))
            reference = xstate_array(finite_n_density_matrix(p, n))
            for r in (1, 4, n):
                left = np.linalg.matrix_power(W, r - 1)
                right = np.linalg.matrix_power(W, n - r)
                elements = []
                for k, l in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2)):
                    P = np.array([[cells[1][k, l], cells[0][k, l]],
                                  [cells[0][k, l], cells[-1][k, l]]])
                    elements.append(np.trace(left @ P @ right) / z)
                assert np.abs(np.array(elements) - reference).max() <= 1e-12

    def test_gamma_zero_equals_host_chain(self, rng):
        for _ in range(10):
            p = draw_params(rng, gamma=0.0)
            ring = xstate_array(finite_n_density_matrix(p, 9))
            host = xstate_array(brute_force_density_matrix(replace(p, gamma=-0.8), 9,
                                                           impurity=False))
            assert np.abs(ring - host).max() <= 1e-12

    def test_converges_to_limit(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=0.6, T=0.3)
        limit = xstate_array(impurity_density_matrix(p))
        gaps = [np.abs(xstate_array(finite_n_density_matrix(p, n)) - limit).max()
                for n in (6, 12, 24)]
        assert gaps[0] > gaps[2]
        assert gaps[2] <= 1e-10

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5])
    def test_rejects_bad_length(self, bad):
        with pytest.raises(InvalidN):
            finite_n_density_matrix(ModelParams(), bad)


class TestXState:
    def test_matrix_roundtrip(self):
        st = XState(0.1, 0.4, 0.3, 0.2, -0.15)
        m = st.to_matrix()
        assert m[1, 2] == m[2, 1] == -0.15
        assert np.trace(m) == pytest.approx(1.0)

    def test_eigenvalues_closed_form(self, rng):
        from conftest import draw_xstate
        for _ in range(50):
            st = draw_xstate(rng)
            dense = np.linalg.eigvalsh(st.to_matrix())
            assert np.allclose(np.sort(st.eigenvalues()), dense, atol=1e-12)

    def test_validate_rejects_bad_trace(self):
        with pytest.raises(NotAState):
            XState(0.5, 0.5, 0.5, 0.5, 0.0).validate()

    def test_validate_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState):
            XState(0.25, 0.25, 0.25, 0.25, 0.4).validate()

    def test_degenerate_gap_guard(self):
        # B = 0 and w(0) = exp(-big) = 0: W_h = diag(1, 1) has no dominant
        # eigenvector, so the limit raises; every finite ring is well defined
        p = ModelParams(J=1.0, Delta=0.0, J0=2.0, B=0.0, T=1e-4)
        assert boltzmann_weights(p)[0] == 0.0
        with pytest.raises(DegenerateGap, match="T=0.0001"):
            impurity_density_matrix(p)
        for n in (2, 5):
            ring = xstate_array(finite_n_density_matrix(p, n))
            assert np.abs(ring - xstate_array(brute_force_density_matrix(p, n))).max() <= 1e-15


# Ring points where host and defect favour different nodal sectors at low T,
# so that the host's s = 0 weight is tiny: a similarity transform of the host
# matrix loses digits there (the first two lines returned states off by up to
# 3.4e-9 and 1.0) or divides by w0 (the third raised DegenerateGap).
ILL_CONDITIONED_RINGS = [
    *[(dict(STANDARD, J=1.907, Delta=0.4216, J0=1.826, gamma=-1.964, B=0.1186, T=0.02229), n)
      for n in range(4, 13)],
    (dict(STANDARD, J=-0.83, Delta=0.95, J0=1.38, gamma=-1.12, B=0.57, T=0.011), 3),
    (dict(STANDARD, J=-0.96, Delta=0.31, J0=1.23, gamma=-1.11, B=0.48, T=0.013), 8),
    (dict(STANDARD, J=1.0, Delta=0.5, J0=1.0, gamma=0.0, B=0.0, T=0.005), 6),
]


@pytest.mark.parametrize("params, n", ILL_CONDITIONED_RINGS)
def test_ring_where_host_and_defect_disagree(params, n):
    p = ModelParams(**params)
    ring = xstate_array(finite_n_density_matrix(p, n))
    assert np.abs(ring - xstate_array(brute_force_density_matrix(p, n))).max() <= 1e-12


def test_log_z_against_high_precision_value():
    # 40-digit mpmath value of log Z_2 at this point: 68.24232168905856
    p = ModelParams(**STANDARD, J=0.9048495791334912, Delta=2.161202274214258,
                    J0=1.862442882533644, gamma=-1.2658221109598649,
                    B=0.6159509618778142, T=0.052366133497913275)
    assert partition_function(p, 2) == pytest.approx(68.24232168905856, rel=1e-13, abs=0.0)


def enumerated_log_z(p, n):
    """log Z_N summed in log domain over all 2^N nodal configurations, the
    defect at bond 0; each family's weights against its own lowest level."""
    with np.errstate(divide="ignore"):  # a vanished weight is log 0 = -inf
        logs = [np.log(np.array([w[1], w[0], w[-1]]))
                for w in (boltzmann_weights(p), boltzmann_weights(p, impurity=True))]
    bits = np.arange(2 ** n)[:, None] >> np.arange(n)[None, :] & 1
    mu = 0.5 - bits
    sector = np.rint(1 - (mu + np.roll(mu, -1, axis=1))).astype(int)
    terms = logs[0][sector[:, 1:]].sum(axis=1) + logs[1][sector[:, 0]]
    top = terms.max()
    return (top + math.log(np.exp(terms - top).sum())
            - p.beta * ((n - 1) * family_minimum(p) + family_minimum(p, impurity=True)))


def test_whole_range_ring_and_log_z_scan():
    """The ring and log Z at every one of the 3,168 points of `whole_range_scan`,
    N cycling through 2..12: no exceptions, states within 1e-12 of 2^N
    enumeration and log Z within 1e-12 relative of a log-domain enumeration."""
    failures = []
    for i, p in enumerate(whole_range_scan()):
        n = 2 + i % 11
        try:
            ring = xstate_array(finite_n_density_matrix(p, n))
            log_z = partition_function(p, n)
        except Exception as exc:  # every failure is counted and reported
            failures.append(f"{p}, N={n}: {exc!r}")
            continue
        brute = xstate_array(brute_force_density_matrix(p, n))
        if not np.abs(ring - brute).max() <= 1e-12:
            failures.append(f"{p}, N={n}: ring off by {np.abs(ring - brute).max():.3g}")
        want = enumerated_log_z(p, n)
        if not abs(log_z - want) <= 1e-12 * max(1.0, abs(want)):
            failures.append(f"{p}, N={n}: log Z {log_z!r}, enumerated {want!r}")
    assert not failures, f"{len(failures)} failures, first {failures[0]}"

