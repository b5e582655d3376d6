"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import numpy as np

from impurity_chain.cli import (
    SweepConfig,
    concurrence_sign_brackets,
    find_critical_field,
    run_sweep,
)
from impurity_chain.measures import concurrence_batch, qfi
from impurity_chain.model import ModelParams
from impurity_chain.oracle import brute_force_density_matrix, wootters_concurrence
from impurity_chain.teleport import average_fidelity_batch, teleport_output
from impurity_chain.xfer import XState, finite_n_density_matrix, impurity_density_matrix
from conftest import draw_params, draw_xstate, of_state
from test_measures import OBSERVABLES, random_pure_x
from test_teleport import kraus_reference, quadrature_average_fidelity, random_input

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
B_STAR_ANALYTIC = 1.0 / ((5.0 - 1.1) * (1.0 - 0.8))
B_QUOTED = 1.282


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def xstate_array(st: XState) -> np.ndarray:
    return np.array([st.r11, st.r22, st.r33, st.r44, st.r23])


def test_criterion_1_critical_field_reproduction():
    p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01)
    b_found = find_critical_field(p, (0.0, 3.0), "max_concurrence", tol=1e-7)
    c_max = of_state(concurrence_batch, impurity_density_matrix(ModelParams(
        **STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01, B=b_found)))
    ok = (abs(b_found - B_QUOTED) <= 0.002
          and c_max >= 0.99
          and abs(b_found - B_STAR_ANALYTIC) <= 1e-6)
    assert report(
        "criterion 1 (critical field)",
        ok,
        f"B* = {b_found:.7f} (quoted 1.282 +- 0.002, analytic {B_STAR_ANALYTIC:.7f}), "
        f"C(B*) = {c_max:.6f} >= 0.99",
    )


def test_criterion_2a_qfi_minimum_at_critical_field():
    fields = np.linspace(0.0, 3.0, 601)
    curve = [qfi(impurity_density_matrix(ModelParams(
        **STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=float(b), T=0.05)))
        for b in fields]
    at_critical = qfi(impurity_density_matrix(ModelParams(
        **STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=B_QUOTED, T=0.05)))
    ok = at_critical <= 0.05 * max(curve)
    assert report(
        "criterion 2a (QFI anomaly)",
        ok,
        f"F(1.282) = {at_critical:.3e} vs 0.05 * max F = {0.05 * max(curve):.3e}",
    )


def test_criterion_2b_dqfi_extremum_location_j0_independent():
    locations = {}
    for j0 in (0.7, 1.0):
        p = ModelParams(**STANDARD, Delta=0.5, J0=j0, gamma=-0.8, T=0.05)
        locations[j0] = find_critical_field(p, (0.2, 0.9), "dqfi_peak", tol=1e-4)
    gap = abs(locations[0.7] - locations[1.0])
    ok = gap <= 0.02
    assert report(
        "criterion 2b (dF/dB extremum J0-independence)",
        ok,
        f"peak |dF/dB| at B = {locations[0.7]:.4f} (J0=0.7) vs "
        f"{locations[1.0]:.4f} (J0=1.0), gap {gap:.4f} (required <= 0.02). "
        "Exact evaluation puts this spike at the defect's level crossing inside "
        "the host-ordered nodal background, whose location scales with J0; the "
        "quoted J0-independence is not reproduced (expected failure, kept "
        "faithful rather than loosened)",
    )


def test_criterion_3_teleportation_optimum():
    def favg(b, gamma):
        return of_state(average_fidelity_batch, impurity_density_matrix(ModelParams(
            **STANDARD, Delta=0.5, J0=1.0, gamma=gamma, B=b, T=0.01)))

    at_critical = favg(B_QUOTED, -0.8)
    fields = np.linspace(0.0, 3.0, 121)
    advantage = [b for b in fields
                 if favg(float(b), -0.8) > 2.0 / 3.0 and favg(float(b), 0.0) < 2.0 / 3.0]
    ok = at_critical >= 0.99 and len(advantage) > 0
    assert report(
        "criterion 3 (teleportation optimum)",
        ok,
        f"F_A(1.282, T=0.01) = {at_critical:.6f} >= 0.99; defect beats 2/3 while the "
        f"homogeneous chain stays below it on {len(advantage)}/{len(fields)} grid fields "
        f"(e.g. B = {advantage[0]:.3f} .. {advantage[-1]:.3f})",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(41)
    worst = 0.0
    for i in range(200):
        n = 2 + i % 11
        p = draw_params(rng)
        brute = xstate_array(brute_force_density_matrix(p, n))
        transfer = xstate_array(finite_n_density_matrix(p, n))
        worst = max(worst, float(np.abs(brute - transfer).max()))
    ok_finite = worst <= 1e-10

    worst_limit = 0.0
    for t in (0.2, 0.5):
        for b in (0.5, 1.0):
            p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=b, T=t)
            gap = np.abs(xstate_array(impurity_density_matrix(p))
                         - xstate_array(finite_n_density_matrix(p, 30))).max()
            worst_limit = max(worst_limit, float(gap))
    ok_limit = worst_limit <= 1e-8

    assert report(
        "criterion 4 (oracle equivalence)",
        ok_finite and ok_limit,
        f"200 random draws N in 2..12: max |transfer - enumeration| = {worst:.2e} "
        f"(<= 1e-10); thermodynamic limit vs N = 30 at T >= 0.2: "
        f"max gap = {worst_limit:.2e} (<= 1e-8)",
    )


def test_criterion_5_formula_cross_checks():
    rng = np.random.default_rng(57)

    worst_c = max(
        abs(of_state(concurrence_batch, st)
            - wootters_concurrence(st.to_matrix().astype(complex)))
        for st in (draw_xstate(rng) for _ in range(1000))
    )
    ok_c = worst_c <= 1e-10

    worst_t = 0.0
    for _ in range(1000):
        ch, inp = draw_xstate(rng), random_input(rng)
        closed = teleport_output(ch, inp).matrix
        worst_t = max(worst_t, float(np.abs(closed - kraus_reference(ch, inp)).max()))
    ok_t = worst_t <= 1e-12

    worst_f = max(
        abs(of_state(average_fidelity_batch, ch) - quadrature_average_fidelity(ch))
        for ch in (draw_xstate(rng) for _ in range(100))
    )
    ok_f = worst_f <= 1e-8

    worst_q = 0.0
    for _ in range(100):
        st = random_pure_x(rng)
        tau, vecs = np.linalg.eigh(st.to_matrix())
        ket = vecs[:, int(np.argmax(tau))]
        variance_sum = sum(
            4.0 * ((ket.conj() @ (g @ g) @ ket) - (ket.conj() @ g @ ket) ** 2).real
            for g in OBSERVABLES
        )
        worst_q = max(worst_q, abs(qfi(st) - variance_sum))
    ok_q = worst_q <= 1e-10

    assert report(
        "criterion 5 (formula cross-checks)",
        ok_c and ok_t and ok_f and ok_q,
        f"concurrence vs Wootters: {worst_c:.2e} (1e-10); teleport closed vs Kraus: "
        f"{worst_t:.2e} (1e-12); F_A vs 64x64 quadrature: {worst_f:.2e} (1e-8); "
        f"QFI pure-state variance: {worst_q:.2e} (1e-10)",
    )


def test_criterion_6_state_validity_stress_grid():
    count = 0
    worst_trace = 0.0
    worst_eig = 0.0
    with np.errstate(over="raise", invalid="raise"):
        for b in np.linspace(0.0, 5.0, 26):
            for t in (0.01, 0.05, 0.2, 1.0, 5.0):
                for delta in (0.0, 0.5, 1.0, 2.0):
                    for j0 in (0.7, 1.0, 1.7):
                        for gamma in (0.0, -0.8):
                            p = ModelParams(**STANDARD, Delta=delta, J0=j0,
                                            gamma=gamma, B=float(b), T=t)
                            st = impurity_density_matrix(p)
                            worst_trace = max(worst_trace, abs(st.trace - 1.0))
                            worst_eig = min(worst_eig, float(st.eigenvalues()[0]))
                            count += 1
    ok = worst_trace <= 1e-12 and worst_eig >= -1e-12
    assert report(
        "criterion 6 (stress-grid validity)",
        ok,
        f"{count} states: max |trace - 1| = {worst_trace:.2e} (<= 1e-12), "
        f"min eigenvalue = {worst_eig:.2e} (>= -1e-12), no overflow raised at T = 0.01",
    )


def test_criterion_7a_gamma_zero_reduction_byte_identical(tmp_path):
    base = ModelParams(**STANDARD, Delta=0.7, J0=1.0, gamma=0.0, T=0.15)
    quantities = ("concurrence", "coherence", "sxsx", "szsz", "favg", "cout",
                  "rho_elements")
    axes = (("B", 0.0, 3.0, 51),)
    cfg_on = SweepConfig(params=base, axes=axes, quantities=quantities,
                         out=str(tmp_path / "gamma0.csv"), impurity=True)
    cfg_off = SweepConfig(params=base, axes=axes, quantities=quantities,
                          out=str(tmp_path / "homogeneous.csv"), impurity=False)
    run_sweep(cfg_on)
    run_sweep(cfg_off)
    same = open(cfg_on.out, "rb").read() == open(cfg_off.out, "rb").read()
    assert report(
        "criterion 7a (gamma = 0 reduction)",
        same,
        "gamma = 0 sweep and homogeneous-model sweep are byte-identical "
        f"({len(open(cfg_on.out, 'rb').read())} bytes)",
    )


def test_criterion_7b_host_reentrant_thresholds():
    t_range = (0.01, 1.2)
    host_brackets = {}
    defect_brackets = {}
    for delta in (0.2, 0.5, 0.8):
        p = ModelParams(**STANDARD, Delta=delta, J0=0.7, B=0.5, T=0.1)
        host_brackets[delta] = concurrence_sign_brackets(p, t_range)
        defect_brackets[delta] = concurrence_sign_brackets(
            ModelParams(**STANDARD, Delta=delta, J0=0.7, gamma=-0.8, B=0.5, T=0.1),
            t_range)
    ok = (any(n >= 2 for n in host_brackets.values())
          and all(n == 1 for n in defect_brackets.values()))
    assert report(
        "criterion 7b (host re-entrance)",
        ok,
        f"host sign-change brackets {host_brackets} (need >= 2 somewhere), defect "
        f"{defect_brackets} (need exactly 1). In exact arithmetic the host "
        "concurrence stays strictly positive down to T -> 0 (the coherence decays "
        "as one excitation gap while the corner populations are doubly Zeeman "
        "suppressed, e.g. C ~ 1e-80), so only the single high-T death bracket "
        "exists; the re-entrant low-T zero window is a resolution artifact "
        "(expected failure, kept faithful rather than loosened)",
    )


def test_criterion_8_worker_determinism(tmp_path):
    base = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, T=0.2)
    axes = (("B", 0.0, 2.0, 21), ("T", 0.1, 0.3, 2))
    quantities = ("concurrence", "qfi", "favg")
    outs = []
    for workers in (1, 3):
        cfg = SweepConfig(params=base, axes=axes, quantities=quantities,
                          out=str(tmp_path / f"w{workers}.csv"))
        run_sweep(cfg, workers=workers)
        outs.append(open(cfg.out, "rb").read())
    ok = outs[0] == outs[1]
    assert report(
        "criterion 8 (worker determinism)",
        ok,
        f"1-worker and 3-worker sweeps byte-identical "
        f"({len(outs[0])} bytes, {21 * 2} grid points)",
    )
