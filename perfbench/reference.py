"""Independent high-precision reference for the impurity-chain solver.

Nothing here imports the package under test.  A parameter point is a plain
dict with the keys of `PARAM_KEYS`.  The physics is written from the model's
definition:

    H_cell(s) = J (S2x S3x + S2y S3y + Delta S2z S3z) + J0 s S2z
                - g1 B s / 2 - h2 S2z - h3 S3z,

with s = mu_i + mu_{i+1} the sum of the two flanking nodal spins, h_k = g_k B
for a host cell and g_k B (1 + gamma) for the defect cell.  The 4x4 blocks are
diagonalised numerically with mpmath at `DPS` digits; Boltzmann factors are
taken on absolute energies (mpmath floats have an unbounded exponent), so no
energy shift or log-domain rescue is needed.  The thermodynamic limit comes
from the dominant eigenvector of the 2x2 host transfer matrix; finite rings
come from an explicit sum over all 2^N nodal configurations.

Teleportation quantities come from the explicit Kraus composition over the
channel's Bell populations, in float64 numpy for matrices and fidelities and
in mp arithmetic where a square root amplifies rounding (output concurrence).
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from mpmath import mp, mpf

DPS = 40
PARAM_KEYS = ("J", "Delta", "J0", "g1", "g2", "g3", "gamma", "B", "T")

_HALF = mpf(1) / 2


def _kron(a, b):
    out = mpmath.matrix(4, 4)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def _spin_ops():
    sx = mpmath.matrix([[0, _HALF], [_HALF, 0]])
    sy = mpmath.matrix([[0, -_HALF * 1j], [_HALF * 1j, 0]])
    sz = mpmath.matrix([[_HALF, 0], [0, -_HALF]])
    one = mpmath.eye(2)
    return one, sx, sy, sz


def _real(m):
    out = mpmath.matrix(m.rows, m.cols)
    for i in range(m.rows):
        for j in range(m.cols):
            out[i, j] = mpmath.re(m[i, j])
    return out


def _operators():
    one, sx, sy, sz = _spin_ops()
    return {
        "flipflop": _real(_kron(sx, sx) + _kron(sy, sy)),
        "zz": _kron(sz, sz),
        "z2": _kron(sz, one),
        "z3": _kron(one, sz),
        "xx": _real(_kron(sx, sx)),
        "qfi": [mpmath.sqrt(2) * (_kron(a, one) + _kron(one, a)) for a in (one, sx, sy, sz)],
    }


with mp.workdps(DPS):
    _OPS = _operators()


def _mp(par: dict) -> dict:
    return {k: mpf(par[k]) for k in PARAM_KEYS}


def cell_hamiltonian(par: dict, s: int, defect: bool):
    """4x4 cell Hamiltonian in the basis |S2z S3z> = |++>, |+->, |-+>, |-->."""
    q = _mp(par)
    scale = (1 + q["gamma"]) if defect else mpf(1)
    h2 = q["g2"] * q["B"] * scale
    h3 = q["g3"] * q["B"] * scale
    return (q["J"] * (_OPS["flipflop"] + q["Delta"] * _OPS["zz"])
            + (q["J0"] * s - h2) * _OPS["z2"]
            - h3 * _OPS["z3"]
            - q["g1"] * q["B"] * s / 2 * mpmath.eye(4))


def _spectrum(par: dict, s: int, defect: bool):
    energies, vectors = mp.eigsy(cell_hamiltonian(par, s, defect))
    return [energies[i] for i in range(4)], vectors


def _cell_matrix(par: dict, s: int, defect: bool):
    """Unnormalised thermal cell matrix sum_j exp(-E_j/T) |phi_j><phi_j|."""
    energies, vectors = _spectrum(par, s, defect)
    beta = 1 / mpf(par["T"])
    weights = [mpmath.exp(-beta * e) for e in energies]
    out = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            out[i, j] = mpmath.fsum(weights[k] * vectors[i, k] * vectors[j, k]
                                    for k in range(4))
    return out


def host_weights(par: dict, defect: bool = False) -> dict:
    """Cell Boltzmann factors w(s) = sum_j exp(-E_j(s)/T), host cells by default."""
    beta = 1 / mpf(par["T"])
    return {s: mpmath.fsum(mpmath.exp(-beta * e) for e in _spectrum(par, s, defect)[0])
            for s in (1, 0, -1)}


def energy_margins(par: dict) -> dict:
    """Energy gaps over T that decide whether fixed-width floats can hold the weights.

    `defect_below_host`: (lowest host level - lowest defect level) / T;
    `host_vs_defect`: its absolute value; `host_s0`: (lowest s = 0 host level
    - lowest host level) / T.
    """
    lows = {}
    for defect in (False, True):
        for s in (1, 0, -1):
            lows[defect, s] = min(_spectrum(par, s, defect)[0])
    host = min(lows[False, s] for s in (1, 0, -1))
    dfct = min(lows[True, s] for s in (1, 0, -1))
    t = mpf(par["T"])
    return {
        "defect_below_host": float((host - dfct) / t),
        "host_vs_defect": float(abs(host - dfct) / t),
        "host_s0": float((lows[False, 0] - host) / t),
    }


def _sector(mu_a: int, mu_b: int) -> int:
    # nodal spins as bits: 0 -> +1/2, 1 -> -1/2
    return 1 - mu_a - mu_b


def _normalised(m):
    tr = m[0, 0] + m[1, 1] + m[2, 2] + m[3, 3]
    return m / tr


def limit_state(par: dict, defect: bool = True):
    """Thermodynamic-limit reduced state of the designated dimer (4x4 mp matrix)."""
    with mp.workdps(DPS):
        w = host_weights(par)
        transfer = mpmath.matrix([[w[1], w[0]], [w[0], w[-1]]])
        evals, evecs = mp.eigsy(transfer / max(w.values()))
        k = 0 if evals[0] >= evals[1] else 1
        v = (evecs[0, k], evecs[1, k])
        cells = {s: _cell_matrix(par, s, defect) for s in (1, 0, -1)}
        num = mpmath.matrix(4, 4)
        for a, b in itertools.product(range(2), repeat=2):
            num += v[a] * v[b] * cells[_sector(a, b)]
        return _normalised(num)


def _enumerate(par: dict, n: int, defect: bool):
    """(sum over configurations of the weighted defect cell matrix, Z_N)."""
    w = host_weights(par)
    cells = {s: _cell_matrix(par, s, defect) for s in (1, 0, -1)}
    traces = {s: cells[s][0, 0] + cells[s][1, 1] + cells[s][2, 2] + cells[s][3, 3]
              for s in cells}
    group = {1: mpf(0), 0: mpf(0), -1: mpf(0)}
    for bits in itertools.product((0, 1), repeat=n):
        prod = mpf(1)
        for i in range(1, n):
            prod *= w[_sector(bits[i], bits[(i + 1) % n])]
        group[_sector(bits[0], bits[1])] += prod
    num = mpmath.matrix(4, 4)
    for s in (1, 0, -1):
        num += group[s] * cells[s]
    z = mpmath.fsum(group[s] * traces[s] for s in (1, 0, -1))
    return num, z


def ring_state(par: dict, n: int, defect: bool = True):
    """Reduced state of the defect dimer in an n-cell periodic ring, by enumeration."""
    with mp.workdps(DPS):
        num, z = _enumerate(par, n, defect)
        return num / z


def log_partition(par: dict, n: int) -> float:
    """log Z_N of the n-cell ring with one defect cell, by enumeration."""
    with mp.workdps(DPS):
        return float(mpmath.log(_enumerate(par, n, True)[1]))


def elements(rho) -> dict:
    return {"r11": float(rho[0, 0]), "r22": float(rho[1, 1]), "r33": float(rho[2, 2]),
            "r44": float(rho[3, 3]), "r23": float(rho[1, 2])}


def _psd_sqrt(rho):
    evals, vecs = mp.eigsy(rho)
    roots = [mpmath.sqrt(max(evals[i], 0)) for i in range(4)]
    out = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            out[i, j] = mpmath.fsum(roots[k] * vecs[i, k] * vecs[j, k] for k in range(4))
    return out


def wootters_margin(rho):
    """l1 - l2 - l3 - l4 of the generic Wootters construction (real rho).

    The l_k are the square roots of the eigenvalues of sqrt(rho) rho~ sqrt(rho)
    with rho~ = (sy x sy) rho* (sy x sy); the concurrence is max(margin, 0).
    """
    with mp.workdps(DPS):
        flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        root = _psd_sqrt(rho)
        m = root * flip * rho * flip * root
        m = (m + m.T) / 2
        evals = mp.eigsy(m, eigvals_only=True)
        lam = sorted((mpmath.sqrt(max(evals[i], 0)) for i in range(4)), reverse=True)
        return lam[0] - lam[1] - lam[2] - lam[3]


def concurrence(rho) -> float:
    return float(max(wootters_margin(rho), 0))


def coherence(rho) -> float:
    return float(mpmath.fsum(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j))


def correlators(rho) -> tuple[float, float]:
    """(<Sx Sx>, <Sz Sz>) as explicit traces."""
    def tr(a):
        return mpmath.fsum(rho[i, j] * a[j, i] for i in range(4) for j in range(4))

    with mp.workdps(DPS):
        return float(tr(_OPS["xx"])), float(tr(_OPS["zz"]))


def qfi_mp(rho):
    """Bipartite QFI: sum over A in sqrt(2){I, Sx, Sy, Sz} of F(rho, A x I + I x A).

    F(rho, G) = 2 sum_{ij} (t_i - t_j)^2 / (t_i + t_j) |<i|G|j>|^2 over the
    eigenpairs of rho.
    """
    with mp.workdps(DPS):
        evals, vecs = mp.eigsy(rho)
        tau = [max(evals[i], 0) for i in range(4)]
        floor = mpf(10) ** (5 - DPS)
        total = mpf(0)
        for g in _OPS["qfi"]:
            gm = vecs.T * g * vecs
            for i in range(4):
                for j in range(4):
                    pair = tau[i] + tau[j]
                    if pair > floor:
                        total += 2 * (tau[i] - tau[j]) ** 2 / pair * abs(gm[i, j]) ** 2
        return total


def qfi(rho) -> float:
    return float(qfi_mp(rho))


def qfi_derivatives(par: dict, step: float, defect: bool = True) -> tuple[float, float]:
    """(exact dF/dB by Richardson extrapolation, central difference at `step`).

    Both are evaluated on the reference state.  The exact value combines
    central differences at h = 1e-6 and h/2 (error O(h^4) at 40 digits).
    """
    with mp.workdps(DPS):
        b = mpf(par["B"])

        def central(h):
            h = mpf(h)
            up = qfi_mp(limit_state(dict(par, B=b + h), defect))
            down = qfi_mp(limit_state(dict(par, B=b - h), defect))
            return (up - down) / (2 * h)

        d1 = central(mpf("1e-6"))
        d2 = central(mpf("5e-7"))
        return float((4 * d2 - d1) / 3), float(central(step))


def is_state(rho) -> bool:
    """Unit trace and no negative eigenvalue, to the working precision."""
    with mp.workdps(DPS):
        tol = mpf(10) ** (10 - DPS)
        trace = rho[0, 0] + rho[1, 1] + rho[2, 2] + rho[3, 3]
        return bool(abs(trace - 1) < tol and min(mp.eigsy(rho, eigvals_only=True)) > -tol)


def state_summary(rho, teleport: bool = True) -> dict:
    """Every single-state quantity the solver reports, from one reference state."""
    out = elements(rho)
    xx, zz = correlators(rho)
    out.update(concurrence=concurrence(rho), coherence=coherence(rho),
               sxsx=xx, szsz=zz, qfi=qfi(rho))
    if teleport:
        out.update(favg=average_fidelity(out), cout=output_concurrence(rho))
    return out


# ---------------------------------------------------------------------------
# teleportation through two copies of the channel

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_KRAUS = [np.kron(_PAULI[i], _PAULI[j]) for i in range(4) for j in range(4)]
_S2 = 1.0 / math.sqrt(2.0)
# Bell states in the order (Psi-, Phi-, Phi+, Psi+), matched to (I, X, Y, Z)
_BELL = np.array([
    [0.0, _S2, -_S2, 0.0],
    [_S2, 0.0, 0.0, -_S2],
    [_S2, 0.0, 0.0, _S2],
    [0.0, _S2, _S2, 0.0],
])


def channel_matrix(el: dict) -> np.ndarray:
    return np.array([
        [el["r11"], 0.0, 0.0, 0.0],
        [0.0, el["r22"], el["r23"], 0.0],
        [0.0, el["r23"], el["r33"], 0.0],
        [0.0, 0.0, 0.0, el["r44"]],
    ])


def input_ket(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|10> + e^{i phi} sin(theta/2)|01>."""
    return np.array([0.0, np.exp(1j * phi) * math.sin(0.5 * theta),
                     math.cos(0.5 * theta), 0.0], dtype=complex)


def _pair_weights(ch) -> list:
    probs = [sum(_BELL[k, i] * ch[i][j] * _BELL[k, j] for i in range(4) for j in range(4))
             for k in range(4)]
    return [pi * pj for pi in probs for pj in probs]


def kraus_output(el: dict, theta: float, phi: float) -> np.ndarray:
    """sum_ij p_i p_j (s_i x s_j) rho_in (s_i x s_j)+, p_i the channel's Bell populations."""
    ch = channel_matrix(el)
    ket = input_ket(theta, phi)
    rho_in = np.outer(ket, ket.conj())
    out = np.zeros((4, 4), dtype=complex)
    for wgt, k in zip(_pair_weights(ch.tolist()), _KRAUS):
        out += wgt * (k @ rho_in @ k.conj().T)
    return out


def average_fidelity(el: dict) -> float:
    """<psi|rho_out|psi> averaged over the input sphere by exact quadrature.

    The fidelity is a trigonometric polynomial of low degree in (theta, phi);
    6 Gauss-Legendre nodes in cos(theta) and 6 uniform phases integrate it
    exactly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(6)
    phis = 2.0 * math.pi * np.arange(6) / 6
    kets = np.array([input_ket(math.acos(x), phi) for x in nodes for phi in phis])
    wq = np.repeat(weights, len(phis)) / (2.0 * len(phis))
    pair = np.array(_pair_weights(channel_matrix(el).tolist()))
    amp = np.einsum("qi,kij,qj->kq", kets.conj(), np.array(_KRAUS), kets)
    return float(np.einsum("k,kq,q->", pair, np.abs(amp) ** 2, wq))


def output_concurrence(rho) -> float:
    """Generic Wootters concurrence of the output for theta = pi/2, phi = 0.

    Composed in mp arithmetic: near a pure output the Wootters roots are
    square-root sensitive to rounding in the output state.
    """
    with mp.workdps(DPS):
        ch = [[rho[i, j] for j in range(4)] for i in range(4)]
        amp = 1 / mpmath.sqrt(2)
        ket = [0, amp, amp, 0]
        out = mpmath.matrix(4, 4)
        for wgt, k in zip(_pair_weights(ch), _KRAUS):
            # a Pauli product is a signed permutation: one entry +-1 or +-i per row;
            # the output is real, so only the real part of each phase pair counts
            col = [int(np.flatnonzero(k[r])[0]) for r in range(4)]
            for a in range(4):
                for b in range(4):
                    sign = (k[a, col[a]] * np.conj(k[b, col[b]])).real
                    if sign:
                        out[a, b] += wgt * sign * ket[col[a]] * ket[col[b]]
        return float(max(wootters_margin(out), 0))
