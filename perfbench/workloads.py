"""Seeded inputs for the three workloads, with their reference values.

Each generator takes a `random.Random` seeded from `--seed` and returns a
list of operations: plain JSON-ready dicts that `child.py` turns into calls
into the package.  Where an operation's expected output can be computed from
its inputs alone (scatter), the reference is attached under "ref"
here, before anything is timed.  Preset and grid outputs are checked from the
written CSV rows afterwards (see checks.py).
"""

from __future__ import annotations

import math
import random

import reference as ref

STD = {"g1": 1.2, "g2": 5.0, "g3": 1.1}
PRESETS = ("fig3", "fig5", "fig-qfi", "fig-dbqfi", "fig8", "fig10", "fig22-threshold")
GRID_QUANTITIES = "concurrence,coherence,sxsx,szsz,qfi,favg,cout,rho_elements"
GRID_SHAPE = (41, 21)          # B points x T points: 861 rows per grid
GRIDS_PER_ROUND = 3
DELTA_B = 1e-3                 # the solver's default central-difference step
FINDER_POINTS = 64             # the threshold finder's default coarse-scan size
# fixed-width floats hold exp(x) for |x| < ~709; the solver guards at 700,
# so seeded points stay below 600 to keep a margin
EXP_MARGIN = 600.0

# scatter: equal calls of each kind per round; no measured traffic gives
# other weights
SCATTER_KINDS = ("state", "bundle", "teleport", "ring", "logz")
CALLS_PER_KIND = 20
# Of each kind's calls, how many go to fixed points where the solver raises
# today although the model has a valid state there (Boltzmann exponents past
# its 700 guard: OverflowRisk).  The shares are those of the ROADMAP's
# 3,168-point scan of the physical range: 14% of limit states, 30% of N = 64
# rings (with the DegenerateGap point of BAD_RING_OPS), 21% of log Z.  The
# points are drawn from their own fixed seed, so every run fails the same
# share of operations.
FAULTS_PER_KIND = {"state": 3, "bundle": 3, "ring": 5, "logz": 4}
FAULT_SEED = "scatter-faults"
# the solver's guard is 700 T; fault points lie well past it
FAULT_MARGIN = 800.0
# Fixed ring points that fail through the similarity transform's w0
# cancellation: one raises DegenerateGap although w0 ~ e^-41 is a valid
# weight, and two return states off by about 1.0 from 2^N enumeration
# without raising (counted as failures by checks.check_scatter).
BAD_RING_OPS = (
    {"kind": "ring", "n": 6, "fault": "raises",
     "params": dict(STD, J=1.0, Delta=0.5, J0=1.0, gamma=0.0, B=0.0, T=0.005)},
    {"kind": "ring", "n": 3, "fault": "wrong",
     "params": dict(STD, J=-0.83, Delta=0.95, J0=1.38, gamma=-1.12, B=0.57, T=0.011)},
    {"kind": "ring", "n": 8, "fault": "wrong",
     "params": dict(STD, J=-0.96, Delta=0.31, J0=1.23, gamma=-1.11, B=0.48, T=0.013)},
)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scan(lo: float, hi: float, points: int = FINDER_POINTS) -> list:
    """The threshold finder's coarse grid, lo + (hi - lo) i / (points - 1)."""
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


# ---------------------------------------------------------------------------
# presets

def presets(rng) -> list:
    """Every figure preset twice per round, each pass in its own seeded order.

    One pass takes about 20 s and gives one time per preset; two passes per
    round halve the weight of a slow stretch of the machine on the run.
    """
    ops = []
    for _ in range(2):
        order = list(PRESETS)
        rng.shuffle(order)
        ops += [{"kind": "preset", "name": name} for name in order]
    return ops


# ---------------------------------------------------------------------------
# grid-pool

def grid_pool(rng) -> list:
    """2-D B x T grids of every quantity but qfi_dB, through the process pool."""
    ops = []
    while len(ops) < GRIDS_PER_ROUND:
        par = dict(J=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
                   Delta=rng.uniform(0.0, 2.0), J0=rng.uniform(-2.0, 2.0),
                   gamma=rng.uniform(-0.9, 0.5), **STD)
        b_max = rng.uniform(2.0, 4.0)
        t_min, t_max = rng.uniform(0.02, 0.05), rng.uniform(1.0, 2.0)
        # the strongest field at the lowest temperature is the grid's worst
        # corner for the Boltzmann exponents
        corner = ref.energy_margins(dict(par, B=b_max, T=t_min))
        if corner["defect_below_host"] > EXP_MARGIN:
            continue
        ops.append({"kind": "sweep", "name": f"grid{len(ops)}", "params": par,
                    "axes": [["B", 0.0, b_max, GRID_SHAPE[0]],
                             ["T", t_min, t_max, GRID_SHAPE[1]]],
                    "quantities": GRID_QUANTITIES})
    return ops


# ---------------------------------------------------------------------------
# scatter

def _scatter_point(rng) -> dict:
    """A point anywhere in the physical range: either sign of gamma and J,
    fields up to 5, temperatures down to 0.005."""
    g = dict(STD) if rng.random() < 0.5 else dict(
        g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 6.0), g3=rng.uniform(0.5, 6.0))
    return dict(J=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
                Delta=rng.uniform(0.0, 3.0), J0=rng.uniform(-2.0, 2.0),
                gamma=rng.uniform(-2.0, 2.0), B=rng.uniform(0.0, 5.0),
                T=_log_uniform(rng, 0.005, 3.0), **g)


def _ring_ill_conditioned(par: dict) -> bool:
    """Whether the finite ring's similarity transform is known to lose digits.

    With ln w normalised to the largest sector of each family: the host
    suppresses a sector the defect favours (host below -4 there, defect
    e^3 above the host), or the two families favour different sectors while
    the host's s = 0 weight is below e^-9.  On 28,000 whole-range draws
    every ring state off by more than 1e-11 from 2^N enumeration met this
    test, and 89% of the draws did not.
    """
    with ref.mp.workdps(ref.DPS):
        logs = []
        for defect in (False, True):
            w = ref.host_weights(par, defect)
            top = max(w.values())
            logs.append({s: float(ref.mpmath.log(w[s] / top)) if w[s] > 0 else -math.inf
                         for s in w})
    host, dfct = logs
    favoured = max(host, key=host.get) != max(dfct, key=dfct.get)
    return ((favoured and host[0] < -9.0)
            or any(host[s] < -4.0 and dfct[s] - host[s] > 3.0 for s in host))


def _kept(kind: str, par: dict) -> bool:
    """Whether a seeded scatter point avoids the solver's known faults.

    Boltzmann weights in fixed-width floats must stay clear of exp()
    overflow and underflow (judged from the reference spectrum), and the
    finite ring must not be in its ill-conditioned region.  A failure that
    depends on the seed would change the failed share from run to run; the
    faults have their fixed points instead (FAULTS_PER_KIND, BAD_RING_OPS).
    """
    if kind == "teleport":
        return True
    m = ref.energy_margins(par)
    if kind in ("state", "bundle"):
        return m["defect_below_host"] < EXP_MARGIN
    if m["host_vs_defect"] >= EXP_MARGIN or m["host_s0"] >= EXP_MARGIN:
        return False
    return kind == "logz" or not _ring_ill_conditioned(par)


def _overflows(kind: str, par: dict) -> bool:
    """Whether the solver's shared energy shift puts a Boltzmann exponent of
    this call well past its 700 guard."""
    m = ref.energy_margins(par)
    if kind in ("state", "bundle"):
        return m["defect_below_host"] > FAULT_MARGIN
    return m["host_vs_defect"] > FAULT_MARGIN


def fault_ops() -> list:
    """The fixed fault points: the same in every run, whatever the seed."""
    rng = random.Random(FAULT_SEED)
    ops = []
    for kind, count in FAULTS_PER_KIND.items():
        while sum(op["kind"] == kind for op in ops) < count:
            par = _scatter_point(rng)
            if _overflows(kind, par):
                op = {"kind": kind, "params": par, "fault": "raises"}
                if kind in ("ring", "logz"):
                    op["n"] = rng.randint(2, 12)
                ops.append(op)
    return ops + [dict(op) for op in BAD_RING_OPS]


def attach_scatter_reference(op: dict) -> dict:
    par = op["params"]
    kind = op["kind"]
    if kind == "ring":
        rho = ref.ring_state(par, op["n"])
        op["ref"] = {"valid": ref.is_state(rho), **ref.elements(rho)}
    elif kind == "logz":
        op["ref"] = {"valid": ref.is_state(ref.ring_state(par, op["n"])),
                     "logz": ref.log_partition(par, op["n"])}
    else:
        rho = ref.limit_state(par)
        values = ref.elements(rho)
        values["valid"] = ref.is_state(rho)
        if kind == "bundle":
            values.update(ref.state_summary(rho, teleport=False))
            values["qfi_dB"], values["qfi_dB_central"] = ref.qfi_derivatives(par, DELTA_B)
        elif kind == "teleport":
            op["channel"] = ref.elements(rho)
            out = ref.kraus_output(op["channel"], op["theta"], op["phi"])
            values["matrix"] = [[[z.real, z.imag] for z in row] for row in out]
        op["ref"] = values
    return op


def scatter(rng) -> list:
    """CALLS_PER_KIND single library calls of each kind across the whole
    physical range, the fixed fault points among them, in a seeded order."""
    ops = fault_ops()
    for kind in SCATTER_KINDS:
        while sum(op["kind"] == kind for op in ops) < CALLS_PER_KIND:
            par = _scatter_point(rng)
            if not _kept(kind, par):
                continue
            op = {"kind": kind, "params": par}
            if kind in ("ring", "logz"):
                op["n"] = rng.randint(2, 12)
            if kind == "teleport":
                op["theta"] = rng.uniform(0.0, math.pi)
                op["phi"] = rng.uniform(0.0, 2.0 * math.pi)
            ops.append(op)
    rng.shuffle(ops)
    return [attach_scatter_reference(op) for op in ops]


GENERATORS = {
    "presets": presets,
    "grid-pool": grid_pool,
    "scatter": scatter,
}
