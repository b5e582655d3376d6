"""The whole-range contract: every documented entry point, at any finite
parameters, returns a valid state (a finite log Z, finite columns) or raises
a documented error naming its point, with no numpy warning on the way."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from impurity_chain import cli, xfer
from impurity_chain.measures import QUANTITY_COLUMNS, measure_columns
from impurity_chain.model import DELTA_B, ModelParams, OverflowRisk
from impurity_chain.xfer import (
    DegenerateGap,
    NotAState,
    XState,
    finite_n_density_matrix,
    impurity_density_matrix,
    limit_states,
    partition_function,
)

DOCUMENTED = (OverflowRisk, DegenerateGap, NotAState)
HUGE_KEYS = ("J", "Delta", "J0", "gamma", "B")
RING = 6

# points where the ring's two energy terms of log Z are finite but their sum
# is not: log Z overflowed outside the kernel's errstate, with a warning
LOG_Z_SUM_OVERFLOWS = [
    ModelParams(J=-1.66308344062015, Delta=1.1809961054560133e307, J0=-0.20601851711945995,
                g1=1.6874920556666968, g2=5.720586066403008, g3=5.225172278345592,
                gamma=-1.8487226099381346, B=4.090653562881672, T=0.16376675552272207),
    ModelParams(J=-1.5109408878729376, Delta=-1.5923504793347756e146, J0=3.664741509683516e307,
                g1=1.3262463007827345, g2=3.3355536998154647, g3=3.2170232197726727,
                gamma=-0.5046431688542574, B=4.999111698219604, T=0.5192884118883015),
    ModelParams(J=6.223886883198952e305, Delta=-1.3107136659374032, J0=-0.5143394725612982,
                g1=1.9250807473411995, g2=2.250154452310867, g3=5.931775261707155,
                gamma=8.179144337876409e95, B=3.1635802861701112, T=0.005836260870588145),
]


def ordinary_point(rng) -> dict:
    """A point of ordinary size, B in [0, 5] and T log-uniform in [0.005, 3]."""
    return dict(J=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), Delta=rng.uniform(0.0, 3.0),
                J0=rng.uniform(-2.0, 2.0), g1=rng.uniform(0.5, 2.0), g2=rng.uniform(0.5, 6.0),
                g3=rng.uniform(0.5, 6.0), gamma=rng.uniform(-2.0, 2.0), B=rng.uniform(0.0, 5.0),
                T=math.exp(rng.uniform(math.log(0.005), math.log(3.0))))


def whole_range_draws(seed: int, n: int) -> list[ModelParams]:
    """Ordinary points with one or two of J, Delta, J0, gamma and B set to
    +-10^U(0, 308)."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        p = ordinary_point(rng)
        for key in rng.choice(HUGE_KEYS, rng.integers(1, 3), replace=False):
            p[key] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 308.0)
        draws.append(ModelParams(**{k: float(v) for k, v in p.items()}))
    return draws


def g_factor_draws(seed: int, n: int) -> list[ModelParams]:
    """Ordinary points with g2 or g3 set to +-10^U(306, log10 1.79e308): |g B|
    finite, and often past half the float range."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        p = ordinary_point(rng)
        p[rng.choice(["g2", "g3"])] = (rng.choice([-1.0, 1.0])
                                       * 10.0 ** rng.uniform(306.0, math.log10(1.79e308)))
        draws.append(ModelParams(**{k: float(v) for k, v in p.items()}))
    return draws


def outcome(p: ModelParams, call, errors=DOCUMENTED):
    """`call()`'s value, or the documented error (one of `errors`) it raised
    naming `p`; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except errors as exc:
            assert f"J={p.J!r}" in str(exc), (p, exc)
            return exc


def check_point(p: ModelParams):
    """The limit state (or its error) at `p`, after checking the ring and log Z."""
    ring = outcome(p, lambda: finite_n_density_matrix(p, RING))
    limit = outcome(p, lambda: impurity_density_matrix(p))
    for state in (ring, limit):
        assert isinstance(state, Exception) or state.validate() is state, p
    log_z = outcome(p, lambda: partition_function(p, RING))
    assert isinstance(log_z, Exception) or math.isfinite(log_z), p
    return limit


def limit_batch(points):
    return limit_states(*(np.array([getattr(p, k) for p in points])
                          for k in vars(points[0])))


@pytest.mark.parametrize("p", LOG_Z_SUM_OVERFLOWS, ids=["Delta", "J0", "J-gamma"])
def test_log_z_energy_sum_past_the_float_range(p):
    check_point(p)
    with pytest.raises(OverflowRisk, match=f"log Z_{RING} is past the float range at J="):
        partition_function(p, RING)


def test_whole_range_draws():
    draws = whole_range_draws(20261019, 2000)
    states = [check_point(p) for p in draws]
    valid = [(p, st) for p, st in zip(draws, states) if isinstance(st, XState)]
    # a batch of limit_states gives each valid point the bits it has alone
    batch = limit_batch([p for p, _ in valid])
    alone = np.array([list(vars(st).values()) for _, st in valid]).T
    assert batch.tobytes() == alone.tobytes()
    # and raises the one-point error of a failing point, naming it
    for p, st in zip(draws, states):
        if isinstance(st, Exception):
            error = outcome(p, lambda: limit_batch([p]))
            assert type(error) is type(st) and str(error) == str(st)
    # the draws reach both documented errors and valid states
    kinds = {type(st) for st in states}
    assert {XState, OverflowRisk, DegenerateGap} <= kinds


def test_g_factors_near_the_float_range():
    # g + |a - b| of the defect's central block overflowed where |g2 B| or
    # |g3 B| passes about 9e307, which made its cells inf/inf with a warning
    states = [check_point(p) for p in g_factor_draws(20261021, 3000)]
    assert {type(st) for st in states} == {XState, OverflowRisk}


def test_evaluator_over_the_whole_range():
    # every column, the shortcut correlators and qfi_dB's shifted fields
    # included, is finite or the point raises a documented error naming it;
    # FloatingPointError exactly where a valid point's B +- delta_b is B
    quantities = tuple(QUANTITY_COLUMNS)
    kinds = set()
    for p in whole_range_draws(20261019, 2000):
        values = outcome(p, lambda: cli.run_point(p, quantities, alt_correlators=True),
                         DOCUMENTED + (cli.NonFiniteError, FloatingPointError))
        lost = p.B + DELTA_B == p.B or p.B - DELTA_B == p.B
        if isinstance(values, dict):
            assert len(values) == 15 and all(map(math.isfinite, values.values())), (p, values)
        # the kernel's errors come first
        lost_only = lost and not isinstance(values, DOCUMENTED)
        assert isinstance(values, FloatingPointError) == lost_only, p
        kinds.add(type(values))
    assert {dict, OverflowRisk, DegenerateGap, FloatingPointError} <= kinds


@pytest.mark.parametrize("p", LOG_Z_SUM_OVERFLOWS + [
    ModelParams(J=1e160), ModelParams(J=-1.7e308, B=1.0), ModelParams(B=1e308, T=0.005),
    ModelParams(J0=-1e20, B=1.95), ModelParams(Delta=-1e300, gamma=1e200, T=0.005),
])
def test_point_exits_cleanly_over_the_whole_range(p, capsys):
    argv = ["point"] + [f"--set={k}={v!r}" for k, v in vars(p).items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert out.count("\r\n") == 2 and err == ""
    else:
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and f"J={p.J!r}" in err


# ---------------------------------------------------------------------------
# grids of any rank: every argument broadcasts to the points' shape, each
# kernel call takes whole slices of the first axis, and every point keeps the
# bits and errors of the flattened batch

GRID_ROWS = 40
SWEEPS = 8  # the rows as 8 sweeps of 5 points
TEMPS = np.geomspace(0.005, 3.0, 700)
FIELDS = tuple(f for f in vars(ModelParams()) if f != "T")


@pytest.fixture(scope="module")
def grid_rows():
    """Whole-range draws that every quantity evaluates at every temperature
    of TEMPS without an error, and a draw whose Zeeman term overflows."""
    valid, overflow = [], None
    for p in whole_range_draws(20261020, 400):
        params = {k: getattr(p, k) for k in FIELDS}
        try:
            measure_columns(dict(params, T=TEMPS), tuple(QUANTITY_COLUMNS))
            valid.append(params)
        except OverflowRisk as exc:
            if overflow is None and "Zeeman term" in str(exc):
                overflow = params
        except (DegenerateGap, NotAState, FloatingPointError):
            pass
    assert len(valid) >= GRID_ROWS and overflow is not None
    return valid[:GRID_ROWS], overflow


def grid_and_batch(rows, temps):
    """limit_states' arguments as a (rows, 1) x (1, k) grid, as a
    (sweeps, axis, 1) x (k,) grid, and flattened."""
    columns = {k: np.array([row[k] for row in rows]) for k in FIELDS}
    grid = dict({k: v[:, None] for k, v in columns.items()}, T=temps[None, :])
    sweeps = dict({k: v.reshape(SWEEPS, -1, 1) for k, v in columns.items()}, T=temps)
    batch = dict({k: np.repeat(v, len(temps)) for k, v in columns.items()},
                 T=np.tile(temps, len(rows)))
    return grid, sweeps, batch


@pytest.mark.parametrize("k", [1, 7, 64, 601, 700])
def test_grid_is_its_flattened_batch(grid_rows, k):
    # 64 leaves 601 - 9 * 64 points of a call unused; a 700-point row is
    # longer than a call and is cut again along its temperatures, as is a
    # sweep of 5 rows past 120 temperatures
    temps = TEMPS[np.linspace(0, len(TEMPS) - 1, k).astype(int)]
    grid, sweeps, batch = grid_and_batch(grid_rows[0], temps)
    states = limit_states(**batch)
    # the evaluator too, whose qfi_dB fields lead the points: (3, 8, 5, k)
    # over the sweeps
    flat = measure_columns(batch, tuple(QUANTITY_COLUMNS))
    for g, shape in ((grid, (GRID_ROWS, k)), (sweeps, (SWEEPS, GRID_ROWS // SWEEPS, k))):
        grid_states = limit_states(**g)
        assert grid_states.shape == (5,) + shape and grid_states.tobytes() == states.tobytes()
        columns = measure_columns(g, tuple(QUANTITY_COLUMNS))
        assert list(columns) == list(flat)
        for name, values in columns.items():
            assert values.shape == shape and values.tobytes() == flat[name].tobytes()


def test_scalars_are_a_batch_of_one():
    p = ModelParams(Delta=0.5, J0=1.0, gamma=-0.8, B=0.8, T=0.3)
    assert limit_states(**vars(p)).shape == (5, 1)
    batch = {k: np.array([v]) for k, v in vars(p).items()}
    for quantities in (("concurrence", "qfi"), ("qfi_dB",), ("concurrence", "qfi", "qfi_dB")):
        columns = measure_columns(vars(p), quantities)
        assert [v.shape for v in columns.values()] == [(1,)] * len(quantities)
        assert {k: v.tobytes() for k, v in columns.items()} == {
            k: v.tobytes() for k, v in measure_columns(batch, quantities).items()}


def test_empty_grid():
    grid, sweeps, _ = grid_and_batch([], TEMPS[:64])
    assert limit_states(**grid).shape == (5, 0, 64)
    assert limit_states(**sweeps).shape == (5, SWEEPS, 0, 64)
    assert [a.tolist() for a in cli._thresholds(cli._grid([], ()), (0.01, 1.2))] == [[], []]


def test_grid_errors_name_the_flattened_batch_point(grid_rows):
    valid, overflow = grid_rows
    temps = TEMPS[:64].copy()
    temps[37] = 0.0
    bad_rows = valid[:23] + [overflow] + valid[23:-1]
    evaluators = (lambda g: limit_states(**g), lambda g: measure_columns(g, ("qfi", "qfi_dB")))
    for rows, t, error in ((valid, temps, ValueError), (bad_rows, TEMPS[:64], OverflowRisk)):
        *grids, batch = grid_and_batch(rows, t)
        for evaluate in evaluators:
            with pytest.raises(error) as flat:
                evaluate(batch)
            for g in grids:
                with pytest.raises(error, match="at J=") as named:
                    evaluate(g)
                assert str(named.value) == str(flat.value)


# ---------------------------------------------------------------------------
# exact identities over the whole range: the model's symmetries, which need
# no reference value, over ordinary and whole-range draws, one batch of each
# side per identity

PARAMS = tuple(vars(ModelParams()))
LONG_RING = 2**60 + 1


def error_kind(call):
    """None if `call()` returns, else the type of the documented error it raised."""
    try:
        call()
    except DOCUMENTED as exc:
        return type(exc)
    return None


@pytest.fixture(scope="module")
def identity_draws():
    """2,000 ordinary draws and the 2,000 whole-range draws, and the kind of
    each one's limit state: None, or the documented error it raises."""
    rng = np.random.default_rng(7)
    draws = [ModelParams(**{k: float(v) for k, v in ordinary_point(rng).items()})
             for _ in range(2000)]
    draws += whole_range_draws(20261019, 2000)
    return draws, [error_kind(lambda: impurity_density_matrix(p)) for p in draws]


def scaled(points, **factors):
    """limit_states' arguments over `points`, each field times its factor."""
    return {k: factors.get(k, 1.0) * np.array([getattr(p, k) for p in points]) for k in PARAMS}


def states_and_image(draws, kinds, **factors):
    """The limit states of the draws that give one, in one batch, and of
    their images under `factors`, in another; each failing draw's image
    raises the same error kind."""
    valid = [p for p, kind in zip(draws, kinds) if kind is None]
    for p, kind in zip(draws, kinds):
        if kind is not None:
            image = replace(p, **{k: f * getattr(p, k) for k, f in factors.items()})
            assert error_kind(lambda: impurity_density_matrix(image)) is kind, p
    return limit_states(**scaled(valid)), limit_states(**scaled(valid, **factors))


def test_mirror_swaps_the_populations(identity_draws):
    # B -> -B swaps r11 with r44 and r22 with r33
    states, mirrored = states_and_image(*identity_draws, B=-1.0)
    assert np.abs(mirrored[[3, 2, 1, 0, 4]] - states).max() <= 1e-15


def test_measures_under_the_mirror(identity_draws):
    # C, the coherence, F and favg are even in B, and dF/dB is odd; a draw
    # whose step is lost against B fails on both sides (|B| is the same)
    draws, kinds = identity_draws
    valid = [p for p, kind in zip(draws, kinds)
             if kind is None and p.B + DELTA_B != p.B and p.B - DELTA_B != p.B]
    quantities = ("concurrence", "coherence", "qfi", "favg", "qfi_dB")
    columns = measure_columns(scaled(valid), quantities)
    mirrored = measure_columns(scaled(valid, B=-1.0), quantities)
    parity = dict.fromkeys(quantities, 1.0) | {"qfi_dB": -1.0}
    bounds = dict(concurrence=3.3e-15, coherence=3.3e-15, qfi=5.3e-14, favg=6.7e-15,
                  qfi_dB=3.1e-11)
    for q, bound in bounds.items():
        assert np.abs(parity[q] * mirrored[q] - columns[q]).max() <= bound, q


def test_exchange_sign_negates_the_coherence(identity_draws):
    # (J, Delta) -> (-J, -Delta) negates r23 and keeps the populations, bit
    # for bit; a zero r23 stays +0.0
    states, flipped = states_and_image(*identity_draws, J=-1.0, Delta=-1.0)
    assert flipped[:4].tobytes() == states[:4].tobytes()
    assert np.array_equal(-flipped[4], states[4])


def test_energy_scale_keeps_the_state(identity_draws):
    # J, J0, B and T times 4, at the draws where no energy (J, J Delta, J0,
    # B, T or a Zeeman term) passes the float range only when scaled
    def scale_stays_finite(p):
        zeeman = [g * p.B * f for g in (p.g1, p.g2, p.g3) for f in (1.0, 1.0 + p.gamma)]
        energies = np.array([p.J, p.J * p.Delta, p.J0, p.B, p.T, *zeeman])
        with np.errstate(over="ignore"):
            return np.array_equal(np.isfinite(4.0 * energies), np.isfinite(energies))

    draws, kinds = identity_draws
    kept = [(p, kind) for p, kind in zip(draws, kinds) if scale_stays_finite(p)]
    assert len(draws) - len(kept) == 7
    states, image = states_and_image(*zip(*kept), J=4.0, J0=4.0, B=4.0, T=4.0)
    assert np.abs(image - states).max() <= 1e-300


def test_long_ring_is_the_limit(identity_draws):
    # finite_n_density_matrix at 2^60 + 1 cells, batched through its kernel;
    # every draw whose limit has a degenerate dominant host eigenvalue (the
    # limit's own check) is a valid state in the ring
    draws, kinds = identity_draws
    valid = [p for p, kind in zip(draws, kinds) if kind is None]
    ring = xfer._kernel(tuple(scaled(valid).values()), LONG_RING)[0]
    assert np.abs(ring - limit_states(**scaled(valid))).max() <= 1e-15
    p = valid[-1]
    assert finite_n_density_matrix(p, LONG_RING) == XState(*ring[:, -1].tolist())
    degenerate = 0
    for p, kind in zip(draws, kinds):
        if kind is DegenerateGap:
            assert finite_n_density_matrix(p, LONG_RING).validate(), p
            degenerate += 1
        elif kind is not None:
            assert error_kind(lambda: finite_n_density_matrix(p, LONG_RING)) is kind, p
    assert degenerate == 433
