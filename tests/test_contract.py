"""The whole-range contract: every documented entry point, at any finite
parameters, returns a valid state (a finite log Z, finite columns) or raises
a documented error naming its point, with no numpy warning on the way."""

import collections
import math
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from impurity_chain import cli, xfer
from impurity_chain.measures import (QUANTITY_COLUMNS, MeasureBundle, measure_bundle,
                                     measure_columns)
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
# every form of a parameter gives the bits of its float: the kernel keeps a
# float as it is and converts any other scalar, sequence or array, so an int,
# a numpy scalar, a 0-d array and one-element sequences must all agree with
# the float, error type and message included.  J = 3**40 is past 2^53; with
# every parameter an int (and T of the order of J, so that the state is not
# saturated), the exact product J * Delta = 3**41 * 5 rounds otherwise than
# the float product, so an int passed through would show there

INTEGERS = dict(J=3**40, Delta=2, J0=-1, g1=1, g2=5, g3=2, gamma=-1, B=3, T=1)
ALL_INTEGERS = dict(INTEGERS, J=3**41, Delta=5, J0=2, T=3**41)


def bits(call):
    """The bytes of `call()`'s states or columns, or its documented error."""
    try:
        value = call()
    except DOCUMENTED + (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, dict):
        return [(k, v.shape, v.tobytes()) for k, v in value.items()]
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return type(value), np.array(list(vars(value).values()), dtype=float).tobytes()


@pytest.fixture(scope="module")
def form_points():
    """Three ordinary points, and two whole-range draws of each outcome of
    measure_bundle: a value, OverflowRisk, DegenerateGap and a lost step."""
    rng = np.random.default_rng(20261103)
    points = [ModelParams(**{k: float(v) for k, v in ordinary_point(rng).items()})
              for _ in range(3)]
    taken = collections.Counter()
    for p in whole_range_draws(20261019, 200):
        kind = bits(lambda: measure_bundle(p, with_derivative=True))[0]
        if taken[kind] < 2:
            taken[kind] += 1
            points.append(p)
    assert set(taken.values()) == {2} and len(taken) == 4
    return points


def test_parameter_forms_through_model_params(form_points):
    calls = (impurity_density_matrix, lambda p: finite_n_density_matrix(p, RING),
             lambda p: measure_bundle(p, with_derivative=True))
    kinds = set()
    for name in PARAMS:
        for p in form_points:
            integral = replace(p, **{name: float(INTEGERS[name])})
            pairs = ((integral, replace(p, **{name: INTEGERS[name]})),
                     (p, replace(p, **{name: np.float64(getattr(p, name))})))
            for call in calls:
                for floats, form in pairs:
                    expected = bits(lambda: call(floats))
                    assert bits(lambda: call(form)) == expected, (name, form)
                    kinds.add(expected[0])
    assert {XState, MeasureBundle, OverflowRisk, DegenerateGap} <= kinds
    floats = ModelParams(**{k: float(v) for k, v in ALL_INTEGERS.items()})
    for call in calls:
        assert bits(lambda: call(ModelParams(**ALL_INTEGERS))) == bits(lambda: call(floats))


def test_parameter_forms_into_the_evaluators(form_points):
    quantities = tuple(QUANTITY_COLUMNS)
    kinds = set()
    for name in PARAMS:
        for p in form_points:
            v = getattr(p, name)
            cases = ((float(INTEGERS[name]), INTEGERS[name]),) + tuple(
                (v, form) for form in (np.float64(v), np.array(v), [v], np.array([v])))
            for value, form in cases:
                floats, params = dict(vars(p), **{name: value}), dict(vars(p), **{name: form})
                for evaluate in (lambda a: limit_states(**a),
                                 lambda a: measure_columns(a, quantities)):
                    expected = bits(lambda: evaluate(floats))
                    assert bits(lambda: evaluate(params)) == expected, (name, form)
                    kinds.add(expected[0])
    assert {(5, 1), OverflowRisk, DegenerateGap, FloatingPointError} <= kinds
    floats = {k: float(v) for k, v in ALL_INTEGERS.items()}
    assert bits(lambda: limit_states(**ALL_INTEGERS)) == bits(lambda: limit_states(**floats))
    assert bits(lambda: measure_columns(ALL_INTEGERS, quantities)) == bits(
        lambda: measure_columns(floats, quantities))


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


# ---------------------------------------------------------------------------
# the CLI over the whole range: every command, run in process on whole-range
# draws, exits 0, 2, 3 or 4 with no traceback and no numpy warning; exit 3
# names the point and exit 0 writes every row and column.  The histogram of
# (command, exit code, error kind) is pinned, so a change to the kernel's
# guards that moves any error to another draw, or to another kind, shows here

CLI_SEED = 20261102
CLI_DRAWS = 100
SWEEP_SHAPE = (7, 5)  # T x B
PRESET_KEYS = ("J", "Delta", "J0", "g1", "g2", "g3")
EXTREMES = (1.7e308, -1.7e308, 1e308, -1e308, 1e200, -1e200, 5e-324, -5e-324)
POINT_COLUMNS = len(PARAMS) + sum(map(len, QUANTITY_COLUMNS.values()))
ZEEMAN = "a Zeeman term or dimer level is past the float range"
DEGENERATE = ("the host's dominant eigenvalue is degenerate, so the infinite chain's limit "
              "state depends on the boundary")
LOST = "the step delta_b=0.001 is lost against B (B +- delta_b == B: dF/dB would read 0)"
OWNED = "preset {!r} sets 'Delta' per curve, row, axis or scan, so it cannot be overridden"
CLI_HISTOGRAM = {
    ("point", 0, ""): 48, ("point", 3, ZEEMAN): 5, ("point", 3, DEGENERATE): 23,
    ("point", 3, LOST): 24,
    ("sweep", 0, ""): 48, ("sweep", 3, ZEEMAN): 5, ("sweep", 3, DEGENERATE): 23,
    ("sweep", 3, LOST): 24,
    ("threshold", 0, ""): 1, ("threshold", 3, ZEEMAN): 5, ("threshold", 3, DEGENERATE): 23,
    ("threshold", 4, ""): 71,
    ("critical max-concurrence", 0, ""): 10, ("critical max-concurrence", 3, ZEEMAN): 3,
    ("critical max-concurrence", 3, DEGENERATE): 25,
    ("critical max-concurrence", 4, "max_concurrence has no interior extremum in (0.0, 3.0)"): 62,
    ("critical qfi-min", 0, ""): 7, ("critical qfi-min", 3, ZEEMAN): 3,
    ("critical qfi-min", 3, DEGENERATE): 25,
    ("critical qfi-min", 4, "qfi_min has no interior extremum in (0.0, 3.0)"): 65,
    ("critical dqfi-peak", 0, ""): 13, ("critical dqfi-peak", 3, ZEEMAN): 3,
    ("critical dqfi-peak", 3, DEGENERATE): 25,
    ("critical dqfi-peak", 4, "dqfi_peak has no interior extremum in (0.0, 3.0)"): 59,
    ("figure", 0, ""): 53, ("figure", 2, OWNED.format("fig-dbqfi")): 1,
    ("figure", 2, OWNED.format("fig-qfi")): 3, ("figure", 2, OWNED.format("fig22-threshold")): 2,
    ("figure", 3, ZEEMAN): 30, ("figure", 3, DEGENERATE): 11,
}


def cli_run(argv, capsys):
    """(exit code, stdout, stderr) of `main(argv)` in this process, with
    warnings as errors; any exception escaping main fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 3:
        assert err.startswith("numerical failure: ") and " at J=" in err, (argv, err)
    return code, out, err


def cli_kind(code: int, err: str) -> str:
    """The message of a failing run without its prefix and its point."""
    return err.partition(": ")[2].split(" at J=")[0].strip() if code else ""


def csv_shape(path: str) -> tuple[int, int]:
    """(rows after the header, columns) of a CSV the CLI wrote."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[-1] == "" and len({line.count(",") for line in lines[:-1]}) == 1, path
    return len(lines) - 2, lines[0].count(",") + 1


def settings(p: ModelParams, *skip: str) -> list[str]:
    return [f"--set={k}={v!r}" for k, v in vars(p).items() if k not in skip]


def test_cli_over_the_whole_range(tmp_path, capsys):
    histogram = collections.Counter()
    draws = whole_range_draws(CLI_SEED, CLI_DRAWS)
    out_csv = str(tmp_path / "sweep.csv")
    for p in draws:
        t_lo, b_lo, b_hi = p.T / 2.0, min(p.B / 2.0, p.B), max(p.B / 2.0, p.B)
        runs = [("point", ["point"] + settings(p)),
                ("sweep", ["sweep"] + settings(p) + [
                    f"--set=axis=T,{t_lo!r},{p.T!r},{SWEEP_SHAPE[0]}",
                    f"--set=axis2=B,{b_lo!r},{b_hi!r},{SWEEP_SHAPE[1]}",
                    f"--set=quantities={','.join(QUANTITY_COLUMNS)}", "--out", out_csv]),
                ("threshold", ["threshold"] + settings(p, "T"))]
        runs += [(f"critical {target}", ["critical"] + settings(p, "B") + ["--target", target])
                 for target in ("max-concurrence", "qfi-min", "dqfi-peak")]
        for name, argv in runs:
            code, out, err = cli_run(argv, capsys)
            if code == 3:
                assert f"J={p.J!r}" in err, (name, p, err)
            if name == "point" and code == 0:
                assert out.count("\r\n") == 2 and len(out.split("\r\n")[1].split(",")) \
                    == POINT_COLUMNS
            elif name == "sweep" and code == 0:
                assert out == out_csv + "\n"
                assert csv_shape(out_csv) == (math.prod(SWEEP_SHAPE), POINT_COLUMNS)
            elif code == 0:
                assert out == f"{float(out):.16e}\n", (name, out)
            elif code == 4:
                assert out == ("none\n" if name == "threshold" else ""), (name, out)
            histogram[name, code, cli_kind(code, err)] += 1

    # figure: one extreme value of one of J, Delta, J0 and the g's per run
    rng = np.random.default_rng(CLI_SEED)
    presets = sorted(cli.FIGURE_PRESETS)
    for i in range(CLI_DRAWS):
        preset, key = presets[i % len(presets)], PRESET_KEYS[rng.integers(len(PRESET_KEYS))]
        value = EXTREMES[rng.integers(len(EXTREMES))]
        outdir = tmp_path / f"figure{i}"
        code, out, err = cli_run(["figure", preset, f"--set={key}={value!r}",
                                  "--out", str(outdir)], capsys)
        if code == 3:
            assert f"{key}={value!r}" in err, (preset, key, value, err)
        elif code == 0:
            _, _, curves, axis, output = cli.FIGURE_PRESETS[preset]
            paths = out.split()
            assert len(paths) == math.prod(len(values) for _, values in curves)
            columns = 3 if output[0] in PARAMS else len(PARAMS) + len(output)
            assert all(csv_shape(path) == (axis[3], columns) for path in paths), preset
        shutil.rmtree(outdir, ignore_errors=True)
        histogram["figure", code, cli_kind(code, err)] += 1
    assert dict(histogram) == CLI_HISTOGRAM
