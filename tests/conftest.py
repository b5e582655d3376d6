import numpy as np
import pytest

from impurity_chain import ModelParams, XState


def draw_params(rng, **fixed) -> ModelParams:
    """Random valid parameter set; moderate T so enumeration stays exact."""
    draw = dict(
        J=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
        Delta=float(rng.uniform(0.0, 2.5)),
        J0=float(rng.uniform(-2.0, 2.0)),
        g1=float(rng.uniform(0.5, 2.0)),
        g2=float(rng.uniform(0.5, 6.0)),
        g3=float(rng.uniform(0.5, 6.0)),
        gamma=float(rng.uniform(-0.9, 0.5)),
        B=float(rng.uniform(0.0, 3.0)),
        T=float(rng.uniform(0.2, 3.0)),
    )
    draw.update(fixed)
    return ModelParams(**draw)


def draw_xstate(rng) -> XState:
    """Random valid X state: positive diagonal, coherence inside the PSD disc."""
    diag = rng.uniform(0.05, 1.0, size=4)
    diag /= diag.sum()
    r23 = float(rng.uniform(-1.0, 1.0) * np.sqrt(diag[1] * diag[2]))
    return XState(r11=float(diag[0]), r22=float(diag[1]),
                  r33=float(diag[2]), r44=float(diag[3]), r23=r23)


def random_grid(rng, n=121):
    """Parameter columns over the whole physical range, standard g-factors."""
    return dict(
        J=rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n),
        Delta=rng.uniform(0.0, 3.0, n),
        J0=rng.uniform(-2.0, 2.0, n),
        g1=np.full(n, 1.2), g2=np.full(n, 5.0), g3=np.full(n, 1.1),
        gamma=rng.uniform(-2.0, 2.0, n),
        B=rng.uniform(0.0, 5.0, n),
        T=np.exp(rng.uniform(np.log(0.005), np.log(3.0), n)),
    )


def whole_range_scan() -> list[ModelParams]:
    """J = +-1, J0 = +-2, Delta in {0, 1, 3}, 11 gammas in [-2, 2], 6 fields in
    [0, 5] and T in {0.005, 0.01, 0.05, 0.5}: 3,168 points."""
    return [
        ModelParams(J=j, Delta=delta, J0=j0, gamma=float(gamma), B=float(b), T=t)
        for j in (1.0, -1.0) for j0 in (2.0, -2.0) for delta in (0.0, 1.0, 3.0)
        for gamma in np.linspace(-2.0, 2.0, 11) for b in np.linspace(0.0, 5.0, 6)
        for t in (0.005, 0.01, 0.05, 0.5)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
