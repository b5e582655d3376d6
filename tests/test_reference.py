"""The limit state against the benchmark's independent high-precision reference.

`perfbench/reference.py` computes the defect dimer's state from the model's
definition in mpmath, with nothing of the package (a tooling test pins that
it imports none of it).  It is loaded by path, never installed, and its
working precision, 60 digits, is set on the loaded copy only.  Over
ordinary points with B >= 0.01 every element agrees to 2e-15 absolute.  At
REFERENCE_MISS the reference's own 40 digits are wrong by 0.7, and 80 agree
with the package.  Fields below about 1e-3 at low T are not checked here:
there the host's sector-weight difference loses digits.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from conftest import REFERENCE_MISS
from impurity_chain.model import ModelParams
from impurity_chain.xfer import limit_states
from test_contract import ordinary_point

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
ELEMENTS = ("r11", "r22", "r33", "r44", "r23")
TOL = 2e-15


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DPS = 60
    return module


def worst_deviation(reference, points) -> float:
    """The largest |package - reference| over the five elements of `points`."""
    states = limit_states(*(np.array([getattr(p, k) for p in points]) for k in vars(points[0])))
    exact = [reference.elements(reference.limit_state(vars(p))) for p in points]
    exact = np.array([[e[name] for e in exact] for name in ELEMENTS])
    return float(np.abs(states - exact).max())


def test_ordinary_points_match_the_reference(reference):
    rng = np.random.default_rng(20261029)
    draws = [ModelParams(**{k: float(v) for k, v in ordinary_point(rng).items()})
             for _ in range(150)]
    points = [p for p in draws if p.B >= 0.01]
    assert len(points) > 140
    assert worst_deviation(reference, points) <= TOL


def test_reference_miss_at_80_digits(reference, monkeypatch):
    p = ModelParams(**REFERENCE_MISS)
    monkeypatch.setattr(reference, "DPS", 40)
    assert worst_deviation(reference, [p]) > 0.1
    monkeypatch.setattr(reference, "DPS", 80)
    assert worst_deviation(reference, [p]) <= TOL
