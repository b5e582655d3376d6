import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import impurity_chain

from impurity_chain import cli
from impurity_chain.cli import (
    ConfigError,
    NotFound,
    NonFiniteError,
    SweepConfig,
    build_params,
    build_sweep_config,
    concurrence_sign_brackets,
    find_critical_field,
    find_threshold_temperature,
    parse_config_file,
    run_figure,
    run_point,
    run_sweep,
    threshold_temperatures,
)
from impurity_chain.measures import concurrence_batch
from impurity_chain.model import ModelParams
from impurity_chain.xfer import XState, impurity_density_matrix, limit_states
from conftest import of_state

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
QUANTITY_ORDER = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "qfi_dB", "favg",
                  "cout", "rho_elements")
B_STAR = 1.0 / ((5.0 - 1.1) * 0.2)

# the parameters each figure preset sets per curve, axis value or scan point
PRESET_OWNED = [
    ("fig3", "gamma"), ("fig3", "T"), ("fig3", "B"),
    ("fig5", "gamma"), ("fig5", "B"), ("fig5", "T"),
    ("fig-qfi", "Delta"), ("fig-qfi", "B"),
    ("fig-dbqfi", "Delta"), ("fig-dbqfi", "B"),
    ("fig8", "gamma"), ("fig8", "B"), ("fig8", "T"),
    ("fig10", "gamma"), ("fig10", "T"), ("fig10", "B"),
    ("fig22-threshold", "Delta"), ("fig22-threshold", "gamma"), ("fig22-threshold", "T"),
]

# every preset's curves: the parameters it holds fixed, then (file, curve
# parameters) in file order, its axis and its quantities or threshold scan
PRESET_JOBS = {
    "fig3": (dict(Delta=0.5, J0=1.0), [
        ("fig3_gamma0_T0.01.csv", dict(gamma=0.0, T=0.01)),
        ("fig3_gamma0_T0.05.csv", dict(gamma=0.0, T=0.05)),
        ("fig3_gamma0_T0.2.csv", dict(gamma=0.0, T=0.2)),
        ("fig3_gamma-0.8_T0.01.csv", dict(gamma=-0.8, T=0.01)),
        ("fig3_gamma-0.8_T0.05.csv", dict(gamma=-0.8, T=0.05)),
        ("fig3_gamma-0.8_T0.2.csv", dict(gamma=-0.8, T=0.2)),
    ], ("B", 0.0, 3.0, 601), ("concurrence",)),
    "fig5": (dict(Delta=0.0, J0=1.0), [
        ("fig5_gamma0_B0.csv", dict(gamma=0.0, B=0.0)),
        ("fig5_gamma0_B0.5.csv", dict(gamma=0.0, B=0.5)),
        ("fig5_gamma0_B1.282.csv", dict(gamma=0.0, B=1.282)),
        ("fig5_gamma0_B2.csv", dict(gamma=0.0, B=2.0)),
        ("fig5_gamma-0.8_B0.csv", dict(gamma=-0.8, B=0.0)),
        ("fig5_gamma-0.8_B0.5.csv", dict(gamma=-0.8, B=0.5)),
        ("fig5_gamma-0.8_B1.282.csv", dict(gamma=-0.8, B=1.282)),
        ("fig5_gamma-0.8_B2.csv", dict(gamma=-0.8, B=2.0)),
    ], ("T", 0.01, 2.0, 400), ("coherence",)),
    "fig-qfi": (dict(gamma=-0.8, J0=1.0, T=0.05), [
        ("fig_qfi_Delta0.csv", dict(Delta=0.0)),
        ("fig_qfi_Delta0.5.csv", dict(Delta=0.5)),
        ("fig_qfi_Delta1.csv", dict(Delta=1.0)),
        ("fig_qfi_Delta2.csv", dict(Delta=2.0)),
    ], ("B", 0.0, 3.0, 601), ("qfi",)),
    "fig-dbqfi": (dict(gamma=-0.8, J0=1.0, T=0.05), [
        ("fig_dbqfi_Delta0.csv", dict(Delta=0.0)),
        ("fig_dbqfi_Delta0.5.csv", dict(Delta=0.5)),
        ("fig_dbqfi_Delta1.csv", dict(Delta=1.0)),
        ("fig_dbqfi_Delta2.csv", dict(Delta=2.0)),
    ], ("B", 0.0, 3.0, 601), ("qfi_dB",)),
    "fig8": (dict(Delta=0.5, J0=1.0), [
        ("fig8_gamma0_B0.csv", dict(gamma=0.0, B=0.0)),
        ("fig8_gamma0_B0.5.csv", dict(gamma=0.0, B=0.5)),
        ("fig8_gamma0_B1.282.csv", dict(gamma=0.0, B=1.282)),
        ("fig8_gamma0_B2.csv", dict(gamma=0.0, B=2.0)),
        ("fig8_gamma-0.8_B0.csv", dict(gamma=-0.8, B=0.0)),
        ("fig8_gamma-0.8_B0.5.csv", dict(gamma=-0.8, B=0.5)),
        ("fig8_gamma-0.8_B1.282.csv", dict(gamma=-0.8, B=1.282)),
        ("fig8_gamma-0.8_B2.csv", dict(gamma=-0.8, B=2.0)),
    ], ("T", 0.01, 2.0, 400), ("favg",)),
    "fig10": (dict(J=4.0, Delta=0.5, J0=1.0), [
        ("fig10_gamma0_T0.1.csv", dict(gamma=0.0, T=0.1)),
        ("fig10_gamma0_T0.6.csv", dict(gamma=0.0, T=0.6)),
        ("fig10_gamma0_T1.csv", dict(gamma=0.0, T=1.0)),
        ("fig10_gamma-0.8_T0.1.csv", dict(gamma=-0.8, T=0.1)),
        ("fig10_gamma-0.8_T0.6.csv", dict(gamma=-0.8, T=0.6)),
        ("fig10_gamma-0.8_T1.csv", dict(gamma=-0.8, T=1.0)),
    ], ("B", 0.0, 5.0, 601), ("favg",)),
    "fig22-threshold": (dict(J0=0.7, B=0.5), [
        ("fig22_threshold_gamma0.csv", dict(gamma=0.0)),
        ("fig22_threshold_gamma-0.8.csv", dict(gamma=-0.8)),
    ], ("Delta", 0.0, 2.0, 81), ("T", 0.01, 1.2)),
}


def concurrence_at(p):
    """C of one point's limit state, the finders' scalar oracle."""
    return of_state(concurrence_batch, impurity_density_matrix(p))


class TestConfigParsing:
    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "J = 1\n"
            "Delta = 0.5   # trailing comment\n"
            "gamma = -0.8\n"
            "\n"
            "axis = B 0 3 11\n"
            "quantities = concurrence, favg\n"
        )
        mapping = parse_config_file(str(path))
        cfg = build_sweep_config(mapping)
        assert cfg.params.Delta == 0.5
        assert cfg.axes == (("B", 0.0, 3.0, 11),)
        assert cfg.quantities == ("concurrence", "favg")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/nowhere.cfg")

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            build_params({"T": "warm"})

    def test_invalid_physics_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_params({"J": "0"})

    @pytest.mark.parametrize("axes", [
        (), (("B", 0.0, 3.0, 11), ("T", 0.1, 1.0, 5), ("Delta", 0.0, 2.0, 3)),
    ])
    def test_axis_count_limits(self, axes):
        with pytest.raises(ConfigError):
            SweepConfig(params=ModelParams(), axes=axes,
                        quantities=("concurrence",), out="x.csv")

    @pytest.mark.parametrize("axis", [
        ("q", 0.0, 1.0, 5), ("B", 1.0, 0.0, 5), ("B", 0.0, 1.0, 1),
    ])
    def test_axis_validation(self, axis):
        with pytest.raises(ConfigError):
            SweepConfig(params=ModelParams(), axes=(axis,),
                        quantities=("concurrence",), out="x.csv")

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            SweepConfig(params=ModelParams(), axes=(("B", 0.0, 1.0, 3),),
                        quantities=("entropy",), out="x.csv")

    def test_temperature_axis_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepConfig(params=ModelParams(), axes=(("T", 0.0, 1.0, 3),),
                        quantities=("concurrence",), out="x.csv")


# an empty, a repeated or an unknown quantity, and what the error names
BAD_QUANTITIES = [
    ((), "no quantities"),
    (("concurrence", "concurrence"), "'concurrence'"),
    (("qfi", "rho_elements", "qfi"), "'qfi'"),
    (("concurrence", "entropy"), "'entropy'"),
]


@pytest.mark.parametrize("quantities, named", BAD_QUANTITIES)
def test_bad_quantity_list(quantities, named):
    with pytest.raises(ConfigError, match=named):
        run_point(ModelParams(), quantities)
    with pytest.raises(ConfigError, match=named):
        SweepConfig(params=ModelParams(), axes=(("B", 0.0, 1.0, 3),),
                    quantities=quantities, out="x.csv")


class TestRunPoint:
    def test_infinite_temperature_point(self):
        p = ModelParams(**STANDARD, gamma=-0.8, B=0.9, T=1e12)
        values = run_point(p, ("concurrence", "coherence", "favg"))
        assert values["concurrence"] == 0.0
        assert values["coherence"] == pytest.approx(0.0, abs=1e-10)
        assert values["favg"] == pytest.approx(0.25, abs=1e-10)

    def test_critical_point_concurrence(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=B_STAR, T=0.01)
        values = run_point(p, ("concurrence", "cout", "rho_elements"))
        assert values["concurrence"] >= 0.99
        assert values["cout"] >= 0.98
        assert abs(values["r23"]) == pytest.approx(0.5, abs=1e-3)

    def test_gamma_zero_equals_impurity_off(self, capsys):
        printed = []
        for impurity in ("on", "off"):
            assert cli.main(["point", "--set", "Delta=0.7", "--set", "J0=1.3",
                             "--set", "gamma=0", "--set", "B=1.1", "--set", "T=0.3",
                             "--set", f"impurity={impurity}"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            run_point(ModelParams(), ("magnetization",))

    def test_alt_correlator_columns(self):
        values = run_point(ModelParams(B=0.5, T=0.5), ("sxsx", "szsz"), alt_correlators=True)
        assert "sxsx_alt" in values and "szsz_alt" in values
        assert values["sxsx_alt"] != values["sxsx"]

    def test_non_finite_detection(self, monkeypatch):
        nan_state = XState(0.5, 0.25, 0.25, float("nan"), 0.0)
        monkeypatch.setattr(cli, "limit_states", lambda **kw: nan_state.column())
        with pytest.raises(NonFiniteError):
            run_point(ModelParams(), ("rho_elements",))


class TestRunSweep:
    def make_config(self, tmp_path, name="sweep.csv", **kw):
        defaults = dict(
            params=ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, T=0.2),
            axes=(("B", 0.0, 2.0, 4), ("T", 0.1, 0.5, 3)),
            quantities=("concurrence", "favg"),
            out=str(tmp_path / name),
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_grid_cardinality_and_order(self, tmp_path):
        cfg = self.make_config(tmp_path)
        path = run_sweep(cfg)
        lines = open(path).read().splitlines()
        assert len(lines) == 1 + 4 * 3
        assert lines[0].split(",")[:3] == ["J", "Delta", "J0"]
        b_col = [float(line.split(",")[7]) for line in lines[1:]]
        t_col = [float(line.split(",")[8]) for line in lines[1:]]
        assert b_col == sorted(b_col)
        assert t_col[:3] == sorted(t_col[:3])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = self.make_config(tmp_path, name="a.csv")
        cfg2 = self.make_config(tmp_path, name="b.csv")
        run_sweep(cfg1)
        run_sweep(cfg2)
        assert open(cfg1.out, "rb").read() == open(cfg2.out, "rb").read()

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg1 = self.make_config(tmp_path, name="serial.csv")
        cfg2 = self.make_config(tmp_path, name="parallel.csv")
        run_sweep(cfg1, workers=1)
        run_sweep(cfg2, workers=2)
        assert open(cfg1.out, "rb").read() == open(cfg2.out, "rb").read()

    def test_gamma_zero_matches_homogeneous_model(self, tmp_path):
        base = ModelParams(**STANDARD, Delta=0.7, J0=1.0, gamma=0.0, T=0.15)
        quantities = ("concurrence", "coherence", "favg", "rho_elements")
        cfg_on = self.make_config(tmp_path, name="on.csv", params=base,
                                  quantities=quantities, impurity=True)
        cfg_off = self.make_config(tmp_path, name="off.csv", params=base,
                                   quantities=quantities, impurity=False)
        run_sweep(cfg_on)
        run_sweep(cfg_off)
        assert open(cfg_on.out, "rb").read() == open(cfg_off.out, "rb").read()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # the row-template writer against csv.writer over run_point's columns
        quantities = list(QUANTITY_ORDER)
        out = str(tmp_path / "all.csv")
        code = cli.main(["sweep", "--set", "J=-1.3", "--set", "gamma=-0.6",
                         "--set", "Delta=0.4", "--set", "J0=-0.9",
                         "--set", "axis=B 0 2 7", "--set", "axis2=T 0.05 1 4",
                         "--set", "quantities=" + ",".join(quantities),
                         "--debug-paper-correlators", "--out", out])
        assert code == 0
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        rows = []
        for i in range(7):
            for j in range(4):
                p = ModelParams(**STANDARD, J=-1.3, Delta=0.4, J0=-0.9, gamma=-0.6,
                                B=0.0 + (2.0 - 0.0) * i / 6, T=0.05 + (1.0 - 0.05) * j / 3)
                values = run_point(p, quantities, alt_correlators=True)
                if not rows:
                    writer.writerow(list(cli.PARAM_COLUMNS) + list(values))
                rows.append([cli._format(getattr(p, c)) for c in cli.PARAM_COLUMNS]
                            + [cli._format(v) for v in values.values()])
        writer.writerows(rows)
        assert open(out, "rb").read() == expected.getvalue().encode()

    def test_manifest_written(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run_sweep(cfg)
        manifest = open(cfg.out + ".manifest.txt").read()
        assert "impurity-chain" in manifest
        assert "gamma = -0.8" in manifest
        assert "axis1 = B" in manifest


class TestThresholdFinder:
    def test_threshold_contract(self):
        # defect chain at moderate field: entangled at low T, dead at high T
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        t_th = find_threshold_temperature(p, (0.02, 2.0))
        assert t_th is not None

        def c_at(t):
            return concurrence_at(ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8,
                                              B=1.0, T=t))
        assert c_at(t_th - 1e-4) > 0.0
        assert c_at(t_th + 1e-4) == 0.0

    def test_deeply_disentangled_returns_none(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=0.0, B=50.0, T=0.5)
        assert find_threshold_temperature(p, (0.1, 2.0)) is None

    def test_bracket_counter(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        assert concurrence_sign_brackets(p, (0.02, 2.0)) == 1

    def test_brackets_from_the_finder_scan(self):
        for gamma in (0.0, -0.8):
            p = ModelParams(**STANDARD, Delta=0.6, J0=0.7, gamma=gamma, B=0.5, T=0.05)
            (t_th,), (n,) = threshold_temperatures([p], (0.01, 1.2))
            assert t_th == find_threshold_temperature(p, (0.01, 1.2))
            assert n == concurrence_sign_brackets(p, (0.01, 1.2))

    def test_lockstep_bisection_matches_scalar_bisection_on_fig22_rows(self):
        # every fig22 row, batched, against a one-point-at-a-time bisection
        # of the last coarse bracket through the one-point API
        t_range = (0.01, 1.2)
        temps = [0.01 + (1.2 - 0.01) * i / 63 for i in range(64)]

        def scalar_threshold(p):
            positive = [concurrence_at(replace(p, T=t)) > 0.0 for t in temps]
            flips = [i for i in range(63) if positive[i] != positive[i + 1]]
            if not flips:
                return None
            t_lo, t_hi = temps[flips[-1]], temps[flips[-1] + 1]
            side = positive[flips[-1]]
            while t_hi - t_lo > 1e-6:
                mid = 0.5 * (t_lo + t_hi)
                if (concurrence_at(replace(p, T=mid)) > 0.0) == side:
                    t_lo = mid
                else:
                    t_hi = mid
            return 0.5 * (t_lo + t_hi)

        for gamma in (0.0, -0.8):
            rows = [ModelParams(**STANDARD, Delta=2.0 * i / 80.0, J0=0.7, gamma=gamma,
                                B=0.5, T=0.05) for i in range(81)]
            thresholds, counts = threshold_temperatures(rows, t_range)
            assert thresholds == [scalar_threshold(p) for p in rows]
            assert counts == [concurrence_sign_brackets(p, t_range) for p in rows]
            assert any(t is not None for t in thresholds)

    def test_batch_mixes_rows_with_and_without_brackets(self):
        entangled = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        # C > 0 over the whole range: no bracket
        unbracketed = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=0.0, B=5.0, T=0.5)
        # C = 0 at the lowest temperatures and positive above: the last
        # bracket goes from zero to positive, the other way round
        revived = ModelParams(**STANDARD, J=-1.0, Delta=2.0, J0=1.0, gamma=0.5, B=3.9, T=0.1)
        rows = [unbracketed, entangled, unbracketed, revived, unbracketed,
                replace(entangled, Delta=1.5), unbracketed]
        t_range = (0.01, 2.0)
        thresholds, counts = threshold_temperatures(rows, t_range)
        assert thresholds[0::2] == [None] * 4
        assert counts[0::2] == [0] * 4
        for i in (1, 3, 5):
            assert counts[i] >= 1
            assert thresholds[i] == find_threshold_temperature(rows[i], t_range)
        assert concurrence_at(replace(revived, T=0.01)) == 0.0
        assert concurrence_at(replace(revived, T=thresholds[3] + 1e-4)) > 0.0
        assert concurrence_at(replace(entangled, T=thresholds[1] + 1e-4)) == 0.0
        assert threshold_temperatures([], t_range) == ([], [])

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        with pytest.raises(ValueError, match="tol"):
            threshold_temperatures([p], (0.02, 2.0), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            find_threshold_temperature(p, (0.02, 2.0), tol=tol)

    @pytest.mark.parametrize("points", [0, 1])
    def test_scan_needs_two_temperatures(self, points):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        with pytest.raises(ConfigError, match="points_per_scan"):
            threshold_temperatures([p], (0.02, 2.0), points_per_scan=points)
        with pytest.raises(ConfigError, match="points_per_scan"):
            find_threshold_temperature(p, (0.02, 2.0), points=points)
        with pytest.raises(ConfigError, match="points_per_scan"):
            concurrence_sign_brackets(p, (0.02, 2.0), points=points)

    def test_bisection_stops_at_adjacent_floats(self):
        # a tol below the spacing of floats ends when the midpoint is an end
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        t_fine = find_threshold_temperature(p, (0.02, 2.0), tol=5e-324)
        t_th = find_threshold_temperature(p, (0.02, 2.0))
        assert abs(t_fine - t_th) < 1e-6
        below, above = (concurrence_at(replace(p, T=math.nextafter(t_fine, t))) > 0.0
                        for t in (0.0, 3.0))
        assert below != above

    def test_bad_range(self):
        with pytest.raises(ValueError):
            find_threshold_temperature(ModelParams(), (0.0, 1.0))

    @pytest.mark.parametrize("t_range", [(0.01, math.inf), (math.nan, 1.0), (1.0, 0.5),
                                         (-1.0, 1.0)])
    def test_range_must_be_finite_and_increasing(self, t_range):
        with pytest.raises(ConfigError, match="temperature range"):
            threshold_temperatures([ModelParams()], t_range)
        with pytest.raises(ConfigError, match="temperature range"):
            concurrence_sign_brackets(ModelParams(), t_range)


class TestCriticalFieldFinder:
    def test_concurrence_maximum_matches_level_crossing(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01)
        b = find_critical_field(p, (0.0, 3.0), "max_concurrence", tol=1e-5)
        assert b == pytest.approx(B_STAR, abs=1e-3)

    def test_smaller_nodal_coupling_shifts_crossing(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=0.7, gamma=-0.8, T=0.01)
        b = find_critical_field(p, (0.0, 3.0), "max_concurrence", tol=1e-5)
        assert b == pytest.approx(0.7 / (3.9 * 0.2), abs=1e-3)

    def test_qfi_minimum_at_crossing(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, T=0.05)
        b = find_critical_field(p, (0.5, 2.0), "qfi_min", tol=1e-4)
        assert b == pytest.approx(B_STAR, abs=5e-3)

    def test_monotone_scan_raises(self):
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, T=0.05)
        with pytest.raises(NotFound):
            find_critical_field(p, (2.0, 3.0), "max_concurrence")

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            find_critical_field(ModelParams(), (0.0, 1.0), "entropy_peak")

    @pytest.mark.parametrize("b_range", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                         (1.0, 1.0)])
    def test_range_must_be_finite_and_increasing(self, b_range):
        with pytest.raises(ConfigError, match="field range"):
            find_critical_field(ModelParams(), b_range, "max_concurrence")

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01)
        with pytest.raises(ValueError, match="tol"):
            find_critical_field(p, (0.0, 3.0), "max_concurrence", tol=tol)

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_scan_needs_an_interior_field(self, points):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01)
        with pytest.raises(ConfigError, match="points"):
            find_critical_field(p, (0.0, 3.0), "max_concurrence", points=points)


class TestFigurePresets:
    def test_qfi_preset_files(self, tmp_path):
        paths = run_figure("fig-qfi", str(tmp_path), {})
        assert len(paths) == 4
        for path in paths:
            lines = open(path).read().splitlines()
            assert len(lines) == 602
            assert os.path.exists(path + ".manifest.txt")

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_figure("fig99", str(tmp_path), {})

    def test_preset_override(self, tmp_path):
        paths = run_figure("fig3", str(tmp_path), {"Delta": 2.0})
        manifest = open(paths[0] + ".manifest.txt").read()
        assert "Delta = 2.0" in manifest

    def test_owned_keys_are_what_each_sweep_preset_varies(self, tmp_path):
        # the parameters a sweep preset sets per curve or axis, read from its jobs
        for name in cli.FIGURE_PRESETS:
            owned = {key for preset, key in PRESET_OWNED if preset == name}
            assert cli._owned_keys(name) == owned, name
            if name == "fig22-threshold":
                continue
            jobs = cli._preset_jobs(name, str(tmp_path), {})
            varied = {key for key in cli.PARAM_COLUMNS
                      if len({getattr(params, key) for params, _ in jobs}) > 1}
            varied.add(cli.FIGURE_PRESETS[name][3][0])
            assert varied == owned, name
        assert not os.listdir(tmp_path)

    def test_preset_jobs_are_pinned(self, tmp_path):
        assert list(cli.FIGURE_PRESETS) == list(PRESET_JOBS)
        for name, (fixed, curves, axis, output) in PRESET_JOBS.items():
            jobs = cli._preset_jobs(name, str(tmp_path), {})
            assert jobs == [(ModelParams(**fixed, **curve), str(tmp_path / file))
                            for file, curve in curves], name
            assert cli.FIGURE_PRESETS[name][3:] == (axis, output), name
        assert not os.listdir(tmp_path)

    def test_threshold_preset_writes_its_pinned_files(self, tmp_path):
        written = run_figure("fig22-threshold", str(tmp_path), {})
        curves = PRESET_JOBS["fig22-threshold"][1]
        assert written == [str(tmp_path / file) for file, _ in curves]
        for path in written:
            with open(path, newline="") as fh:
                lines = fh.readlines()
            assert lines[0] == "Delta,T_threshold,n_brackets\r\n"
            assert len(lines) == 82

    def test_fig22_kernel_calls_stay_within_a_sweep_size(self, tmp_path, monkeypatch):
        sizes = []

        def recording(**kwargs):
            sizes.append(len(kwargs["T"]))
            return limit_states(**kwargs)

        monkeypatch.setattr(cli, "limit_states", recording)
        run_figure("fig22-threshold", str(tmp_path), {})
        # 162 rows of 64 temperatures in blocks of 9 rows, then 15 lockstep
        # bisection steps from a bracket of 1.19/63 down to 1e-6
        assert sizes[:18] == [576] * 18
        assert len(sizes) == 33
        assert max(sizes) <= 601


class TestMainEntry:
    def test_point_to_stdout(self, capsys):
        code = cli.main(["point", "--set", "B=1.282051282051282", "--set", "T=0.01",
                         "--set", "gamma=-0.8", "--set", "quantities=concurrence"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("concurrence")
        assert float(out[1].split(",")[-1]) >= 0.99

    def test_sweep_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        code = cli.main(["sweep", "--set", "axis=B 0 1 5", "--set", "T=0.3",
                         "--set", "quantities=concurrence", "--out", out])
        assert code == 0
        assert len(open(out).read().splitlines()) == 6

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["sweep", "--set", "T=-1", "--set", "axis=B 0 1 5"]) == 2

    def test_threshold_none_exit_code(self, capsys):
        code = cli.main(["threshold", "--set", "B=50", "--set", "gamma=0",
                         "--t-min", "0.1", "--t-max", "1.0"])
        assert code == 4
        assert capsys.readouterr().out.strip() == "none"

    def test_threshold_found(self, capsys):
        code = cli.main(["threshold", "--set", "B=1.0", "--set", "gamma=-0.8",
                         "--set", "Delta=0.5", "--t-min", "0.02", "--t-max", "2.0"])
        assert code == 0
        assert float(capsys.readouterr().out) > 0.02

    def test_critical_found(self, capsys):
        code = cli.main(["critical", "--set", "gamma=-0.8", "--set", "T=0.01",
                         "--b-min", "0", "--b-max", "3", "--target", "max-concurrence"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(B_STAR, abs=1e-3)

    def test_critical_not_found_exit_code(self, capsys):
        code = cli.main(["critical", "--set", "gamma=-0.8", "--set", "T=0.05",
                         "--b-min", "2.0", "--b-max", "3.0",
                         "--target", "max-concurrence"])
        assert code == 4

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        nan_state = XState(0.5, 0.25, 0.25, float("nan"), 0.0)
        monkeypatch.setattr(cli, "limit_states", lambda **kw: nan_state.column())
        code = cli.main(["point", "--set", "quantities=rho_elements"])
        assert code == 3

    def test_debug_correlator_flag(self, capsys):
        code = cli.main(["point", "--set", "B=0.5", "--set", "T=0.5",
                         "--set", "quantities=sxsx", "--debug-paper-correlators"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "sxsx_alt" in header and "szsz_alt" in header

    def test_bad_delta_b_exit_code(self, capsys):
        assert cli.main(["point", "--set", "delta_b=abc"]) == 2
        assert "delta_b" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, capsys):
        code = cli.main(["point", "--set", "gama=-0.8", "--set", "B=1", "--set", "T=0.1"])
        assert code == 2
        assert "'gama'" in capsys.readouterr().err

    def test_impurity_off_evaluates_gamma_zero(self, tmp_path, capsys):
        # gamma = -0.8 is configured and written, the homogeneous chain (gamma = 0)
        # is evaluated
        fixed = ["--set", "Delta=0.5", "--set", "J0=0.7"]
        n, g = len(cli.PARAM_COLUMNS), cli.PARAM_COLUMNS.index("gamma")

        def run(command, *argv):
            assert cli.main([command, *fixed, *argv]) == 0
            return capsys.readouterr().out

        off = run("point", "--set", "B=0.5", "--set", "T=0.1", "--set", "gamma=-0.8",
                  "--set", "impurity=off").splitlines()[1].split(",")
        zero = run("point", "--set", "B=0.5", "--set", "T=0.1").splitlines()[1].split(",")
        assert off[n:] == zero[n:] and float(off[g]) == -0.8

        quantities = "--set", "quantities=" + ",".join(QUANTITY_ORDER)
        run("sweep", "--set", "T=0.1", "--set", "impurity=off", "--set", "axis=gamma -0.8 0.4 4",
            "--set", "axis2=B 0 2 3", *quantities, "--out", str(tmp_path / "off.csv"))
        run("sweep", "--set", "T=0.1", "--set", "axis=B 0 2 3", *quantities,
            "--out", str(tmp_path / "zero.csv"))
        off, zero = ([line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
                     for name in ("off.csv", "zero.csv"))
        assert [row[n:] for row in off] == [row[n:] for row in zero] * 4
        assert [float(row[g]) for row in off[::3]] == pytest.approx([-0.8, -0.4, 0.0, 0.4])
        assert "impurity = off" in (tmp_path / "off.csv.manifest.txt").read_text().splitlines()

        for argv in (["threshold", "--set", "B=1.0"],
                     ["critical", "--set", "T=0.05", "--target", "dqfi-peak"]):
            assert run(*argv, "--set", "gamma=-0.8", "--set", "impurity=off") == run(*argv)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B 0 1 3", "--out"],
        ["point", "--out"],
        ["figure", "fig3", "--out"],
        ["figure", "fig22-threshold", "--out"],
    ])
    def test_unwritable_output_path_exit_code(self, argv, tmp_path, capsys, monkeypatch):
        # the output directory is made, or rejected, before the kernel runs
        def kernel(**_):
            raise AssertionError("the kernel ran before the output path was checked")

        monkeypatch.setattr(cli, "limit_states", kernel)
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = str(blocker if argv[0] == "figure" else blocker / "x.csv")
        assert cli.main(argv + [out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and out in captured.err
        assert "Traceback" not in captured.err and not captured.out

        # an output file that is an existing directory: for a figure, its first CSV
        out = tmp_path / "D"
        target = out / PRESET_JOBS[argv[1]][1][0][0] if argv[0] == "figure" else out
        target.mkdir(parents=True)
        assert cli.main(argv + [str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and str(target) in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("quantities, named", BAD_QUANTITIES)
    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B,0,1,3", "--out"],
        ["point", "--out"],
        ["point"],
    ])
    def test_bad_quantity_list_exit_code(self, argv, quantities, named, tmp_path, capsys):
        if argv[-1] == "--out":
            argv = argv + [str(tmp_path / "sub" / "X.csv")]
        assert cli.main(argv + ["--set", "quantities=" + ",".join(quantities)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and named in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert not os.listdir(tmp_path)

    def test_library_exception_exit_code(self, capsys):
        code = cli.main(["point", "--set", "T=1e-310", "--set", "B=1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "T=1e-310" in err and "B=1.0" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_critical_bad_tol_exit_code(self, tol, capsys):
        code = cli.main(["critical", "--set", "gamma=-0.8", "--set", "T=0.01",
                         "--b-min", "0", "--b-max", "3", "--tol", tol])
        assert code == 2
        assert "tol" in capsys.readouterr().err

    def test_critical_passes_delta_b(self, capsys):
        printed = []
        for delta_b in ("1e-3", "0.2"):
            code = cli.main(["critical", "--target", "dqfi-peak", "--set", "gamma=-0.8",
                             "--set", "T=0.05", "--set", f"delta_b={delta_b}"])
            assert code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] != printed[1]

    @pytest.mark.parametrize("argv", [
        ["figure", "fig3", "--set", "impurity=off"],
        ["figure", "fig3", "--set", "quantities=qfi"],
        ["figure", "fig3", "--set", "axis=T 0 1 3"],
        ["threshold", "--set", "out=x.csv"],
        ["threshold", "--set", "T=0.3"],
        ["critical", "--set", "B=1.0"],
        ["critical", "--set", "quantities=qfi"],
        ["point", "--set", "out=x.csv"],
        ["point", "--set", "axis=B 0 1 3"],
    ])
    def test_keys_a_subcommand_does_not_use_exit_code(self, argv, tmp_path, capsys):
        if argv[0] == "figure":
            argv = argv + ["--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        key = argv[argv.index("--set") + 1].split("=")[0]
        assert f"{key!r}" in err and f"{argv[0]!r}" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("preset,key", PRESET_OWNED)
    def test_figure_rejects_overrides_the_preset_sets(self, preset, key, tmp_path, capsys):
        argv = ["figure", preset, "--set", f"{key}=0.3", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key!r}" in err and f"{preset!r}" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["threshold", "--t-max", "inf"],
        ["sweep", "--set", "axis=T,0.1,inf,3"],
        ["critical", "--b-max", "inf"],
        ["critical", "--set", "delta_b=inf"],
        ["point", "--set", "B=inf"],
        ["point", "--set", "J=nan"],
        ["point", "--set", "gamma=inf"],
        ["figure", "fig3", "--set", "Delta=inf"],
    ])
    def test_non_finite_input_exit_code(self, argv, tmp_path, capsys):
        if argv[0] in ("sweep", "figure"):
            argv = argv + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert "Traceback" not in captured.err and not captured.out
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B 0 1 3", "--workers", "0"],
        ["sweep", "--set", "axis=B 0 1 3", "--workers", "-4"],
        ["figure", "fig3", "--workers", "0"],
    ])
    def test_workers_below_one_exit_code(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "impurity_chain.cli", "point",
         "--set", "gamma=-0.8", "--set", "B=1.282", "--set", "T=0.01"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("J,Delta,J0")
