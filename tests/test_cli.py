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
from impurity_chain.model import ModelParams
from impurity_chain.xfer import XState, limit_states

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
QUANTITY_ORDER = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "qfi_dB", "favg",
                  "cout", "rho_elements")
B_STAR = 1.0 / ((5.0 - 1.1) * 0.2)


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


class TestRunPoint:
    def test_infinite_temperature_point(self):
        p = ModelParams(**STANDARD, gamma=-0.8, B=0.9, T=1e12)
        rec = run_point(p, ("concurrence", "coherence", "favg"))
        assert rec.values["concurrence"] == 0.0
        assert rec.values["coherence"] == pytest.approx(0.0, abs=1e-10)
        assert rec.values["favg"] == pytest.approx(0.25, abs=1e-10)

    def test_critical_point_concurrence(self):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, B=B_STAR, T=0.01)
        rec = run_point(p, ("concurrence", "cout", "rho_elements"))
        assert rec.values["concurrence"] >= 0.99
        assert rec.values["cout"] >= 0.98
        assert abs(rec.values["r23"]) == pytest.approx(0.5, abs=1e-3)

    def test_gamma_zero_equals_impurity_off(self):
        p = ModelParams(**STANDARD, Delta=0.7, J0=1.3, gamma=0.0, B=1.1, T=0.3)
        quantities = ("concurrence", "coherence", "sxsx", "szsz", "qfi",
                      "qfi_dB", "favg", "cout", "rho_elements")
        on = run_point(p, quantities, impurity=True)
        off = run_point(p, quantities, impurity=False)
        assert on.values == off.values

    def test_unknown_quantity(self):
        with pytest.raises(ConfigError):
            run_point(ModelParams(), ("magnetization",))

    def test_alt_correlator_columns(self):
        rec = run_point(ModelParams(B=0.5, T=0.5), ("sxsx", "szsz"), alt_correlators=True)
        assert "sxsx_alt" in rec.values and "szsz_alt" in rec.values
        assert rec.values["sxsx_alt"] != rec.values["sxsx"]

    def test_non_finite_detection(self, monkeypatch):
        nan_state = XState(0.5, 0.25, 0.25, float("nan"), 0.0)
        monkeypatch.setattr(cli, "impurity_density_matrix", lambda p, impurity: nan_state)
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
        # the row-template writer against csv.writer over run_point's values
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
                rec = run_point(p, quantities, alt_correlators=True)
                if not rows:
                    writer.writerow(list(cli.PARAM_COLUMNS) + list(rec.values))
                rows.append([cli._format(getattr(p, c)) for c in cli.PARAM_COLUMNS]
                            + [cli._format(v) for v in rec.values.values()])
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
            return cli._concurrence_at(ModelParams(**STANDARD, Delta=0.5, J0=1.0,
                                                   gamma=-0.8, B=1.0, T=t), True)
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
            positive = [cli._concurrence_at(replace(p, T=t), True) > 0.0 for t in temps]
            flips = [i for i in range(63) if positive[i] != positive[i + 1]]
            if not flips:
                return None
            t_lo, t_hi = temps[flips[-1]], temps[flips[-1] + 1]
            side = positive[flips[-1]]
            while t_hi - t_lo > 1e-6:
                mid = 0.5 * (t_lo + t_hi)
                if (cli._concurrence_at(replace(p, T=mid), True) > 0.0) == side:
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
        assert cli._concurrence_at(replace(revived, T=0.01), True) == 0.0
        assert cli._concurrence_at(replace(revived, T=thresholds[3] + 1e-4), True) > 0.0
        assert cli._concurrence_at(replace(entangled, T=thresholds[1] + 1e-4), True) == 0.0
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

    def test_bisection_stops_at_adjacent_floats(self):
        # a tol below the spacing of floats ends when the midpoint is an end
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        t_fine = find_threshold_temperature(p, (0.02, 2.0), tol=5e-324)
        t_th = find_threshold_temperature(p, (0.02, 2.0))
        assert abs(t_fine - t_th) < 1e-6
        below, above = (cli._concurrence_at(replace(p, T=math.nextafter(t_fine, t)), True) > 0.0
                        for t in (0.0, 3.0))
        assert below != above

    def test_bad_range(self):
        with pytest.raises(ValueError):
            find_threshold_temperature(ModelParams(), (0.0, 1.0))


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        p = ModelParams(**STANDARD, Delta=1.0, J0=1.0, gamma=-0.8, T=0.01)
        with pytest.raises(ValueError, match="tol"):
            find_critical_field(p, (0.0, 3.0), "max_concurrence", tol=tol)


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
        for name, preset in cli.FIGURE_PRESETS.items():
            if name == "fig22-threshold":
                continue
            jobs = preset(str(tmp_path), {})
            varied = {key for key in cli.PARAM_COLUMNS
                      if len({getattr(job.params, key) for job in jobs}) > 1}
            varied |= {axis[0] for job in jobs for axis in job.axes}
            assert varied == set(cli._PRESET_OWNED[name]), name
        assert not os.listdir(tmp_path)

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
        monkeypatch.setattr(cli, "impurity_density_matrix", lambda p, impurity: nan_state)
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

    @pytest.mark.parametrize("preset,key", [
        (preset, key) for preset, keys in cli._PRESET_OWNED.items() for key in keys])
    def test_figure_rejects_overrides_the_preset_sets(self, preset, key, tmp_path, capsys):
        argv = ["figure", preset, "--set", f"{key}=0.3", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key!r}" in err and f"{preset!r}" in err
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
