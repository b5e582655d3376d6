import argparse
import ast
import contextlib
import csv
import dataclasses
import inspect
import io
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import impurity_chain

from impurity_chain import cli, model, xfer
from impurity_chain.cli import (
    ConfigError,
    NotFound,
    NonFiniteError,
    SweepConfig,
    build_sweep_config,
    concurrence_sign_brackets,
    find_critical_field,
    find_threshold_temperature,
    parse_config_file,
    run_figure,
    run_point,
    run_sweep,
)
from impurity_chain.measures import concurrence_batch
from impurity_chain.model import DELTA_B, ModelParams
from impurity_chain.xfer import XState, impurity_density_matrix
from conftest import VANISHED_SECTORS, of_state

STANDARD = dict(g1=1.2, g2=5.0, g3=1.1)
QUANTITY_ORDER = ("concurrence", "coherence", "sxsx", "szsz", "qfi", "qfi_dB", "favg",
                  "cout", "rho_elements")
B_STAR = 1.0 / ((5.0 - 1.1) * 0.2)


def parsed(*argv) -> dict:
    """The configuration values of a CLI command line, parsed as main parses them."""
    return cli._collect_mapping(cli._PARSER.parse_args(argv))


def record_kernel_calls(monkeypatch) -> list:
    """The arguments of every kernel call from here on."""
    calls, kernel = [], xfer._kernel

    def recording(args, ring=None):
        calls.append(args)
        return kernel(args, ring)

    monkeypatch.setattr(xfer, "_kernel", recording)
    return calls


def record_formatted(monkeypatch, writes: list | None = None) -> list:
    """The input array of every _format_array call from here on; with
    `writes`, also the paths of every _write_csv call, appended to it."""
    calls, format_array, write_csv = [], cli._format_array, cli._write_csv

    def recording(x):
        calls.append(x.copy())
        return format_array(x)

    def recording_writer(paths, header, columns):
        writes.append(list(paths))
        return write_csv(paths, header, columns)

    monkeypatch.setattr(cli, "_format_array", recording)
    if writes is not None:
        monkeypatch.setattr(cli, "_write_csv", recording_writer)
    return calls


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


def thresholds_of(points, t_range):
    """fig22's threshold core, cli._thresholds, at ModelParams points."""
    return cli._thresholds(cli._grid(list(points), ()), t_range)


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
        cfg = build_sweep_config(parsed("sweep", "--config", str(path)))
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

    def test_a_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # as Windows Notepad writes it before the first key
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "run.cfg"
            path.write_bytes(mark + b"B = 0.5\nT = 0.1\n")
            assert cli.main(["point", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parsed("point", "--set", "T=warm")

    def test_invalid_physics_becomes_config_error(self):
        with pytest.raises(ConfigError):
            cli._point(parsed("point", "--set", "J=0"))

    @pytest.mark.parametrize("axes", [
        (), (("B", 0.0, 3.0, 11), ("T", 0.1, 1.0, 5), ("Delta", 0.0, 2.0, 3)),
    ])
    def test_axis_count_limits(self, axes):
        with pytest.raises(ConfigError):
            SweepConfig(params=ModelParams(), axes=axes,
                        quantities=("concurrence",), out="x.csv")

    @pytest.mark.parametrize("axis", [
        ("q", 0.0, 1.0, 5), ("B", 1.0, 0.0, 5), ("B", 0.0, 1.0, 1),
        ("B", 0.0, 1e306, 601), ("B", -1e308, 1e308, 3),
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
        monkeypatch.setattr(xfer, "_kernel", lambda args, ring=None: (nan_state.column(), None))
        # the point is named as every other numerical failure names it
        point = ", ".join(f"{k}={v!r}" for k, v in vars(ModelParams()).items())
        with pytest.raises(NonFiniteError, match=re.escape(f"non-finite ['r44'] at {point}")):
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

    def test_temperature_first_grid(self, tmp_path, monkeypatch):
        # a T x B sweep takes the kernel's temperature-free algebra once per
        # field B, not once per point, and each row has its point's bytes
        cfg = self.make_config(tmp_path, axes=(("T", 0.05, 1.5, 25), ("B", 0.0, 3.0, 37)),
                               quantities=QUANTITY_ORDER)
        calls = record_kernel_calls(monkeypatch)
        run_sweep(cfg)
        assert len(calls) == 6 and all(np.broadcast(*args[:-1]).shape == (1, 37)
                                       for args in calls)
        lines = open(cfg.out, newline="").read().split("\r\n")[1:-1]
        assert len(lines) == 25 * 37
        for line in lines:
            fields = line.split(",")
            p = replace(cfg.params, T=float(fields[8]), B=float(fields[7]))
            row = list(vars(p).values()) + list(run_point(p, QUANTITY_ORDER).values())
            assert line == ",".join(map(cli._format, row))

    def test_grid_kernel_calls_take_whole_rows(self, tmp_path, monkeypatch):
        # a 41 x 21 B x T sweep: 28 rows of 21 temperatures a call, then 13
        quantities = tuple(q for q in QUANTITY_ORDER if q != "qfi_dB")
        cfg = self.make_config(tmp_path, axes=(("B", 0.0, 3.0, 41), ("T", 0.02, 1.5, 21)),
                               quantities=quantities)
        calls = record_kernel_calls(monkeypatch)
        run_sweep(cfg)
        assert [np.broadcast(*args).size for args in calls] == [588, 273]

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

    def test_workers_start_no_process(self, tmp_path, monkeypatch):
        # a pool that cannot be made: any --workers value must run in-process
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a sweep started a process pool")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", NoPool)
        serial = self.make_config(tmp_path, name="serial.csv", axes=(("B", 0.0, 1.0, 5),))
        many = self.make_config(tmp_path, name="many.csv", axes=(("B", 0.0, 1.0, 5),))
        run_sweep(serial, workers=1)
        run_sweep(many, workers=64)
        assert open(serial.out, "rb").read() == open(many.out, "rb").read()

    @pytest.mark.parametrize("cpus, workers, processes", [
        (4, 64, 4), (8, 64, 5), (None, 64, 1), (8, 3, 3),
    ])
    def test_pool_is_bounded_by_chunks_and_cpus(self, cpus, workers, processes, tmp_path,
                                                monkeypatch):
        # `processes` is the pool size a 5-point grid once asked for with this
        # CPU count and --workers value; the bound is now zero processes
        asked = []

        class RecordingPool:
            def __init__(self, *args, **kwargs):
                asked.append((args, kwargs))
                raise AssertionError("a sweep started a process pool")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        serial = self.make_config(tmp_path, name="serial.csv", axes=(("B", 0.0, 1.0, 5),))
        pooled = self.make_config(tmp_path, name="pooled.csv", axes=(("B", 0.0, 1.0, 5),))
        run_sweep(serial, workers=1)
        run_sweep(pooled, workers=workers)
        assert asked == [], f"a pool was asked for (once {processes} processes)"
        assert open(serial.out, "rb").read() == open(pooled.out, "rb").read()

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
        # the vectorised block writer against csv.writer over run_point's columns
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

    def test_manifest_records_the_debug_correlators_only_when_on(self, tmp_path, capsys):
        argv = ["sweep", "--set", "axis=B 0 1 3", "--set", "quantities=sxsx"]
        for name, flag in (("off", []), ("on", ["--debug-paper-correlators"])):
            assert cli.main(argv + flag + ["--out", str(tmp_path / f"{name}.csv")]) == 0
        off, on = ((tmp_path / f"{name}.csv.manifest.txt").read_text().splitlines()
                   for name in ("off", "on"))
        flag = "debug_paper_correlators = on"
        # the flag's columns are in the CSV and its line in the manifest, after the quantities
        assert "sxsx_alt" in (tmp_path / "on.csv").read_text().splitlines()[0]
        assert on[on.index("quantities = sxsx") + 1] == flag
        assert [line for line in on if line != flag] == [
            line.replace("off.csv", "on.csv") for line in off]
        assert not any(line.startswith("debug_paper_correlators") for line in off)


class TestCsvWriter:
    @staticmethod
    def formatted(values):
        """_format_array's rows of `values`, null padding dropped, one per line."""
        text = cli._format_array(np.asarray(values, dtype=float))
        lines = np.concatenate([text, np.full((len(text), 1), ord("\n"), np.uint8)], axis=1)
        return lines[lines != 0].tobytes().decode().splitlines()

    def test_format_array_equals_percent_format(self):
        rng = np.random.default_rng(20161)
        bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64)
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        neighbours = [np.nextafter(np.nextafter(p, side), side) for p in powers
                      for side in (0.0, np.inf)]
        neighbours += [np.nextafter(p, side) for p in powers for side in (0.0, np.inf)]
        # every binade edge, where the estimate ((e - 1) 78913) >> 18 of the
        # decimal exponent is one below it or not
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        edges = [np.nextafter(twos, 0.0), twos, np.nextafter(twos, np.inf)]
        # exact ties, which %.16e rounds to even, take the fallback
        ties = [1.0 + 2.0 ** -17, 1.0 + 3 * 2.0 ** -17, 1.5 + 2.0 ** -17, 0.5 + 2.0 ** -18]
        special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-100, 1e100]
        signed = np.concatenate([powers, neighbours, ties, special, *edges])
        values = np.concatenate([bits[np.isfinite(bits)], signed, -signed])
        got = self.formatted(values)
        expected = ["%.16e" % v for v in values.tolist()]
        wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
        assert len(got) == len(expected) and not wrong, wrong[:5]

    def test_ties_take_the_fallback_and_round_to_even(self, monkeypatch):
        fallback = []
        monkeypatch.setattr(cli, "_format", lambda v: fallback.append(v) or f"{v:.16e}")
        values = [1.0 + 2.0 ** -17, 1.0 + 3 * 2.0 ** -17, 1.0, 0.0, -0.0, 1e-300, 1e20,
                  float("inf"), float("nan")]
        assert self.formatted(values) == [
            "1.0000076293945312e+00", "1.0000228881835938e+00", "1.0000000000000000e+00",
            "0.0000000000000000e+00", "-0.0000000000000000e+00", "1.0000000000000000e-300",
            "1.0000000000000000e+20", "inf", "nan"]
        assert fallback[:2] == values[:2] and len(fallback) == 4

    def test_preset_csvs_equal_csv_writer_over_their_fields(self, tmp_path):
        # every number re-parsed and re-formatted by _format, the %d counts
        # and empty cells as they are
        for name in cli.FIGURE_PRESETS:
            for path in run_figure(name, str(tmp_path), {}):
                raw = open(path, "rb").read()
                rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
                expected = io.StringIO(newline="")
                writer = csv.writer(expected)
                writer.writerow(rows[0])
                writer.writerows([[cli._format(float(f)) if "e" in f else f for f in row]
                                  for row in rows[1:]])
                assert raw == expected.getvalue().encode(), path

    def test_a_text_only_table(self, tmp_path):
        # no float column: blocks are counted in rows
        expected = "a,b\r\nx,1\r\ny,22\r\n"
        columns = [np.array([b"x", b"y"]), np.array([b"1", b"22"])]
        stream = io.StringIO(newline="")
        with contextlib.redirect_stdout(stream):
            cli._write_csv([None], ("a", "b"), columns)
        assert stream.getvalue() == expected
        cli._write_csv([str(tmp_path / "t.csv")], ("a", "b"), columns)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_constants_go_into_the_row_template(self, tmp_path):
        rows = 2 * cli._BLOCK_NUMBERS + 1  # three blocks of one float column
        values = np.arange(rows) / 7.0
        cli._write_csv([str(tmp_path / "c.csv")], ("k", "v", "n"), [b"const", values, b"-"])
        assert (tmp_path / "c.csv").read_bytes() == ("k,v,n\r\n" + "".join(
            f"const,{v:.16e},-\r\n" for v in values.tolist())).encode()

    @pytest.mark.parametrize("rows", [3000, 2048])
    def test_one_call_writes_each_file_as_a_batch_of_one(self, rows, tmp_path, monkeypatch):
        # three files of one float column: the first 4,096-number block ends
        # inside the second file (3,000 rows) or where the third begins (2,048)
        rng = np.random.default_rng(rows)
        values = rng.standard_normal((3, rows)) * 10.0 ** rng.integers(-300, 300, (3, rows))
        axis = np.arange(rows) / 7.0
        text = cli._format_array(axis).view(f"S{cli._WIDTH}").ravel()
        gammas = (0.0, -0.8, 1.25)  # per-file constants of 22 and 23 characters
        constants = np.array([cli._format(g).encode() for g in gammas])[:, None]
        counts = np.arange(3 * rows).reshape(3, rows)
        header = ("k", "gamma", "B", "v", "n")
        columns = [b"k", constants, text, values, counts.astype(bytes)]
        together = [str(tmp_path / f"all{i}.csv") for i in range(3)]
        calls = record_formatted(monkeypatch)
        cli._write_csv(together, header, columns)
        total = 3 * rows
        assert [len(c) for c in calls] == [min(cli._BLOCK_NUMBERS, total - start)
                                           for start in range(0, total, cli._BLOCK_NUMBERS)]
        assert np.array_equal(np.concatenate(calls), values.ravel())
        for i, path in enumerate(together):
            expected = ("k,gamma,B,v,n\r\n" + "".join(
                f"k,{gammas[i]:.16e},{b:.16e},{v:.16e},{n}\r\n"
                for b, v, n in zip(axis.tolist(), values[i].tolist(), counts[i].tolist())))
            alone = tmp_path / f"one{i}.csv"
            own = [b"k", constants[i:i + 1], text, values[i:i + 1], counts[i:i + 1].astype(bytes)]
            cli._write_csv([str(alone)], header, own)
            stream = io.StringIO(newline="")
            with contextlib.redirect_stdout(stream):
                cli._write_csv([None], header, own)
            assert pathlib.Path(path).read_bytes() == alone.read_bytes() == expected.encode()
            assert stream.getvalue() == expected

    def test_a_text_only_table_over_files(self, tmp_path):
        # blocks are counted in rows, and also run over the files' rows
        paths = [str(tmp_path / f"t{i}.csv") for i in range(2)]
        columns = [np.array([[b"x"], [b"yy"]]), np.array([b"1", b"22", b"333"]),
                   np.array([[b"a", b"b", b"c"], [b"", b"e", b"f"]])]
        cli._write_csv(paths, ("p", "q", "r"), columns)
        assert [pathlib.Path(path).read_bytes() for path in paths] == [
            b"p,q,r\r\nx,1,a\r\nx,22,b\r\nx,333,c\r\n",
            b"p,q,r\r\nyy,1,\r\nyy,22,e\r\nyy,333,f\r\n"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_write_leaves_the_files_before_it_complete(self, tmp_path):
        # fig3's fourth CSV is a symlink to /dev/full: the three before it are
        # whole, and the manifests, which follow every CSV, are not written
        names = [name for name, _ in PRESET_JOBS["fig3"][1]]
        expected = tmp_path / "expected"
        run_figure("fig3", str(expected), {})
        out = tmp_path / "out"
        out.mkdir()
        (out / names[3]).symlink_to("/dev/full")
        with pytest.raises(ConfigError) as failure:
            run_figure("fig3", str(out), {})
        assert str(failure.value).startswith(f"cannot write {out / names[3]}: ")
        assert "No space left on device" in str(failure.value)
        assert sorted(os.listdir(out)) == sorted(names[:4])
        for name in names[:3]:
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_each_preset_formats_its_values_in_blocks_over_its_files(self, monkeypatch, tmp_path):
        # one _write_csv call per preset; its values reach _format_array once,
        # in file order, in blocks of at most _BLOCK_NUMBERS, after the axis
        writes = []
        calls = record_formatted(monkeypatch, writes)
        for name, (_, jobs, axis, _) in PRESET_JOBS.items():
            del calls[:], writes[:]
            paths = run_figure(name, str(tmp_path), {})
            assert writes == [paths]
            assert max(map(len, calls)) <= cli._BLOCK_NUMBERS
            assert np.array_equal(calls[0][:axis[3]], cli._axis_values(*axis))
            if name == "fig22-threshold":
                assert len(calls) == 1 and len(calls[0]) == axis[3] + len(jobs) * axis[3]
                continue
            total = len(jobs) * axis[3]
            assert len(calls) == 1 + math.ceil(total / cli._BLOCK_NUMBERS)
            assert len(calls[0]) == axis[3]
            written = [float(line.rsplit(b",", 1)[1]) for path in paths
                       for line in pathlib.Path(path).read_bytes().splitlines()[1:]]
            assert np.concatenate(calls[1:]).tolist() == written

    def test_preset_formats_its_axis_once_and_no_fixed_parameter(self, monkeypatch, tmp_path):
        calls = record_formatted(monkeypatch)
        fixed = {"J0": 0.8765, "J": 1.0625, "g2": 4.875}
        run_figure("fig3", str(tmp_path), fixed)
        # the 601-point B axis once, then the concurrence of each of 6 curves
        assert np.array_equal(calls[0], cli._axis_values("B", 0.0, 3.0, 601))
        assert sum(map(len, calls)) == 601 + 6 * 601
        assert not np.isin(list(fixed.values()) + [-0.8], np.concatenate(calls)).any()

    def test_thresholds_and_their_axis_are_one_format_call(self, monkeypatch, tmp_path):
        calls = record_formatted(monkeypatch)
        run_figure("fig22-threshold", str(tmp_path), {})
        # the 81 Delta values, then both curves' thresholds (nan without a bracket), in one call
        assert len(calls) == 1 and len(calls[0]) == 81 + 2 * 81
        assert np.array_equal(calls[0][:81], cli._axis_values("Delta", 0.0, 2.0, 81))
        assert 0 < np.isnan(calls[0]).sum() < 2 * 81
        # and no value is written by the one-number formatter outside that call
        tree = ast.parse(inspect.getsource(cli._write_thresholds))
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "_format"]

    def test_sweep_formats_each_axis_once_and_no_fixed_parameter(self, monkeypatch, tmp_path):
        calls = record_formatted(monkeypatch)
        fixed = dict(J=-1.2345, Delta=0.6789, J0=0.4321, gamma=-0.7531, g1=1.25, g2=4.75,
                     g3=1.1234)
        argv = ["sweep", "--set", "axis=B 0 3 41", "--set", "axis2=T 0.03 1.7 21",
                "--set", "quantities=" + ",".join(q for q in QUANTITY_ORDER if q != "qfi_dB"),
                "--out", str(tmp_path / "g.csv")]
        for key, value in fixed.items():
            argv += ["--set", f"{key}={value}"]
        assert cli.main(argv) == 0
        # 41 fields and 21 temperatures in one call, then 12 columns over 41 x 21 rows
        assert np.array_equal(calls[0], np.concatenate([cli._axis_values("B", 0.0, 3.0, 41),
                                                        cli._axis_values("T", 0.03, 1.7, 21)]))
        assert sum(map(len, calls)) == 41 + 21 + 12 * 861
        assert not np.isin(list(fixed.values()), np.concatenate(calls)).any()

    def test_point_row_on_a_text_stdout(self, tmp_path):
        # a text stream without a byte buffer gets the row that --out writes
        argv = ["point", "--set", "gamma=-0.8", "--set", "B=1e-300", "--set", "T=1e5",
                "--debug-paper-correlators"]
        out = str(tmp_path / "point.csv")
        assert cli.main(argv + ["--out", out]) == 0
        stream = io.StringIO(newline="")
        with contextlib.redirect_stdout(stream):
            assert cli.main(argv) == 0
        assert stream.getvalue().encode() == open(out, "rb").read()
        assert stream.getvalue().endswith("\r\n")


POINT = ["point", "--set", "B=0.5", "--set", "T=0.1"]

# each command writes its files into "{dir}"
REWRITERS = [
    ["sweep", "--set", "axis=B 0 1 5", "--set", "axis2=T 0.1 1 3", "--out", "{dir}/s.csv"],
    ["figure", "fig3", "--out", "{dir}"],
    ["figure", "fig22-threshold", "--out", "{dir}"],
    POINT + ["--out", "{dir}/p.csv"],
]


def written_by(argv, directory) -> dict:
    assert cli.main([arg.format(dir=directory) for arg in argv]) == 0
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestInPlaceOutput:
    @pytest.mark.parametrize("size", [2 * 2 ** 20, 7], ids=["longer", "shorter"])
    @pytest.mark.parametrize("argv", REWRITERS, ids=lambda argv: argv[argv[0] == "figure"])
    def test_rewrite_over_other_bytes_equals_a_first_run(self, argv, size, tmp_path, capsys):
        # every file is written over in place and cut to length: it keeps its
        # inode, mode and hard links, and ends with the first run's bytes
        out = tmp_path / "out"
        first = written_by(argv, out)
        for name in first:
            (out / name).write_bytes((b"9.9e+99,\r\n" * (size // 10 + 1))[:size])
            (out / name).chmod(0o640)
        link = tmp_path / "link"
        os.link(out / name, link)
        inodes = {name: (out / name).stat().st_ino for name in first}
        assert written_by(argv, out) == first
        for name in first:
            assert (out / name).stat().st_ino == inodes[name], name
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o640, name
        assert link.read_bytes() == first[name]

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert cli.main(POINT + ["--out", str(tmp_path / "p.csv")]) == 0
            with open(tmp_path / "reference", "wb"):
                pass
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("p.csv", "reference")}
        assert modes == {"p.csv": 0o640, "reference": 0o640}


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
            (t_th,), (n,) = thresholds_of([p], (0.01, 1.2))
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
                return math.nan
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
            thresholds, counts = thresholds_of(rows, t_range)
            assert np.array_equal(thresholds, [scalar_threshold(p) for p in rows], equal_nan=True)
            assert counts.tolist() == [concurrence_sign_brackets(p, t_range) for p in rows]
            assert not np.isnan(thresholds).all()

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
        thresholds, counts = thresholds_of(rows, t_range)
        assert np.isnan(thresholds[0::2]).tolist() == [True] * 4
        assert counts[0::2].tolist() == [0] * 4
        for i in (1, 3, 5):
            assert counts[i] >= 1
            assert thresholds[i] == find_threshold_temperature(rows[i], t_range)
        assert concurrence_at(replace(revived, T=0.01)) == 0.0
        assert concurrence_at(replace(revived, T=thresholds[3] + 1e-4)) > 0.0
        assert concurrence_at(replace(entangled, T=thresholds[1] + 1e-4)) == 0.0
        assert [a.tolist() for a in thresholds_of([], t_range)] == [[], []]

    def test_bisection_stops_at_adjacent_floats(self):
        # energies scaled by 2^34 scale the threshold exactly, and there one
        # spacing of floats is wider than the 1e-6 tolerance: the bisection
        # ends only when the midpoint is an end
        scale = 2.0 ** 34
        p = ModelParams(**STANDARD, Delta=0.5, J0=1.0, gamma=-0.8, B=1.0, T=0.1)
        scaled = replace(p, J=scale * p.J, J0=scale * p.J0, B=scale * p.B, T=scale * p.T)
        t_fine = find_threshold_temperature(scaled, (0.02 * scale, 2.0 * scale))
        assert math.ulp(t_fine) > cli._THRESHOLD_TOL
        assert abs(t_fine / scale - find_threshold_temperature(p, (0.02, 2.0))) < 1e-6
        below, above = (concurrence_at(replace(scaled, T=math.nextafter(t_fine, t))) > 0.0
                        for t in (0.0, math.inf))
        assert below != above

    def test_bad_range(self):
        with pytest.raises(ValueError):
            find_threshold_temperature(ModelParams(), (0.0, 1.0))

    @pytest.mark.parametrize("t_range", [(0.01, math.inf), (math.nan, 1.0), (1.0, 0.5),
                                         (-1.0, 1.0)])
    def test_range_must_be_finite_and_increasing(self, t_range):
        with pytest.raises(ConfigError, match="temperature range"):
            thresholds_of([ModelParams()], t_range)
        with pytest.raises(ConfigError, match="temperature range"):
            concurrence_sign_brackets(ModelParams(), t_range)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal f on [a, b], reusing evaluations:
    the critical field's scalar refinement before its rescans."""
    h = b - a
    c, d = b - GOLDEN * h, a + GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
        h *= GOLDEN
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def critical_objective(p: ModelParams, target: str, fields) -> np.ndarray:
    """What find_critical_field minimizes, at each of `fields`."""
    quantity, sign = cli._TARGETS[target]
    b = np.asarray(fields, dtype=float)
    return sign * np.abs(cli.measure_columns(dict(vars(p), B=b), (quantity,))[quantity])


def golden_critical_field(p: ModelParams, target: str, tol: float):
    """The reference: find_critical_field's coarse scan of (0, 3), then the
    golden section of the bracket around its best interior sample, one field
    at a time.  Returns (field, bracket), or None for a monotone scan."""
    grid = np.linspace(0.0, 3.0, cli._SCAN_POINTS)
    best = int(np.argmin(critical_objective(p, target, grid)))
    if best in (0, len(grid) - 1):
        return None
    bracket = float(grid[best - 1]), float(grid[best + 1])
    return golden_section(lambda b: float(critical_objective(p, target, [b])[0]),
                          *bracket, tol), bracket


class TestCriticalFieldFinder:
    def test_rescans_match_the_golden_section(self):
        # seeded sets with both signs of J and of gamma and Delta in {0, 0.5,
        # 1, 2}, each target and two tolerances; the golden section assumes
        # one extremum in its bracket, and where the bracket holds more the
        # rescans keep the better sample
        rng = np.random.default_rng(7)
        agreed, better = [], 0
        for i in range(12):
            p = ModelParams(**STANDARD, J=(-1.0) ** i * rng.uniform(0.5, 1.5),
                            Delta=(0.0, 0.5, 1.0, 2.0)[i % 4], J0=rng.uniform(0.3, 1.5),
                            gamma=(-1.0) ** (i // 2 + 1) * rng.uniform(0.2, 0.9),
                            T=math.exp(rng.uniform(math.log(0.005), math.log(0.1))))
            for target in cli._TARGETS:
                for tol in (1e-4, 1e-7):
                    reference = golden_critical_field(p, target, tol)
                    if reference is None:
                        with pytest.raises(NotFound):
                            find_critical_field(p, (0.0, 3.0), target, tol=tol)
                        continue
                    b = find_critical_field(p, (0.0, 3.0), target, tol=tol)
                    b_ref, bracket = reference
                    if abs(b - b_ref) <= tol:
                        agreed.append(abs(b - b_ref) / tol)
                        continue
                    dense = critical_objective(p, target, np.linspace(*bracket, 2001))
                    turns = np.count_nonzero(np.diff(np.sign(np.diff(dense))) > 0)
                    ours, theirs = critical_objective(p, target, [b, b_ref])
                    assert turns > 1 and ours < theirs, (p, target, tol)
                    better += 1
        assert (len(agreed), better) == (40, 4)
        assert max(agreed) < 0.5

    def test_tiny_tol_stops_when_the_bracket_stops_shrinking(self, capsys, monkeypatch):
        # 12 scans reach adjacent floats; a loop that kept rescanning fails
        # at the 100th scan instead of hanging
        scans, evaluate = [], cli.measure_columns

        def counting(*args, **kwargs):
            scans.append(None)
            assert len(scans) < 100, "the rescans did not stop"
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "measure_columns", counting)
        start = time.perf_counter()
        code = cli.main(["critical", "--set", "gamma=-0.8", "--set", "T=0.01",
                         "--tol", "1e-300"])
        assert code == 0 and time.perf_counter() - start < 1.0
        assert len(scans) == 12
        assert float(capsys.readouterr().out) == pytest.approx(B_STAR, abs=1e-3)

    @pytest.mark.parametrize("target, size", [("max_concurrence", 64), ("qfi_min", 64),
                                              ("dqfi_peak", 128)])
    def test_default_rescans_make_three_kernel_calls(self, target, size, monkeypatch):
        # a 64-field scan of (0, 3), then two rescans; dF/dB takes B +- delta_b
        p = ModelParams(**STANDARD, Delta=0.5, J0=0.7, gamma=-0.8, T=0.05)
        calls = record_kernel_calls(monkeypatch)
        find_critical_field(p, (0.0, 3.0), target)
        assert [np.broadcast(*args).size for args in calls] == [size] * 3

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
                                         (1.0, 1.0), (0.0, 1e307)])
    def test_range_must_be_finite_and_increasing(self, b_range):
        with pytest.raises(ConfigError, match="field range"):
            find_critical_field(ModelParams(), b_range, "max_concurrence")

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
        sizes, kernel = [], xfer._kernel

        def recording(args, ring=None):
            sizes.append(np.broadcast(*args).size)
            return kernel(args, ring)

        monkeypatch.setattr(xfer, "_kernel", recording)
        run_figure("fig22-threshold", str(tmp_path), {})
        # 162 rows of 64 temperatures in kernel calls of 9 whole rows, then
        # 15 lockstep bisection steps from a bracket of 1.19/63 down to 1e-6
        assert sizes[:18] == [9 * 64] * 18
        assert len(sizes) == 33
        assert max(sizes) <= 601

    def test_dbqfi_kernel_calls_are_whole_curves(self, tmp_path, monkeypatch):
        # the fields B + delta_b and B - delta_b of 4 curves of 601 fields
        calls = record_kernel_calls(monkeypatch)
        run_figure("fig-dbqfi", str(tmp_path), {})
        assert [np.broadcast(*args).size for args in calls] == [601] * 8

    def test_batched_presets_match_per_curve_sweeps(self, tmp_path):
        # every curve of a sweep preset comes from one evaluator call over all
        # of them, with the bytes of a sweep of that curve alone
        for name, (_, _, _, axis, output) in cli.FIGURE_PRESETS.items():
            if name == "fig22-threshold":
                continue
            paths = run_figure(name, str(tmp_path / name), {})
            files = sorted(os.listdir(tmp_path / name))
            assert files == sorted(f for p in paths for f in (os.path.basename(p),
                                   os.path.basename(p) + ".manifest.txt"))
            batched = {f: (tmp_path / name / f).read_bytes() for f in files}
            for f in files:
                os.remove(tmp_path / name / f)
            for params, out in cli._preset_jobs(name, str(tmp_path / name), {}):
                run_sweep(SweepConfig(params=params, axes=(axis,), quantities=output, out=out))
            assert {f: (tmp_path / name / f).read_bytes() for f in files} == batched, name

    @pytest.mark.parametrize("name, overrides", [("fig5", {"g1": 1e308}),
                                                 ("fig-dbqfi", {"J": 1e308})])
    def test_failing_preset_writes_no_file(self, tmp_path, name, overrides):
        # a later curve overflows: the preset writes nothing, and names the
        # point that the curve's own sweep names
        with pytest.raises(cli.OverflowRisk) as batched:
            run_figure(name, str(tmp_path / "batched"), overrides)
        assert os.listdir(tmp_path / "batched") == []
        _, _, _, axis, output = cli.FIGURE_PRESETS[name]
        for k, (params, out) in enumerate(cli._preset_jobs(name, str(tmp_path), overrides)):
            try:
                run_sweep(SweepConfig(params=params, axes=(axis,), quantities=output, out=out))
            except cli.OverflowRisk as exc:
                assert k > 0 and str(exc) == str(batched.value)
                break
        else:
            pytest.fail("no curve failed alone")


# every subcommand's configuration keys, and a value of each key that its parser rejects
COMMAND_KEYS = {name: sp.get_default("keys") for name, sp in next(
    action for action in cli._PARSER._actions
    if isinstance(action, argparse._SubParsersAction)).choices.items()}
MALFORMED = {**dict.fromkeys(cli.PARAM_COLUMNS + ("delta_b",), "abc"),
             **dict.fromkeys(("axis", "axis1", "axis2"), "B 0 1"),
             "impurity": "maybe", "quantities": "entropy", "out": ""}


def set_flags(config: dict) -> list:
    """--set KEY=VALUE for each item of `config`."""
    return [arg for k, v in config.items() for arg in ("--set", f"{k}={v}")]


class TestMainEntry:
    @pytest.mark.parametrize("point, step", [(["--set", "B=1e20"], "0.001"),
                                             (["--set", "B=0.3", "--set", "delta_b=5e-324"],
                                              "5e-324")])
    def test_a_step_lost_against_b_exits_3(self, capsys, point, step):
        # B +- delta_b == B would make qfi_dB an exact, meaningless 0
        code = cli.main(["point", *point, "--set", "gamma=-0.8", "--set", "T=0.05",
                         "--set", "quantities=qfi_dB"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith(f"numerical failure: the step delta_b={step} is lost against B")
        assert err.rstrip().endswith(f"B={float(point[1][2:])!r}, T=0.05")

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

    def test_axis_and_axis1_name_the_first_axis(self, tmp_path, capsys):
        # axis1 alone is the first axis; with axis as well it is ambiguous
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--set", "axis1=B 0 1 3", "--set", "axis2=T 0.1 1 2",
                         "--out", str(out)])
        assert code == 0
        manifest = (tmp_path / "s.csv.manifest.txt").read_text().splitlines()
        assert "axis1 = B 0.0 1.0 3" in manifest and "axis2 = T 0.1 1.0 2" in manifest
        capsys.readouterr()
        both = tmp_path / "both"
        code = cli.main(["sweep", "--set", "axis=B 0 1 3", "--set", "axis1=T 0.1 1 2",
                         "--out", str(both / "s.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and not captured.out
        assert "'axis'" in captured.err and "'axis1'" in captured.err
        assert not both.exists()

    def test_axis2_needs_a_first_axis(self, tmp_path, capsys):
        out = tmp_path / "second" / "s.csv"
        code = cli.main(["sweep", "--set", "axis2=T 0.1 1 3", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and not captured.out
        assert "'axis2'" in captured.err
        assert not out.parent.exists()

    def test_negative_bounds_with_an_exponent_are_numbers(self, capsys):
        # a field that the CLI printed as %.16e can be passed back as a bound
        printed = []
        for bound in (["--b-min", "-5e-1"], ["--b-min=-5e-1"]):
            assert cli.main(["critical", *bound, "--b-max", "3"]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1] and not printed[0].err
        for argv, message in ((["threshold", "--t-min", "-1e-2"], "bad temperature range"),
                              (["threshold", "--t-max", "-1e-2"], "bad temperature range"),
                              (["critical", "--b-max", "-5e-1"], "bad field range"),
                              (["critical", "--b-min", "-Infinity"], "bad field range"),
                              (["critical", "--tol", "-1e-4"], "tol must be positive")):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"configuration error: {message}") and not captured.out

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
        monkeypatch.setattr(xfer, "_kernel", lambda args, ring=None: (nan_state.column(), None))
        code = cli.main(["point", "--set", "quantities=rho_elements"])
        assert code == 3

    def test_debug_correlator_flag(self, capsys):
        code = cli.main(["point", "--set", "B=0.5", "--set", "T=0.5",
                         "--set", "quantities=sxsx", "--debug-paper-correlators"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "sxsx_alt" in header and "szsz_alt" in header

    @pytest.mark.parametrize("command, key", [(c, k) for c, keys in COMMAND_KEYS.items()
                                              for k in keys])
    def test_a_malformed_value_of_every_key_exits_2(self, command, key, tmp_path, capsys):
        config = {"axis": "B 0 1 3", "out": str(tmp_path / "s.csv")} if command == "sweep" else {}
        if key in ("axis", "axis1"):
            del config["axis"]
        config[key] = MALFORMED[key]
        flags = {"point": ["--out", str(tmp_path / "p.csv")],
                 "figure": ["fig3", "--out", str(tmp_path / "figs")]}.get(command, [])
        assert cli.main([command, *flags, *set_flags(config)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error:") and repr(MALFORMED[key]) in line
        assert not captured.out and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("count", [10 ** 14, 10 ** 19])
    @pytest.mark.parametrize("key", ["axis", "axis2"])
    def test_an_axis_count_past_memory_exits_2(self, key, count, tmp_path, capsys):
        # 10^14 values take 728 TiB, past the address space, so none is allocated;
        # 10^19 is past numpy's array size limit
        axes = {"axis": "B 0 1 3", key: f"T 0.1 1 {count}"}
        assert cli.main(["sweep", "--out", str(tmp_path / "s.csv"), *set_flags(axes)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error: bad T range (0.1, 1.0): ")
        assert str(count) in line
        assert not captured.out and not any(tmp_path.iterdir())

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
        # the output directory is made, or rejected, before anything is evaluated
        def evaluator(*_, **__):
            raise AssertionError("the evaluator ran before the output path was checked")

        monkeypatch.setattr(cli, "measure_columns", evaluator)
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

        # a sweep whose manifest path is an existing directory: no CSV is written
        if argv[0] == "sweep" or argv[1] == "fig3":
            out = tmp_path / "M"
            csv_path = out / (PRESET_JOBS["fig3"][1][0][0] if argv[0] == "figure" else "x.csv")
            manifest = out / (csv_path.name + ".manifest.txt")
            manifest.mkdir(parents=True)
            assert cli.main(argv + [str(out if argv[0] == "figure" else csv_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error:")
            assert str(manifest) in captured.err and not captured.out
            assert os.listdir(tmp_path / "M") == [manifest.name]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B 0 1 3", "--out"],
        ["point", "--out"],
        ["figure", "fig3", "--out"],
        ["figure", "fig22-threshold", "--out"],
    ])
    def test_output_without_write_permission_exit_code(self, argv, tmp_path, capsys,
                                                       monkeypatch):
        # write permission is checked before anything is evaluated; tests may
        # run as root, which ignores permission bits, so os.access denies it
        def evaluator(*_, **__):
            raise AssertionError("the evaluator ran before the output path was checked")

        monkeypatch.setattr(cli, "measure_columns", evaluator)
        figure = argv[0] == "figure"
        name = PRESET_JOBS[argv[1]][1][0][0] if figure else "x.csv"
        existing = tmp_path / "D" / name
        existing.parent.mkdir()
        existing.write_text("")
        missing = tmp_path / "E" / name
        missing.parent.mkdir()
        # an existing file that cannot be written, then a new file in a
        # directory that cannot be written: for a figure, its first CSV
        for target, denied in ((existing, existing), (missing, missing.parent)):
            monkeypatch.setattr(cli.os, "access",
                                lambda path, *_, denied=str(denied), **__: path != denied)
            assert cli.main(argv + [str(target.parent if figure else target)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error:") and str(target) in captured.err
            assert "Traceback" not in captured.err and not captured.out
        assert existing.read_text() == "" and not os.listdir(missing.parent)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exit_code(self, capsys):
        # the write, not the open, fails: it is a configuration error naming the path
        assert cli.main(POINT + ["--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: cannot write /dev/full: ")
        assert "No space left on device" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B 0 1 3", "--set", "out="],
        ["sweep", "--set", "axis=B 0 1 3", "--out", ""],
        ["point", "--out", ""],
    ])
    def test_empty_output_path_exit_code(self, argv, tmp_path, capsys, monkeypatch):
        # rejected by _make_dir before the kernel runs, as any unwritable path
        monkeypatch.chdir(tmp_path)
        calls = record_kernel_calls(monkeypatch)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "configuration error: cannot write '': empty path\n")
        assert not calls and not os.listdir(tmp_path)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_output_to_a_device_is_not_cut(self, capsys):
        assert cli.main(POINT + ["--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_output_to_a_fifo_is_the_stdout_row(self, tmp_path, capsys):
        assert cli.main(POINT) == 0
        expected = capsys.readouterr().out.encode()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert cli.main(POINT + ["--out", str(fifo)]) == 0
        finally:
            # a writer that never opened the FIFO would leave the reader blocked
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        assert not reader.is_alive() and received == [expected]

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

    def test_vanished_sector_weights_exit_3(self, capsys):
        point = [arg for key, value in VANISHED_SECTORS.items()
                 for arg in ("--set", f"{key}={value!r}")]
        assert cli.main(["point", *point, "--set", "quantities=concurrence"]) == 3
        out, err = capsys.readouterr()
        assert not out and err.startswith("numerical failure: every sector weight vanished")
        assert f"T={VANISHED_SECTORS['T']!r}" in err

    @pytest.mark.parametrize("field", [1e308, 3e307])
    def test_field_past_the_float_range_exit_code(self, field, capsys):
        code = cli.main(["point", "--set", f"B={field!r}"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: a Zeeman term or dimer level is past the float range")
        assert f"B={field!r}" in err

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
        ["sweep", "--set", "axis=B 0 1e306 601"],
        ["sweep", "--set", "axis=B -1e308 1e308 3"],
        ["critical", "--set", "T=0.05", "--b-max", "1e307"],
    ])
    def test_non_finite_input_exit_code(self, argv, tmp_path, capsys):
        if argv[0] in ("sweep", "figure"):
            argv = argv + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert "Traceback" not in captured.err and not captured.out
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--set", "axis=B 0 1 3", "--set", "axis2=B 0 2 3"], "axis 'B' given twice"),
        (["sweep", "--set", "axis=B 0 1 3", "--config", "{config}"], "{config}:1: empty key"),
        (["point", "--set", "impurity=maybe"], "impurity: expected on/off, got 'maybe'"),
        (["sweep", "--set", "axis=B 0 1"], "axis needs 'name start stop count', got 'B 0 1'"),
        (["sweep", "--set", "axis=B 0 1 three"], "bad axis 'B 0 1 three'"),
        (["sweep"], "no sweep axis given"),
        (["point", "--set", "foo"], "--set expects key=value, got 'foo'"),
        (["point"], "cannot write {long}: "),
        (["point", "--config", "{latin1}"],
         "cannot read config {latin1}: 'utf-8' codec can't decode byte 0xe9"),
        # the sweep's own `out` key, as --out would override it
        (["sweep", "--config", "{nul}"], "cannot write {nul_out!r}: embedded null byte"),
    ], ids=["axis-twice", "empty-key", "impurity", "axis-fields", "axis-count", "no-axis",
            "set-form", "long-name", "not-utf8", "null-byte"])
    def test_configuration_error_names_its_input(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        names = dict(config=str(tmp_path / "bad.cfg"), latin1=str(tmp_path / "latin1.cfg"),
                     nul=str(tmp_path / "nul.cfg"), nul_out=str(out / "d" / "x\0y.csv"),
                     # a 300-character file name: ENAMETOOLONG, whatever the user's permissions
                     long=str(out / ("x" * 296 + ".csv")))
        pathlib.Path(names["config"]).write_text(" = 3\n")
        pathlib.Path(names["latin1"]).write_bytes(b"B = 0.5\n# caf\xe9\n")
        pathlib.Path(names["nul"]).write_text(f"axis = B 0 1 3\nout = {names['nul_out']}\n")
        path = names["long"] if "{long}" in message else str(out / "x.csv")
        given = [arg.format(**names) for arg in argv]
        argv = given if "{nul}" in argv else given + ["--out", path]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: " + message.format(**names))
        assert "Traceback" not in captured.err and not captured.out
        assert not os.listdir(out)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--set", "axis=B 0 1 3", "--workers", "0"],
        ["sweep", "--set", "axis=B 0 1 3", "--workers", "-4"],
        ["figure", "fig3", "--workers", "0"],
    ])
    def test_workers_below_one_exit_code(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


# one run of each subcommand through main, each exiting 0
EVERY_COMMAND = [
    ["point", "--set", "B=0.5", "--set", "T=0.5", "--set", "quantities=concurrence"],
    ["sweep", "--set", "axis=B 0 1 3", "--set", "quantities=qfi", "--out", "s.csv"],
    ["figure", "fig-qfi", "--out", "figures"],
    ["threshold", "--set", "B=1.0", "--set", "gamma=-0.8", "--t-min", "0.02", "--t-max", "2.0"],
    ["critical", "--set", "gamma=-0.8", "--set", "T=0.01"],
]

# (COLUMNS, argv) of main calls that could see state left by an earlier
# call on the same parser: --set lists, a store_true flag, an error, help
IN_ONE_PROCESS = [
    ("80", ["sweep", "--set", "axis=B 0 1 3", "--set", "quantities=concurrence,sxsx",
            "--debug-paper-correlators", "--out", "a.csv"]),
    ("80", ["point"]),
    ("80", ["sweep", "--set", "axis=T 0.1 1 3", "--out", "b.csv"]),
    ("80", ["point", "--set", "axis=B 0 1 3"]),
    *[(columns, command + ["--help"]) for columns in ("60", "120")
      for command in ([], ["point"], ["sweep"], ["threshold"], ["critical"], ["figure"])],
]


class TestParserReuse:
    def test_main_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert [cli.main(argv) for argv in EVERY_COMMAND] == [0] * len(EVERY_COMMAND)
        assert built == []

    def test_calls_leave_no_state_in_the_parser(self, tmp_path, monkeypatch, capsys):
        def run_all(directory, fresh):
            """Exit code, stdout, stderr and every file's bytes after each call,
            on the module's parser or on a freshly built one per call."""
            directory.mkdir()
            monkeypatch.chdir(directory)
            results = []
            for columns, argv in IN_ONE_PROCESS:
                monkeypatch.setenv("COLUMNS", columns)
                if fresh:
                    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                files = {name: (directory / name).read_bytes()
                         for name in sorted(os.listdir(directory))}
                results.append((code, out, err, files))
            return results

        shared = run_all(tmp_path / "shared", fresh=False)
        assert shared == run_all(tmp_path / "fresh", fresh=True)
        assert [code for code, *_ in shared[:4]] == [0, 0, 0, 2]
        # each help text follows the COLUMNS of its own call
        helps = [out for _, out, _, _ in shared[4:]]
        assert all(narrow != wide for narrow, wide in zip(helps[:6], helps[6:]))


# each finder's defaulted parameters but delta_b, and their defaults: the
# scans take _SCAN_POINTS and the bisection _THRESHOLD_TOL with no parameter,
# and only the critical field's rescans take a tolerance, which --tol sets
FINDER_DEFAULTS = [
    (concurrence_sign_brackets, {}),
    (cli._thresholds, {}),
    (find_threshold_temperature, {}),
    (find_critical_field, dict(tol=cli._CRITICAL_TOL)),
]


def spelled_defaults(tree):
    """Every default a module's code spells: function and lambda defaults,
    class field values, `default=` keywords and the fallback of `.get`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield from node.args.defaults + [d for d in node.args.kw_defaults if d]
        elif isinstance(node, ast.ClassDef):
            yield from (s.value for s in node.body if isinstance(s, ast.AnnAssign) and s.value)
        elif isinstance(node, ast.Call):
            yield from (k.value for k in node.keywords if k.arg == "default")
            if getattr(node.func, "attr", None) == "get" and len(node.args) == 2:
                yield node.args[1]


def number_of(node):
    """The number a literal (or a literal's text) spells, else None."""
    try:
        return float(node.value) if isinstance(node, ast.Constant) else None
    except (TypeError, ValueError):
        return None


class TestDefaults:
    def test_every_delta_b_default_is_the_one_step(self):
        stepped = []
        for module in (impurity_chain, cli):
            for name in module.__all__:
                value = getattr(module, name)
                if inspect.isfunction(value) or dataclasses.is_dataclass(value):
                    parameters = inspect.signature(value).parameters
                    if "delta_b" in parameters:
                        stepped.append(name)
                        assert parameters["delta_b"].default == DELTA_B, name
        assert sorted(stepped) == ["SweepConfig", "find_critical_field", "measure_bundle",
                                   "measure_columns", "qfi_field_derivative", "run_point"]

    def test_one_tuple_of_parameter_names(self):
        assert cli.PARAM_COLUMNS is model._PARAM_NAMES
        assert cli.PARAM_COLUMNS == tuple(f.name for f in dataclasses.fields(ModelParams))

    def test_cli_step_without_a_key_is_the_one_step(self):
        assert build_sweep_config(parsed("sweep", "--set", "axis=B 0 1 3")).delta_b == DELTA_B
        assert parsed("critical")["delta_b"] == DELTA_B

    @pytest.mark.parametrize("finder, defaults", FINDER_DEFAULTS,
                             ids=[f.__name__ for f, _ in FINDER_DEFAULTS])
    def test_finder_defaults_are_their_constants(self, finder, defaults):
        parameters = inspect.signature(finder).parameters.values()
        assert {p.name: p.default for p in parameters
                if p.default is not p.empty and p.name != "delta_b"} == defaults

    def test_tol_option_defaults_to_the_critical_tolerance(self):
        tol = inspect.signature(find_critical_field).parameters["tol"].default
        assert cli._PARSER.parse_args(["critical"]).tol == tol

    def test_no_default_spells_a_shared_value_again(self):
        # the step, the scan size and the two tolerances are each one constant
        shared = {DELTA_B, cli._SCAN_POINTS, cli._THRESHOLD_TOL, cli._CRITICAL_TOL}
        package = pathlib.Path(impurity_chain.__file__).parent
        spelled = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
                   for node in spelled_defaults(ast.parse(path.read_text()))
                   if number_of(node) in shared]
        assert not spelled, f"defaults that repeat a shared constant's value: {spelled}"


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "impurity_chain.cli", "point",
         "--set", "gamma=-0.8", "--set", "B=1.282", "--set", "T=0.01"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("J,Delta,J0")


# every subcommand that writes to standard output; "{dir}" is a scratch directory
STDOUT_WRITERS = [
    ["point", "--set", "B=0.5", "--set", "T=0.1"],
    ["sweep", "--set", "axis=B 0 1 3", "--out", "{dir}/s.csv"],
    ["figure", "fig22-threshold", "--out", "{dir}"],
    ["threshold", "--set", "B=1.0", "--set", "gamma=-0.8"],
    ["critical", "--set", "T=0.05", "--set", "gamma=-0.8"],
]


def run_with_stdout(argv, tmp_path, stdout, shell=""):
    """The CLI in a fresh interpreter with `stdout` as its standard output,
    under `sh -c` with `shell` redirections when given."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    command = [sys.executable, "-m", "impurity_chain.cli",
               *(arg.replace("{dir}", str(tmp_path)) for arg in argv)]
    if shell:
        command = ["sh", "-c", f'exec "$@" {shell}', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)


def assert_stdout_failure(proc, reason):
    # one configuration error line: no traceback, and nothing from the
    # interpreter's flush at exit
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"configuration error: cannot write standard output: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no POSIX shell")
@pytest.mark.parametrize("argv", STDOUT_WRITERS)
def test_closed_stdout_exit_code(argv, tmp_path):
    assert_stdout_failure(run_with_stdout(argv, tmp_path, None, shell=">&-"), "it is closed")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", STDOUT_WRITERS)
def test_stdout_on_a_full_device_exit_code(argv, tmp_path):
    with open("/dev/full", "wb") as full:
        proc = run_with_stdout(argv, tmp_path, full)
    assert_stdout_failure(proc, "[Errno 28] No space left on device")


def test_stdout_closed_in_process_exit_code(monkeypatch, capsys):
    # a library caller's closed stream, not a closed descriptor
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert cli.main(STDOUT_WRITERS[4]) == 2
    assert capsys.readouterr().err == (
        "configuration error: cannot write standard output: I/O operation on closed file\n")


def test_stdout_into_a_closed_pipe_exit_code(tmp_path):
    # the pipe's reader is gone before the run starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_with_stdout(STDOUT_WRITERS[0], tmp_path, write)
    finally:
        os.close(write)
    assert_stdout_failure(proc, "[Errno 32] Broken pipe")


def test_non_ascii_paths_under_the_c_locale(tmp_path):
    # argv bytes that the C locale surrogate-escapes go back out as they came
    # in, so the manifest has the UTF-8 run's bytes; a config file is UTF-8
    # whatever the locale, and an `out` that the locale cannot name is a
    # configuration error before anything is written
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    c_locale = dict(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    (tmp_path / "e.cfg").write_bytes("axis = B 0 1 3\nout = é.csv\n".encode())
    runs = {}
    for name, env, args in [("c", c_locale, ["--out", "é.csv"]),
                            ("utf8", dict(PYTHONUTF8="1"), ["--out", "é.csv"]),
                            ("config", c_locale, ["--config", "../e.cfg"])]:
        directory = tmp_path / name
        directory.mkdir()
        runs[name] = subprocess.run(
            [sys.executable, "-m", "impurity_chain.cli", "sweep", "--set", "axis=B 0 1 3", *args],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src, **env), cwd=directory,
            timeout=120)
    for name in ("c", "utf8"):
        assert runs[name].returncode == 0, runs[name].stderr
    assert runs["c"].stdout == runs["utf8"].stdout == "é.csv\n".encode()
    manifests = [(tmp_path / name / "é.csv.manifest.txt").read_bytes() for name in ("c", "utf8")]
    assert manifests[0] == manifests[1] and manifests[0].endswith("out = é.csv\n".encode())
    assert runs["config"].returncode == 2
    assert runs["config"].stderr.startswith(b"configuration error: cannot write '\\xe9.csv'")
    assert not os.listdir(tmp_path / "config")
