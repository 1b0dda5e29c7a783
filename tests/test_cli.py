"""End-to-end CLI tests: files, determinism, exit codes."""

import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmemsim
from qmemsim import _csv, cli, montecarlo
from qmemsim.cli import _write_table, main
from qmemsim.fidelity import MAX_NODES


def run(tmp_path, command, config=None, extra=()):
    args = [command, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    args += list(extra)
    return main(args)


def run_subprocess(tmp_path, command, config):
    """Exit code and stderr of a CLI run in a fresh interpreter.

    For inputs that once hung or allocated without bound, so the run
    sits under a timeout.
    """
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = Path(qmemsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "qmemsim.cli", command,
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={"PATH": "", "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stderr


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


STORE_CONFIG = {"input_x": 0.0, "input_p": -4.0, "n_trials": 2000, "seed": 7}


class TestStore:
    def test_outputs_and_determinism(self, tmp_path):
        assert run(tmp_path, "store", STORE_CONFIG) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {
            "trials.csv",
            "histograms.csv",
            "histograms.svg",
            "reconstructed.json",
        }
        first = {p.name: digest(p) for p in out.iterdir()}
        assert run(tmp_path, "store", STORE_CONFIG) == 0
        second = {p.name: digest(p) for p in out.iterdir()}
        assert first == second  # byte-identical rerun

    def test_trials_csv_shape(self, tmp_path):
        assert run(tmp_path, "store", STORE_CONFIG) == 0
        with open(tmp_path / "out" / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "trial_id", "arm", "feedback_outcome", "verification_outcome"
        ]
        assert len(rows) == 1 + 2 * STORE_CONFIG["n_trials"]
        arms = {row[1] for row in rows[1:]}
        assert arms == {"p", "x"}

    def test_reconstructed_numbers_track_channel(self, tmp_path):
        config = dict(STORE_CONFIG, n_trials=20_000)
        assert run(tmp_path, "store", config) == 0
        report = json.loads((tmp_path / "out" / "reconstructed.json").read_text())
        recon = report["reconstructed"]
        assert recon["var_x"] == pytest.approx(1.0, abs=5 * recon["se_var_x"])
        assert recon["var_p"] == pytest.approx(0.5, abs=5 * recon["se_var_p"])
        assert recon["mean_x"] == pytest.approx(-4.0, abs=5 * recon["se_mean_x"])
        assert report["gains"]["gain_x"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_negative_variance_exits_zero_silently(self, tmp_path, seed):
        # at readout_coupling 0.01 a reconstructed variance is often below 0;
        # reconstructed.json reports it, and stderr stays empty
        config = {"input_x": 0, "input_p": 0, "readout_coupling": 0.01,
                  "n_trials": 100, "seed": seed}
        assert run_subprocess(tmp_path, "store", config) == (0, "")
        recon = json.loads((tmp_path / "out" / "reconstructed.json").read_text())
        assert min(recon["reconstructed"]["var_x"], recon["reconstructed"]["var_p"]) < 0

    def test_seed_flag_overrides_config(self, tmp_path):
        assert run(tmp_path, "store", STORE_CONFIG) == 0
        base = digest(tmp_path / "out" / "trials.csv")
        assert run(tmp_path, "store", STORE_CONFIG, ["--seed", "8"]) == 0
        assert digest(tmp_path / "out" / "trials.csv") != base

    def test_negative_seed_flag_accepted(self, tmp_path):
        # store masks any integer seed to a 64-bit stream key
        assert run(tmp_path, "store", STORE_CONFIG, ["--seed", "-1"]) == 0

    def test_format_filter(self, tmp_path):
        assert run(tmp_path, "store", STORE_CONFIG, ["--format", "json"]) == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"reconstructed.json"}

    def test_missing_key_exit_two(self, tmp_path, capsys):
        assert run(tmp_path, "store", {"input_x": 1.0}) == 2
        assert "input_p" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        config = dict(STORE_CONFIG, typo_key=1)
        assert run(tmp_path, "store", config) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["store", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("readout_coupling", 0.0),
            ("readout_coupling", float("nan")),
            ("gain", float("nan")),
            ("input_x", float("inf")),
            ("n_trials", 0),
            ("n_trials", 50),
            ("histogram_bins", 3),
            ("atom_var_x", float("nan")),
            ("atom_var_p", float("nan")),
            ("atom_var_x", float("inf")),
            ("n_trials", float("inf")),
            ("seed", float("inf")),
            ("histogram_bins", float("inf")),
            ("n_trials", cli.MAX_TRIALS + 1),
            ("n_trials", 1e12),
            ("histogram_bins", cli.MAX_HISTOGRAM_BINS + 1),
            ("histogram_bins", 1e12),
            ("seed", 3.9),
            ("seed", "3"),
            ("seed", True),
            ("n_trials", 2000.5),
            ("n_trials", "2000"),
            ("histogram_bins", 60.5),
            ("histogram_bins", "60"),
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, key, value):
        assert run(tmp_path, "store", {**STORE_CONFIG, key: value}) == 2
        assert key in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_minimums_are_the_library_minimums(self):
        # cli names them itself, so that its import loads no montecarlo
        assert cli.MIN_TRIALS == montecarlo.MIN_TRIALS
        assert cli.MIN_HISTOGRAM_BINS == montecarlo.MIN_BINS


class TestFidelity:
    def test_anchor_rows(self, tmp_path):
        assert run(tmp_path, "fidelity") == 0
        table = json.loads((tmp_path / "out" / "fidelity.json").read_text())
        fids = table["fidelities"]
        assert fids["ideal_css_protocol"] == pytest.approx(0.8165, abs=5e-4)
        assert fids["classical_optimum"] == pytest.approx(0.554, abs=2e-3)
        assert fids["classical_unit_gain"] == pytest.approx(0.5, abs=1e-6)
        assert table["classical_optimum"]["gain"] == pytest.approx(
            0.809, abs=5e-3
        )
        bounds = table["boundaries"]
        assert bounds["arbitrary_input_bound_pn"] == 3.0
        assert bounds["set_bound_pn"] == pytest.approx(2.309, abs=1e-3)
        assert bounds["set_bound_33pct_below_pn"] == pytest.approx(
            1.547, abs=1e-3
        )

    def test_smaller_set(self, tmp_path):
        assert run(tmp_path, "fidelity", {"n_max": 4.0}) == 0
        table = json.loads((tmp_path / "out" / "fidelity.json").read_text())
        assert table["fidelities"]["classical_optimum"] == pytest.approx(
            0.596, abs=2e-3
        )

    def test_configured_channel_row(self, tmp_path):
        config = {"gain_x": 1.0, "gain_p": 1.0, "var_x": 1.0, "var_p": 0.5}
        assert run(tmp_path, "fidelity", config) == 0
        table = json.loads((tmp_path / "out" / "fidelity.json").read_text())
        assert table["fidelities"]["configured_channel"] == pytest.approx(
            0.8165, abs=5e-4
        )

    @pytest.mark.parametrize("var_x, var_p", [(0.001, 0.001), (0.5, 0.5 - 2e-8)])
    def test_unphysical_channel_exits_two(self, tmp_path, capsys, var_x, var_p):
        # var_x * var_p below 1/4 once read a fidelity of 1.996
        config = {"gain_x": 1, "gain_p": 1, "var_x": var_x, "var_p": var_p}
        assert run(tmp_path, "fidelity", config) == 2
        assert "'var_x' or 'var_p'" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_channel_on_the_uncertainty_floor_runs(self, tmp_path):
        config = {"gain_x": 1, "gain_p": 1, "var_x": 0.5, "var_p": 0.5}
        assert run(tmp_path, "fidelity", config) == 0

    def test_partial_channel_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "fidelity", {"gain_x": 1.0}) == 2
        assert "gain" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"gain_x": float("nan"), "gain_p": 1.0, "var_x": 1.0,
              "var_p": 0.5}, "gain_x"),
            ({"quad_tol": float("nan")}, "quad_tol"),
            ({"n_min": 5.0, "n_max": 2.0}, "n_min"),
        ],
    )
    def test_bad_value_exit_two_without_hanging(self, tmp_path, config, key):
        # a NaN channel or tolerance once doubled the quadrature nodes
        # without bound
        code, err = run_subprocess(tmp_path, "fidelity", config)
        assert code == 2, err
        assert key in err
        assert "Traceback" not in err

    def test_overflowing_set_exits_three_writing_nothing(self, tmp_path):
        # fidelity.csv once kept a nan row, next to boundaries.csv
        code, err = run_subprocess(tmp_path, "fidelity", {"n_max": 1e12})
        assert code == 3, err
        assert "RuntimeWarning" not in err
        assert "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("gains", [(1e200, 1.0), (1.0, -1e160)])
    def test_far_gain_exits_three_naming_gains(self, tmp_path, capsys, gains):
        config = {"gain_x": gains[0], "gain_p": gains[1], "var_x": 1.0, "var_p": 1.0}
        assert run(tmp_path, "fidelity", config) == 3
        assert "gain_x or gain_p" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_unconverged_quadrature_stops_at_node_cap(self, tmp_path):
        config = {"quad_tol": 1e-300, "n_max": 1000.0, "gain_x": 0.9,
                  "gain_p": 0.9, "var_x": 0.8, "var_p": 0.6}
        code, err = run_subprocess(tmp_path, "fidelity", config)
        assert code == 3, err
        assert f"by {MAX_NODES} nodes" in err
        assert "Traceback" not in err


class TestCalibrate:
    def test_synthesis_and_fit(self, tmp_path):
        assert run(tmp_path, "calibrate", {"slope_per_unit": 0.8,
                                           "seed": 12}) == 0
        fit = json.loads(
            (tmp_path / "out" / "calibration_fit.json").read_text()
        )
        assert fit["slope"] == pytest.approx(0.8, abs=4 * fit["slope_se"])

    def test_csv_input_round_trip(self, tmp_path):
        assert run(tmp_path, "calibrate", {"seed": 3}) == 0
        points_csv = tmp_path / "out" / "calibration_points.csv"
        fit1 = (tmp_path / "out" / "calibration_fit.json").read_text()
        # re-fit from the emitted CSV
        config = {"series_csv": str(points_csv)}
        assert run(tmp_path, "calibrate", config) == 0
        fit2 = (tmp_path / "out" / "calibration_fit.json").read_text()
        assert fit1 == fit2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("jx_points", 2),
            ("n_cycles", 1),
            ("jx_points", float("inf")),
            ("n_cycles", float("inf")),
            ("seed", float("inf")),
            ("jx_points", cli.MAX_JX_POINTS + 1),
            ("jx_points", 1e12),
            ("n_cycles", cli.MAX_CYCLES + 1),
            ("n_cycles", 1e308),
            ("series_csv", "no/such/dir/points.csv"),
            ("seed", -1),
            ("seed", 3.9),
            ("seed", "3"),
            ("seed", True),
            ("jx_points", 10.5),
            ("jx_points", "10"),
            ("n_cycles", 10_000.5),
            ("n_cycles", "10000"),
            # once "need >= 3 points with jx <= nan", not naming the key
            ("fit_jx_max", float("nan")),
            ("fit_jx_max", -1),
            # once ran the whole fit, then exited 3 on the JSON write
            ("fit_jx_max", float("inf")),
            ("fit_jx_max", "1e999"),
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, key, value):
        assert run(tmp_path, "calibrate", {key: value}) == 2
        assert key in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "row, field, value",
        [(3, 1, "nan"), (4, 0, "inf"), (2, 2, "0"), (2, 2, "-0.01"),
         (5, 3, str(2**63))],
        ids=["nan-noise", "inf-jx", "zero-se", "negative-se", "n_cycles-past-int64"],
    )
    def test_bad_series_csv_exit_two(self, tmp_path, row, field, value):
        # a NaN or infinity once printed LAPACK "DLASCL" lines and exited 3,
        # and an se <= 0 did not name the key; a subprocess sees the LAPACK
        # lines, which bypass capsys
        rows = [[f"{0.2 * i:.17g}", f"{0.1 * i:.17g}", "0.01", "10000"]
                for i in range(1, 11)]
        rows[row][field] = value
        points = tmp_path / "points.csv"
        points.write_text("jx_proxy,normalized_noise,se,n_cycles\n"
                          + "".join(",".join(r) + "\n" for r in rows))
        code, err = run_subprocess(tmp_path, "calibrate", {"series_csv": str(points)})
        assert code == 2, err
        assert "'series_csv'" in err
        assert "DLASCL" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "rows",
        ["", "0.2,0.1,0.01,10000\n0.4,0.2,0.01\n", "0.2,0.1,0.01,10000,7\n"],
        ids=["header-only", "three-fields", "five-fields"],
    )
    def test_empty_or_ragged_series_csv_exit_two(self, tmp_path, capsys, rows):
        points = tmp_path / "points.csv"
        points.write_text("jx_proxy,normalized_noise,se,n_cycles\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(tmp_path, "calibrate", {"series_csv": str(points)}) == 2
        assert not caught
        assert "'series_csv'" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "config",
        [{"slope_per_unit": 1e160}, {"slope_per_unit": 1e308},
         {"quadratic_coeff": 1e308}],
    )
    def test_overflow_exits_three(self, tmp_path, config):
        # 1e160 once warned "overflow encountered in square" and exited 2
        # with "all selected jx are zero"
        code, err = run_subprocess(tmp_path, "calibrate", config)
        assert code == 3, err
        assert "RuntimeWarning" not in err
        assert "jx are zero" not in err
        assert "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    def test_integral_floats_accepted(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert run(tmp_path / "a", "calibrate", {"seed": 3.0, "n_cycles": 1e4}) == 0
        assert run(tmp_path / "b", "calibrate", {"seed": 3, "n_cycles": 10000}) == 0
        for name in ("calibration_points.csv", "calibration_fit.json"):
            assert digest(tmp_path / "a" / "out" / name) == digest(
                tmp_path / "b" / "out" / name
            )

    def test_negative_seed_flag_names_key(self, tmp_path, capsys):
        assert run(tmp_path, "calibrate", None, ["--seed", "-1"]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())


class TestMicroscopic:
    def test_reduction_report(self, tmp_path):
        config = {"bins": 4096, "sweep_bins": 1024}
        assert run(tmp_path, "microscopic", config) == 0
        report = json.loads((tmp_path / "out" / "microscopic.json").read_text())
        assert report["within_one_percent"] is True
        assert report["relative_deviation"] < 0.01
        assert report["leakage_loglog_slope"] == pytest.approx(-1.0, abs=0.15)
        sweep = (tmp_path / "out" / "microscopic_sweep.csv").read_text()
        assert sweep.startswith("omega_t,")

    def test_sweep_can_be_disabled(self, tmp_path):
        config = {"bins": 4096, "sweep": False}
        assert run(tmp_path, "microscopic", config) == 0
        assert not (tmp_path / "out" / "microscopic_sweep.csv").exists()
        report = json.loads((tmp_path / "out" / "microscopic.json").read_text())
        assert report["leakage_loglog_slope"] is None

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"sweep_bins": 100}, "sweep_bins"),
            ({"sweep_bins": 5}, "sweep_bins"),
            ({"target_coupling": float("nan")}, "target_coupling"),
            ({"larmor_frequency": float("nan")}, "larmor_frequency"),
            ({"target_coupling": 0.0}, "target_coupling"),
            ({"target_coupling": -1.0}, "target_coupling"),
            ({"bins": float("inf")}, "bins"),
            ({"sweep_bins": float("inf")}, "sweep_bins"),
            ({"bins": cli.MAX_TIME_BINS + 1}, "bins"),
            ({"bins": 1e12}, "bins"),
            ({"sweep_bins": cli.MAX_TIME_BINS + 1}, "sweep_bins"),
            ({"sweep_bins": 1e12}, "sweep_bins"),
            ({"sweep": "false"}, "sweep"),
            ({"sweep": "x"}, "sweep"),
            ({"sweep": [1]}, "sweep"),
            ({"sweep": 0.5}, "sweep"),
            ({"sweep": 0}, "sweep"),
            ({"sweep": None}, "sweep"),
            ({"bins": 4096.5}, "bins"),
            ({"bins": "4096"}, "bins"),
            ({"bins": True}, "bins"),
            ({"sweep_bins": 1024.5}, "sweep_bins"),
            ({"sweep_bins": "1024"}, "sweep_bins"),
            ({"sweep_bins": True}, "sweep_bins"),
            # no precession over the pulse: the sine weight has zero norm
            ({"larmor_frequency": 0}, "larmor_frequency"),
            ({"larmor_frequency": 1e-300}, "larmor_frequency"),
            ({"pulse_duration": 1e-300}, "pulse_duration"),
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, config, key):
        assert run(tmp_path, "microscopic", {"bins": 4096, **config}) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "microscopic.json").exists()


class TestLifetime:
    def test_crossing_and_monotonicity(self, tmp_path):
        assert run(tmp_path, "lifetime") == 0
        report = json.loads((tmp_path / "out" / "lifetime.json").read_text())
        assert report["crossing_ms"] == pytest.approx(4.0, abs=0.1)
        with open(tmp_path / "out" / "lifetime.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        fids = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(fids) <= 1e-12)
        classical = float(rows[0][2])
        assert report["classical_limit"] == pytest.approx(classical)
        svg = (tmp_path / "out" / "lifetime.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_hopeless_channel_exits_three(self, tmp_path, capsys):
        config = {"coupling": 0.2, "gain": 0.2}
        assert run(tmp_path, "lifetime", config) == 3
        assert "classical" in capsys.readouterr().err

    def test_overflowing_set_exits_three(self, tmp_path):
        # the classical benchmark overflows to NaN; that is not a bad crossing
        code, err = run_subprocess(tmp_path, "lifetime", {"n_max": 1e12})
        assert code == 3, err
        assert "crossing_ms" not in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("config", [{"atom_var_x": 1e308},
                                        {"excess_noise_rate": 1e308}])
    def test_huge_variance_exits_three_without_warning(self, tmp_path, config):
        # fidelity._channel_exponents once warned "overflow encountered in
        # scalar multiply" on the way
        code, err = run_subprocess(tmp_path, "lifetime", config)
        assert code == 3, err
        assert "RuntimeWarning" not in err
        assert "Traceback" not in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"t_step_ms": 0}, "t_step_ms"),
            ({"t_max_ms": -1}, "t_max_ms"),
            ({"n_min": 5, "n_max": 2}, "n_min"),
            ({"n_max": float("inf")}, "n_max"),
            ({"excess_noise_rate": float("nan")}, "excess_noise_rate"),
            ({"t_step_ms": 1e-9}, "t_step_ms"),  # once asked for 6e9 points
            ({"crossing_ms": 1e-6}, "crossing_ms"),  # below the tau bracket
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, config, key):
        code, err = run_subprocess(tmp_path, "lifetime", config)
        assert code == 2, err
        assert key in err
        assert "Traceback" not in err


SMALL_CONFIGS = {
    "store": STORE_CONFIG,
    "fidelity": None,
    "calibrate": {"seed": 3},
    "microscopic": {"bins": 4096, "sweep_bins": 1024},
    "lifetime": {"t_step_ms": 0.5},
}


@pytest.mark.parametrize("command", SMALL_CONFIGS)
def test_byte_identical_rerun(tmp_path, command):
    config = SMALL_CONFIGS[command]
    assert run(tmp_path, command, config) == 0
    first = {p.name: digest(p) for p in (tmp_path / "out").iterdir()}
    assert run(tmp_path, command, config) == 0
    second = {p.name: digest(p) for p in (tmp_path / "out").iterdir()}
    assert first == second


@pytest.mark.parametrize("command", ["fidelity", "microscopic", "lifetime"])
def test_seed_flag_only_where_there_is_a_seed(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, extra=["--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_write_removes_earlier_outputs(tmp_path, monkeypatch, capsys):
    def compute(cfg):
        return {
            "first.json": {"x": 1.0},
            "second.csv": (["label", "value"], (["a", "b"], np.array([1.0, np.nan]))),
        }

    monkeypatch.setitem(cli._COMMANDS, "fidelity", (cli.FIDELITY_FIELDS, compute))
    assert run(tmp_path, "fidelity") == 3
    err = capsys.readouterr().err
    assert "second.csv" in err and "nan in CSV output" in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "stream, config, env, code",
    [
        ("stdout", {"n_max": 4.0}, {}, 0),
        ("stdout", {"n_max": 4.0}, {"PYTHONUNBUFFERED": "1"}, 0),
        ("stderr", {"n_max": "four"}, {}, 2),
    ],
)
def test_closed_pipe_loses_only_the_message(tmp_path, stream, config, env, code):
    """A reader that has gone (``qmemsim ... | true``) changes no exit code
    and prints no traceback: a run loses its listing of the files written,
    a failure its error line."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = Path(qmemsim.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qmemsim.cli", "fidelity",
             "--config", str(path), "--out", str(tmp_path / "out")],
            **streams, text=True, timeout=60,
            env={"PATH": "", "PYTHONPATH": str(src), **env},
        )
    finally:
        os.close(write)
    assert proc.returncode == code
    assert (proc.stderr, proc.stdout) == (None, "") if stream == "stderr" else ("", None)
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ([] if code else ["boundaries.csv", "fidelity.csv", "fidelity.json"])


def write_reference(path, table):
    """The CSV format through the csv module, one row at a time."""
    header, *blocks = table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            for row in zip(*block):
                writer.writerow(
                    f"{v:.17g}" if isinstance(v, np.floating) else v for v in row
                )


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -1 / 3]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def blocks(draw, n_columns, finite=True):
    """A block of ``n_columns`` equal-length columns of random kinds."""
    n = draw(st.integers(0, 20))
    floats = st.one_of(
        st.sampled_from(EDGE_FLOATS + ([] if finite else NON_FINITE)),
        st.floats(allow_nan=not finite, allow_infinity=not finite),
    )
    kinds = {
        "float": lambda: np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                                  dtype=float),
        "int": lambda: np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                              min_size=n, max_size=n)),
                                dtype=np.int64),
        "range": lambda: range(draw(st.integers(-5, 5)), n * 1000, 1000)[:n],
        "label": lambda: draw(st.lists(
            st.text(st.characters(codec="ascii", categories=["L", "N"]),
                    min_size=1, max_size=8),
            min_size=n, max_size=n)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=n_columns,
                          max_size=n_columns))
    return tuple(kinds[name]() for name in names)


@st.composite
def tables(draw, finite=True):
    n_columns = draw(st.integers(1, 5))
    header = [f"c{i}" for i in range(n_columns)]
    return (header, *draw(st.lists(blocks(n_columns, finite), max_size=4)))


class TestTableWriter:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_matches_csv_module(self, tmp_path_factory, table):
        tmp = tmp_path_factory.mktemp("table")
        _write_table(tmp / "table.csv", table)
        write_reference(tmp / "reference.csv", table)
        assert (tmp / "table.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(table=tables(finite=False), data=st.data())
    def test_non_finite_raises_before_open(self, tmp_path_factory, table, data):
        bad = data.draw(st.sampled_from(NON_FINITE))
        at = data.draw(st.integers(0, len(table[0]) - 1))
        # one more block holding the non-finite value, among the drawn ones
        column = np.array([1.0, bad, 2.0])
        extra = tuple(column if i == at else range(3) for i in range(len(table[0])))
        drawn = list(table[1:])
        drawn.insert(data.draw(st.integers(0, len(drawn))), extra)
        path = tmp_path_factory.mktemp("table") / "table.csv"
        with pytest.raises(ValueError, match="in CSV output"):
            _write_table(path, (table[0], *drawn))
        assert not path.exists()

    def test_edge_values(self, tmp_path):
        values = np.array([-0.0, 5e-324, 0.1])
        path = tmp_path / "table.csv"
        _write_table(path, (["i", "arm", "v"], (range(3), ["p"] * 3, values)))
        assert path.read_bytes() == (
            b"i,arm,v\n0,p,-0\n1,p,4.9406564584124654e-324\n"
            b"2,p,0.10000000000000001\n"
        )


class TestChunkedWriter:
    """Blocks around the chunk size, and every column kind the CLI passes."""

    @staticmethod
    def mixed_block(n, seed):
        rng = np.random.default_rng(seed)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-12, 18, size=n)
        floats[::7] = 0.0
        floats[::11] = rng.choice(EDGE_FLOATS, size=floats[::11].size)
        labels = [f"l{i % 13}" for i in range(n)]
        return (
            floats,
            rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True),
            range(-3, 7 * n - 3, 7),
            itertools.repeat("p", n),
            labels,
            tuple(reversed(labels)),
        )

    @pytest.mark.parametrize("n", [_csv.CHUNK_ROWS - 1, _csv.CHUNK_ROWS,
                                   _csv.CHUNK_ROWS + 1])
    def test_blocks_around_the_chunk_size(self, tmp_path, n):
        header = ["float", "int", "range", "repeat", "list", "tuple"]
        table = (header, self.mixed_block(n, n), self.mixed_block(3, 0))
        reference = (header, self.mixed_block(n, n), self.mixed_block(3, 0))
        _write_table(tmp_path / "table.csv", table)
        write_reference(tmp_path / "reference.csv", reference)
        assert (tmp_path / "table.csv").read_bytes() == (
            tmp_path / "reference.csv").read_bytes()
        assert next(table[1][3], None) is None  # iterators are consumed

    def test_block_ends_with_its_shortest_column(self, tmp_path):
        block = (np.arange(5.0), range(3), iter(["a", "b", "c", "d"]))
        _write_table(tmp_path / "table.csv", (["a", "b", "c"], block))
        assert (tmp_path / "table.csv").read_bytes() == b"a,b,c\n0,0,a\n1,1,b\n2,2,c\n"


def test_unread_keys_are_still_checked(tmp_path, capsys):
    assert run(tmp_path, "microscopic", {"sweep": False, "sweep_bins": "x"}) == 2
    assert "sweep_bins" in capsys.readouterr().err
    assert run(tmp_path, "calibrate", {"seed": 3}) == 0
    points = tmp_path / "points.csv"
    (tmp_path / "out" / "calibration_points.csv").rename(points)
    config = {"series_csv": str(points), "jx_points": 2}
    assert run(tmp_path, "calibrate", config) == 2
    assert "jx_points" in capsys.readouterr().err


FUZZ_VALUES = [0, -1, 1e308, float("nan"), float("inf"), "x", None, 1e12,
               1e-300, [1], 0.5, 3]
FUZZ_BASE = {
    "store": {"input_x": 1.0, "input_p": -1.0, "n_trials": 200,
              "histogram_bins": 10},
    "fidelity": {},
    "calibrate": {"jx_points": 6, "n_cycles": 100},
    "microscopic": {"bins": 4096, "sweep_bins": 1024},
    "lifetime": {"t_max_ms": 1.0, "t_step_ms": 0.5},
}


NON_FINITE_TEXT = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
#: what Python float arithmetic says on its own: an errno tuple from ``**``
#: or a division by a square that underflowed to zero
BARE_ARITHMETIC = re.compile(
    r"numerical failure: (\(\d+, '[^']*'\)|float division by zero)\n\Z"
)


def _reject_constant(token):
    raise ValueError(f"{token} in JSON output")


def test_config_contract_fuzz(tmp_path, capsys):
    """Every key of every subcommand's field table, over awkward values.

    Each run exits 0, 2 or 3 with no exception escaping and no warning
    leaked.  Exit 2 writes nothing and names the key under test; exit 3
    prints its one-line message alone, names the key under test in
    quotes, and is more than Python's bare arithmetic error or numpy's
    "... encountered in <ufunc>"; exit 0 writes no NaN or Infinity into
    any JSON or SVG file.
    """
    assert set(FUZZ_BASE) == set(cli._COMMANDS)
    cases = [
        (command, key, value)
        for command, (fields, _) in cli._COMMANDS.items()
        for key in fields
        for value in FUZZ_VALUES
    ]
    broken = []
    for n, (command, key, value) in enumerate(cases):
        case = tmp_path / str(n)
        case.mkdir()
        try:
            # recorded, not ignored: no run of any exit code may warn
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(case, command, {**FUZZ_BASE[command], key: value})
        except Exception as exc:  # noqa: BLE001 - every escape is a finding
            broken.append((command, key, value, repr(exc)))
            continue
        err = capsys.readouterr().err
        written = list((case / "out").iterdir())
        if code not in (0, 2, 3) or (code == 2 and written):
            broken.append((command, key, value, f"exit {code}", written))
        if code == 2 and key not in err:
            broken.append((command, key, value, "key not named", err))
        if caught:
            broken.append((command, key, value, [str(w.message) for w in caught]))
        if code == 3 and f"'{key}'" not in err:
            broken.append((command, key, value, "key not named in quotes", err))
        if code == 3 and err.count("\n") != 1:
            broken.append((command, key, value, "more than one line", err))
        if code == 3 and BARE_ARITHMETIC.match(err):
            broken.append((command, key, value, "names nothing", err))
        if code == 3 and "encountered in" in err:
            broken.append((command, key, value, "names only the ufunc", err))
        for path in written if code == 0 else ():
            if path.suffix == ".json":
                try:
                    json.loads(path.read_text(), parse_constant=_reject_constant)
                except ValueError as exc:
                    broken.append((command, key, value, path.name, str(exc)))
            if path.suffix == ".svg" and NON_FINITE_TEXT.search(path.read_text()):
                broken.append((command, key, value, path.name, "not finite"))
    assert not broken


@pytest.mark.parametrize("command, config, key", [
    ("fidelity", {"n_max": 4300}, "n_max"),  # NaN steps in the minimiser
    ("fidelity", {"n_max": 1e12}, "n_max"),
    ("fidelity", {"n_max": 1e154}, "n_max"),
    ("fidelity", {"n_max": 1e200}, "n_max"),
    ("fidelity", {"n_max": 1e308}, "n_max"),
    ("store", {"coupling": 1e200}, "coupling"),
    ("store", {"gain": 1e154}, "gain"),
    ("store", {"readout_coupling": 1e308}, "readout_coupling"),
    ("store", {"readout_coupling": 1e-160}, "readout_coupling"),
    ("store", {"atom_var_x": 1e308}, "atom_var_x"),
    ("store", {"atom_var_p": 1e30}, "atom_var_p"),
    ("microscopic", {"target_coupling": 1e308}, "target_coupling"),
    ("microscopic", {"collective_spin": 1e308}, "collective_spin"),
    ("lifetime", {"n_max": 4300}, "n_max"),  # NaN steps in the minimiser
    ("lifetime", {"n_max": 1e12}, "n_max"),
    # the channel never beats the classical benchmark
    ("lifetime", {"gain": -1}, "gain"),
    ("lifetime", {"coupling": 50}, "coupling"),
    ("lifetime", {"crossing_ms": 1e9}, "crossing_ms"),
    ("lifetime", {"coupling": 1e200}, "coupling"),  # the stored variance overflows
    ("calibrate", {"jx_max": 1e300}, "jx_max"),
    ("calibrate", {"quadratic_coeff": 1e300}, "quadratic_coeff"),
    ("store", {"input_x": 1e200, "input_p": 0}, "input_x"),  # too narrow to bin
])
def test_overflow_names_the_key(tmp_path, capsys, command, config, key):
    """An overflow, or another numerical failure that a config value
    causes, exits 3 before any file is written, naming the key."""
    assert run(tmp_path, command, {**FUZZ_BASE[command], **config}) == 3
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "encountered in" not in err
    assert not list((tmp_path / "out").iterdir())


class TestBadValue:
    """``cli._bad_value``: the one rule that names the keys of a failure."""

    @staticmethod
    def raised(exc, *keys, what="the channel overflows"):
        with pytest.raises(Exception) as info:
            with cli._bad_value(*keys, what=what):
                raise exc
        return info.value

    @pytest.mark.parametrize("keys, names", [
        (("a",), "'a'"),
        (("a", "b"), "'a' or 'b'"),
        (("a", "b", "c"), "'a', 'b' or 'c'"),
    ])
    def test_names_every_key(self, keys, names):
        exc = self.raised(ValueError("too small"), *keys)
        assert str(exc) == f"bad value for {names}: too small"

    @pytest.mark.parametrize("error", [ValueError("x"), OSError("x"),
                                       FileNotFoundError(2, "no such file")])
    def test_domain_errors_exit_two(self, error):
        exc = self.raised(error, "a")
        assert type(exc) is ValueError
        assert exc.__cause__ is error

    @pytest.mark.parametrize("error", [RuntimeError("x"), ZeroDivisionError("x"),
                                       OverflowError("x"),
                                       np.linalg.LinAlgError("x")])
    def test_numerical_errors_exit_three(self, error):
        exc = self.raised(error, "a")
        assert type(exc) is FloatingPointError
        assert str(exc) == "bad value for 'a': x"

    def test_numpy_message_gives_way_to_what(self):
        with pytest.raises(FloatingPointError) as info:
            with np.errstate(over="raise"), cli._bad_value("a", what="the channel overflows"):
                np.float64(1e300) * np.float64(1e300)
        assert str(info.value) == "bad value for 'a': the channel overflows"
        assert "encountered in" not in str(info.value)

    def test_library_message_is_kept(self):
        error = FloatingPointError("cannot bin outcomes in [-5e+199, -5e+199]")
        exc = self.raised(error, "a", "b")
        assert str(exc) == (
            "bad value for 'a' or 'b': cannot bin outcomes in [-5e+199, -5e+199]"
        )

    def test_exit_codes_through_main(self, monkeypatch, tmp_path, capsys):
        for error, code in ((ValueError("v"), 2), (RuntimeError("r"), 3)):
            def compute(cfg, error=error):
                with cli._bad_value("seed"):
                    raise error

            monkeypatch.setitem(cli._COMMANDS, "store", (cli.STORE_FIELDS, compute))
            assert run(tmp_path, "store", STORE_CONFIG) == code
            assert "bad value for 'seed': " in capsys.readouterr().err
