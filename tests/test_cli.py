"""End-to-end CLI tests: files, determinism, exit codes."""

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmemsim
from qmemsim import cli
from qmemsim.cli import _write_csv, _write_trials_csv, main
from qmemsim.fidelity import MAX_NODES
from qmemsim.montecarlo import ARM_P, ARM_X, TrialSeries


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

    def test_seed_flag_overrides_config(self, tmp_path):
        assert run(tmp_path, "store", STORE_CONFIG) == 0
        base = digest(tmp_path / "out" / "trials.csv")
        assert run(tmp_path, "store", STORE_CONFIG, ["--seed", "8"]) == 0
        assert digest(tmp_path / "out" / "trials.csv") != base

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
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, key, value):
        assert run(tmp_path, "store", {**STORE_CONFIG, key: value}) == 2
        assert key in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_trials_writer_matches_generic_csv(self, tmp_path):
        values = np.array([-0.0, 5e-324, -5e-324, 1e308, -1e308, -2.5,
                           -1 / 3, 0.1, np.inf, -np.inf, np.nan])
        series = [
            TrialSeries(ARM_P, values, -values[::-1]),
            TrialSeries(ARM_X, values[::-1], values),
        ]
        _write_trials_csv(tmp_path / "columns.csv", series)
        _write_csv(
            tmp_path / "rows.csv",
            ["trial_id", "arm", "feedback_outcome", "verification_outcome"],
            (
                (i, s.arm, f, v)
                for s in series
                for i, (f, v) in enumerate(zip(s.feedback, s.verification))
            ),
        )
        columns = (tmp_path / "columns.csv").read_bytes()
        assert columns == (tmp_path / "rows.csv").read_bytes()
        assert b"\n0,p,-0,nan\n" in columns
        assert b"\n1,x,-inf,4.9406564584124654e-324\n" in columns


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
        ],
    )
    def test_bad_value_exit_two(self, tmp_path, capsys, key, value):
        assert run(tmp_path, "calibrate", {key: value}) == 2
        assert key in capsys.readouterr().err
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


def _reject_constant(token):
    raise ValueError(f"{token} in JSON output")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_config_contract_fuzz(tmp_path, capsys):
    """Every key of every subcommand's field table, over awkward values.

    Each run exits 0, 2 or 3 with no exception escaping; exit 2 writes
    nothing, and exit 0 writes no NaN or Infinity into any JSON file.
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
            code = run(case, command, {**FUZZ_BASE[command], key: value})
        except Exception as exc:  # noqa: BLE001 - every escape is a finding
            broken.append((command, key, value, repr(exc)))
            continue
        written = list((case / "out").iterdir())
        if code not in (0, 2, 3) or (code == 2 and written):
            broken.append((command, key, value, f"exit {code}", written))
        for path in written if code == 0 else ():
            if path.suffix == ".json":
                try:
                    json.loads(path.read_text(), parse_constant=_reject_constant)
                except ValueError as exc:
                    broken.append((command, key, value, path.name, str(exc)))
    capsys.readouterr()
    assert not broken
