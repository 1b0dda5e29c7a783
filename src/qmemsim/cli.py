"""Batch front end: run configured experiments, emit tables and plots.

Subcommands::

    qmemsim store       --config run.json --out results/
    qmemsim fidelity    [--config ...] --out results/
    qmemsim calibrate   [--config ...] --out results/
    qmemsim microscopic [--config ...] --out results/
    qmemsim lifetime    [--config ...] --out results/

Each run is a pure function of (config, seed): outputs carry no
timestamps, floats are written with 17 significant digits, and CSV files
use comma separators with LF line endings.  Exit status is 0 on success,
2 for configuration errors (the message names the offending key), 3 for
numerical failures such as quadrature or fit non-convergence, overflow,
or a result that is not finite.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, decoherence, microscopic, montecarlo, plots
from .fidelity import (
    CoherentSet,
    QuadratureSpec,
    average_fidelity,
    classical_fidelity,
    classical_variance_bound,
    optimize_classical_gain,
)
from .protocol import ChannelSummary, StorageParams

ALL_FORMATS = ("csv", "json", "svg")
#: longest lifetime curve, in time points (t_max_ms / t_step_ms)
MAX_CURVE_POINTS = 100_000
# Caps on the count keys: the largest accepted run stays well under 1 GiB
# peak RSS (about 200 MiB for store, 350 MiB for calibrate and microscopic).
MAX_TRIALS = 1_000_000  # per verification arm
MAX_HISTOGRAM_BINS = 100_000
MAX_JX_POINTS = 1_000_000
MAX_CYCLES = 10**12  # sets only the chi-squared degrees of freedom
MAX_TIME_BINS = 1_000_000  # bins and sweep_bins
#: exceptions from compute or writing that mean a numerical failure (exit 3)
_NUMERICAL = (RuntimeError, ArithmeticError, np.linalg.LinAlgError)


class ConfigError(Exception):
    pass


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trials_csv(path, series):
    """``trials.csv`` from the columns; the bytes :func:`_write_csv` gives."""
    with open(path, "w", newline="") as fh:
        fh.write("trial_id,arm,feedback_outcome,verification_outcome\n")
        for s in series:
            rows = enumerate(zip(s.feedback.tolist(), s.verification.tolist()))
            fh.writelines(f"{i},{s.arm},{f:.17g},{v:.17g}\n" for i, (f, v) in rows)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path, obj):
    """Raises ``ValueError`` on a NaN or infinity, before opening ``path``."""
    text = json.dumps(_jsonify(obj), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


_REQUIRED = object()


def _resolve(command, config, fields):
    """The whole config: every key converted and checked, read or not."""
    unknown = set(config) - set(fields)
    if unknown:
        raise ConfigError(f"{command}: unknown config key {sorted(unknown)[0]!r}")
    resolved = {}
    for key, (convert, default) in fields.items():
        if key not in config:
            if default is _REQUIRED:
                raise ConfigError(f"{command}: missing required config key {key!r}")
            resolved[key] = default
            continue
        try:
            resolved[key] = convert(config[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{command}: bad value for {key!r}: {exc}")
    return resolved


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _positive(raw):
    value = _finite(raw)
    if value <= 0:
        raise ValueError(f"{value} is not positive")
    return value


def _nonnegative(raw):
    value = _finite(raw)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _count(low, high):
    def convert(raw):
        value = int(raw)
        if not low <= value <= high:
            raise ValueError(f"{value} is outside [{low}, {high}]")
        return value

    return convert


_STORAGE_FIELDS = {
    "coupling": (float, 1.0),
    "gain": (float, 1.0),
    "readout_coupling": (float, 1.0),
    "atom_var_x": (float, 0.5),
    "atom_var_p": (float, 0.5),
}


def _storage_params(cfg):
    return StorageParams(**{key: cfg[key] for key in _STORAGE_FIELDS})


STORE_FIELDS = {
    "input_x": (_finite, _REQUIRED),
    "input_p": (_finite, _REQUIRED),
    "n_trials": (_count(montecarlo.MIN_TRIALS, MAX_TRIALS), 10_000),
    "seed": (int, 0),
    "histogram_bins": (_count(montecarlo.MIN_BINS, MAX_HISTOGRAM_BINS), 60),
    **_STORAGE_FIELDS,
}


def compute_store(cfg):
    input_mean = (cfg["input_x"], cfg["input_p"])
    params = _storage_params(cfg)
    series = {
        arm: montecarlo.run_series(input_mean, params, arm, cfg["n_trials"], cfg["seed"])
        for arm in (montecarlo.ARM_P, montecarlo.ARM_X)
    }
    k_r = params.readout_coupling
    hists = {}
    for arm, trials in series.items():
        ref_mean, ref_sd = montecarlo.ideal_reference(params, arm, input_mean)
        hists[arm] = montecarlo.make_histogram(
            trials, bins=cfg["histogram_bins"], scale=montecarlo.ARM_SIGN[arm] / k_r,
            ref_mean=ref_mean, ref_sd=ref_sd,
        )
    recon = montecarlo.estimate_channel(
        series[montecarlo.ARM_P], series[montecarlo.ARM_X], k_r
    )

    x_in, p_in = input_mean
    report = {
        "reconstructed": {
            "mean_x": recon.mean_x,
            "mean_p": recon.mean_p,
            "var_x": recon.var_x,
            "var_p": recon.var_p,
            "se_mean_x": recon.se_mean_x,
            "se_mean_p": recon.se_mean_p,
            "se_var_x": recon.se_var_x,
            "se_var_p": recon.se_var_p,
        },
        "gains": {
            "gain_x": recon.mean_x / p_in if p_in else None,
            "gain_p": -recon.mean_p / x_in if x_in else None,
        },
        "histogram_reference": {
            arm: {"mean": h.ref_mean, "sd": h.ref_sd, "scale": h.scaled_by}
            for arm, h in sorted(hists.items())
        },
        "n_trials": cfg["n_trials"],
        "seed": cfg["seed"],
    }
    return {
        "trials.csv": lambda path: _write_trials_csv(path, series.values()),
        "histograms.csv": lambda path: _write_csv(
            path,
            ["arm", "bin_left", "bin_right", "count"],
            (
                (arm, h.bin_edges[i], h.bin_edges[i + 1], int(h.counts[i]))
                for arm, h in sorted(hists.items())
                for i in range(len(h.counts))
            ),
        ),
        "reconstructed.json": lambda path: _write_json(path, report),
        "histograms.svg": lambda path: path.write_text(
            plots.histogram_svg(
                [hists[montecarlo.ARM_X], hists[montecarlo.ARM_P]],
                titles=["stored X (rotated readout)", "stored P (direct readout)"],
            ),
        ),
    }


FIDELITY_FIELDS = {
    "n_min": (float, 0.0),
    "n_max": (float, 8.0),
    "gain_x": (float, None),
    "gain_p": (float, None),
    "var_x": (float, None),
    "var_p": (float, None),
    "quad_tol": (_finite, 1e-10),
}


def compute_fidelity(cfg):
    channel_keys = [cfg[k] for k in ("gain_x", "gain_p", "var_x", "var_p")]
    configured = all(v is not None for v in channel_keys)
    if not configured and any(v is not None for v in channel_keys):
        raise ValueError("provide all of gain_x, gain_p, var_x, var_p or none")
    cset = CoherentSet(cfg["n_min"], cfg["n_max"])
    quad = QuadratureSpec(tol=cfg["quad_tol"])
    channel = ChannelSummary(*channel_keys) if configured else None

    rows = []
    ideal = ChannelSummary(1.0, 1.0, 1.0, 0.5)
    rows.append(
        ("ideal_css_protocol", 1.0, 1.0, 1.0, 0.5,
         average_fidelity(cset, ideal, quad))
    )
    if configured:
        rows.append(
            ("configured_channel", *channel_keys,
             average_fidelity(cset, channel, quad))
        )
    g_opt, f_max = optimize_classical_gain(cset.n_min, cset.n_max)
    rows.append(("classical_optimum", None, None, None, None, f_max))
    rows.append(
        ("classical_unit_gain", None, None, None, None,
         classical_fidelity(1.0, cset.n_min, cset.n_max))
    )

    g_report = round(g_opt, 3)
    bound_pn_g1 = 2.0 * classical_variance_bound(1.0)
    bound_pn_opt = 2.0 * classical_variance_bound(g_report)
    boundaries = {
        "arbitrary_input_bound_pn": bound_pn_g1,
        "set_optimal_gain": g_opt,
        "set_optimal_gain_reported": g_report,
        "set_bound_pn": bound_pn_opt,
        "set_bound_33pct_below_pn": 0.67 * bound_pn_opt,
    }
    return {
        "fidelity.csv": lambda path: _write_csv(
            path,
            ["label", "gain_x", "gain_p", "var_x", "var_p", "value"],
            (
                [label] + ["" if v is None else v for v in rest]
                for label, *rest in rows
            ),
        ),
        "boundaries.csv": lambda path: _write_csv(
            path, ["label", "value"], sorted(boundaries.items())
        ),
        "fidelity.json": lambda path: _write_json(
            path,
            {
                "set": {"n_min": cset.n_min, "n_max": cset.n_max},
                "fidelities": {
                    label: value for label, *_, value in rows
                },
                "classical_optimum": {"gain": g_opt, "fidelity": f_max},
                "boundaries": boundaries,
            },
        ),
    }


CALIBRATE_FIELDS = {
    "series_csv": (str, None),
    "slope_per_unit": (_finite, 0.5),
    "quadratic_coeff": (_finite, 0.0),
    "jx_min": (_finite, 0.1),
    "jx_max": (_finite, 2.0),
    "jx_points": (_count(3, MAX_JX_POINTS), 10),
    "n_cycles": (_count(2, MAX_CYCLES), 10_000),
    "seed": (int, 0),
    "fit_jx_max": (float, None),
}


def compute_calibrate(cfg):
    if cfg["series_csv"] is not None:
        try:
            points = calibration.read_points_csv(cfg["series_csv"])
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad value for 'series_csv': {exc}")
    else:
        jx = np.linspace(cfg["jx_min"], cfg["jx_max"], cfg["jx_points"])
        points = calibration.synthesize_series(
            cfg["slope_per_unit"], cfg["quadratic_coeff"], jx, cfg["n_cycles"], cfg["seed"]
        )
    fit = calibration.fit_pnl(points, cfg["fit_jx_max"])
    return {
        "calibration_points.csv": lambda path: calibration.write_points_csv(points, path),
        "calibration_fit.json": lambda path: _write_json(
            path,
            {
                "slope": fit.slope,
                "slope_se": fit.slope_se,
                "quadratic_coeff": fit.quadratic_coeff,
                "chi2_per_dof": fit.chi2_per_dof,
                "n_used": fit.n_used,
                "jx_cut": fit.jx_cut,
            },
        ),
    }


MICROSCOPIC_FIELDS = {
    "target_coupling": (float, 1.0),
    "bins": (_count(1, MAX_TIME_BINS), 10_000),
    "larmor_frequency": (float, 2 * np.pi * 322e3),
    "pulse_duration": (float, 1e-3),
    "collective_spin": (float, 1.2e12),
    "sweep": (bool, True),
    "sweep_bins": (_count(1, MAX_TIME_BINS), 4096),
}


def compute_microscopic(cfg):
    params = microscopic.tuned_params(
        cfg["target_coupling"],
        bins=cfg["bins"],
        larmor_frequency=cfg["larmor_frequency"],
        pulse_duration=cfg["pulse_duration"],
        collective_spin=cfg["collective_spin"],
    )
    couplings = microscopic.demodulate(microscopic.propagate_binned(params))
    k_theory = microscopic.theoretical_coupling(params)
    rel_dev = abs(couplings.coupling - k_theory) / k_theory

    sweep_rows = []
    slope = None
    if cfg["sweep"]:
        try:
            sweep_rows = microscopic.omega_t_sweep(
                microscopic.pinned_phase_omega_t(),
                bins=cfg["sweep_bins"],
                target_coupling=cfg["target_coupling"],
                pulse_duration=cfg["pulse_duration"],
                collective_spin=cfg["collective_spin"],
            )
        except ValueError as exc:
            # the other keys already built valid params above
            raise ValueError(f"bad value for 'sweep_bins': {exc}")
        slope = float(
            np.polyfit(
                np.log([r["omega_t"] for r in sweep_rows]),
                np.log([r["sine_leakage"] for r in sweep_rows]),
                1,
            )[0]
        )

    report = {
        "coupling_effective": couplings.coupling,
        "coupling_write": couplings.coupling_write,
        "coupling_read": couplings.coupling_read,
        "coupling_theory": k_theory,
        "relative_deviation": rel_dev,
        "within_one_percent": bool(rel_dev < 0.01),
        "spurious": couplings.spurious(),
        "leakage_loglog_slope": slope,
    }
    outputs = {"microscopic.json": lambda path: _write_json(path, report)}
    if sweep_rows:
        outputs["microscopic_sweep.csv"] = lambda path: _write_csv(
            path,
            list(sweep_rows[0].keys()),
            (list(r.values()) for r in sweep_rows),
        )
    return outputs


LIFETIME_FIELDS = {
    "n_min": (float, 0.0),
    "n_max": (float, 10.0),
    "excess_noise_rate": (_nonnegative, 0.5),
    "crossing_ms": (_positive, 4.0),
    "t_max_ms": (_nonnegative, 6.0),
    "t_step_ms": (_positive, 0.1),
    **_STORAGE_FIELDS,
}


def compute_lifetime(cfg):
    cset = CoherentSet(cfg["n_min"], cfg["n_max"])
    params = _storage_params(cfg)
    stop = cfg["t_max_ms"] * 1e-3 + 1e-12
    step = cfg["t_step_ms"] * 1e-3
    # np.arange gives ceil(stop / step) points; count them before allocating
    if not stop <= MAX_CURVE_POINTS * step:
        raise ValueError(
            f"bad value for 't_step_ms': {cfg['t_step_ms']} ms up to t_max_ms "
            f"{cfg['t_max_ms']} ms gives more than {MAX_CURVE_POINTS} time points"
        )
    try:
        decay = decoherence.calibrate_tau(
            cset,
            params,
            cfg["crossing_ms"] * 1e-3,
            excess_noise_rate=cfg["excess_noise_rate"],
        )
    except ValueError as exc:
        raise ValueError(f"bad value for 'crossing_ms': {exc}")
    times = np.arange(0.0, stop, step)
    fids = decoherence.fidelity_vs_time(cset, params, decay, times)
    _, f_class = optimize_classical_gain(cset.n_min, cset.n_max)
    crossing = decoherence.crossing_time(times, fids, f_class)
    return {
        "lifetime.csv": lambda path: _write_csv(
            path,
            ["t_ms", "fidelity", "classical_limit"],
            ((t * 1e3, f, f_class) for t, f in zip(times, fids)),
        ),
        "lifetime.json": lambda path: _write_json(
            path,
            {
                "tau_ms": decay.tau * 1e3,
                "excess_noise_rate": decay.excess_noise_rate,
                "classical_limit": f_class,
                "crossing_ms": None if crossing is None else crossing * 1e3,
                "fidelity_at_zero": fids[0],
            },
        ),
        "lifetime.svg": lambda path: path.write_text(
            plots.line_svg(
                times * 1e3,
                {"memory fidelity": fids},
                x_label="storage time (ms)",
                y_label="fidelity",
                hlines=[("classical limit", f_class)],
            ),
        ),
    }


_COMMANDS = {
    "store": (STORE_FIELDS, compute_store),
    "fidelity": (FIDELITY_FIELDS, compute_fidelity),
    "calibrate": (CALIBRATE_FIELDS, compute_calibrate),
    "microscopic": (MICROSCOPIC_FIELDS, compute_microscopic),
    "lifetime": (LIFETIME_FIELDS, compute_lifetime),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qmemsim",
        description="Measurement-feedback quantum-memory simulation runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON config file")
        cmd.add_argument("--out", type=Path, default=Path("."),
                         help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument(
            "--format",
            action="append",
            choices=ALL_FORMATS,
            default=None,
            help="emit only these formats (repeatable; default: all)",
        )
    return parser


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    formats = tuple(args.format) if args.format else ALL_FORMATS
    fields, compute = _COMMANDS[args.command]
    try:
        config = {}
        if args.config is not None:
            try:
                config = json.loads(Path(args.config).read_text())
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
        args.out.mkdir(parents=True, exist_ok=True)
        cfg = _resolve(args.command, config, fields)
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = args.seed
        outputs = compute(cfg)
    except ConfigError as exc:
        return _fail(2, f"error: {exc}")
    except _NUMERICAL as exc:
        return _fail(3, f"numerical failure: {exc}")
    except ValueError as exc:  # a domain check in the library, for this config
        return _fail(2, f"error: {args.command}: {exc}")
    written = []
    for name, write in outputs.items():
        if Path(name).suffix[1:] in formats:
            path = args.out / name
            try:
                write(path)
            except (ValueError, *_NUMERICAL) as exc:
                return _fail(3, f"numerical failure: {path}: {exc}")
            written.append(path)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
