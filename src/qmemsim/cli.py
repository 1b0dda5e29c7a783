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
numerical failures such as quadrature or fit non-convergence.
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
    with open(path, "w") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


class _Schema:
    """Typed config reader: rejects unknown keys, names missing ones."""

    def __init__(self, command, config, fields):
        self.command = command
        self.fields = fields
        unknown = set(config) - set(fields)
        if unknown:
            raise ConfigError(
                f"{command}: unknown config key {sorted(unknown)[0]!r}"
            )
        self.config = config

    def get(self, key):
        convert, default = self.fields[key]
        if key not in self.config:
            if default is _REQUIRED:
                raise ConfigError(
                    f"{self.command}: missing required config key {key!r}"
                )
            return default
        try:
            return convert(self.config[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.command}: bad value for {key!r}: {exc}")


_REQUIRED = object()


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


def _at_least(low):
    def convert(raw):
        value = int(raw)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value

    return convert


def _storage_params(schema):
    try:
        return StorageParams(
            coupling=schema.get("coupling"),
            gain=schema.get("gain"),
            readout_coupling=schema.get("readout_coupling"),
            atom_var_x=schema.get("atom_var_x"),
            atom_var_p=schema.get("atom_var_p"),
        )
    except ValueError as exc:
        raise ConfigError(f"{schema.command}: {exc}")


_STORAGE_FIELDS = {
    "coupling": (float, 1.0),
    "gain": (float, 1.0),
    "readout_coupling": (float, 1.0),
    "atom_var_x": (float, 0.5),
    "atom_var_p": (float, 0.5),
}


def cmd_store(config, out, formats, seed_override=None):
    schema = _Schema(
        "store",
        config,
        {
            "input_x": (_finite, _REQUIRED),
            "input_p": (_finite, _REQUIRED),
            "n_trials": (_at_least(montecarlo.MIN_TRIALS), 10_000),
            "seed": (int, 0),
            "histogram_bins": (_at_least(montecarlo.MIN_BINS), 60),
            **_STORAGE_FIELDS,
        },
    )
    input_mean = (schema.get("input_x"), schema.get("input_p"))
    params = _storage_params(schema)
    n_trials = schema.get("n_trials")
    seed = seed_override if seed_override is not None else schema.get("seed")
    bins = schema.get("histogram_bins")

    series = {
        arm: montecarlo.run_series(input_mean, params, arm, n_trials, seed)
        for arm in (montecarlo.ARM_P, montecarlo.ARM_X)
    }
    k_r = params.readout_coupling
    hists = {}
    for arm, trials in series.items():
        ref_mean, ref_sd = montecarlo.ideal_reference(params, arm, input_mean)
        hists[arm] = montecarlo.make_histogram(
            trials, bins=bins, scale=montecarlo.ARM_SIGN[arm] / k_r,
            ref_mean=ref_mean, ref_sd=ref_sd,
        )
    recon = montecarlo.estimate_channel(
        series[montecarlo.ARM_P], series[montecarlo.ARM_X], k_r
    )

    written = []
    if "csv" in formats:
        path = out / "trials.csv"
        _write_trials_csv(path, series.values())
        written.append(path)
        path = out / "histograms.csv"
        _write_csv(
            path,
            ["arm", "bin_left", "bin_right", "count"],
            (
                (arm, h.bin_edges[i], h.bin_edges[i + 1], int(h.counts[i]))
                for arm, h in sorted(hists.items())
                for i in range(len(h.counts))
            ),
        )
        written.append(path)
    if "json" in formats:
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
            "n_trials": n_trials,
            "seed": seed,
        }
        path = out / "reconstructed.json"
        _write_json(path, report)
        written.append(path)
    if "svg" in formats:
        path = out / "histograms.svg"
        _write_text(
            path,
            plots.histogram_svg(
                [hists[montecarlo.ARM_X], hists[montecarlo.ARM_P]],
                titles=["stored X (rotated readout)", "stored P (direct readout)"],
            ),
        )
        written.append(path)
    return written


def cmd_fidelity(config, out, formats, seed_override=None):
    schema = _Schema(
        "fidelity",
        config,
        {
            "n_min": (float, 0.0),
            "n_max": (float, 8.0),
            "gain_x": (float, None),
            "gain_p": (float, None),
            "var_x": (float, None),
            "var_p": (float, None),
            "quad_tol": (_finite, 1e-10),
        },
    )
    channel_keys = [schema.get(k) for k in ("gain_x", "gain_p", "var_x", "var_p")]
    configured = all(v is not None for v in channel_keys)
    if not configured and any(v is not None for v in channel_keys):
        raise ConfigError(
            "fidelity: provide all of gain_x, gain_p, var_x, var_p or none"
        )
    try:
        cset = CoherentSet(schema.get("n_min"), schema.get("n_max"))
        quad = QuadratureSpec(tol=schema.get("quad_tol"))
        channel = ChannelSummary(*channel_keys) if configured else None
    except ValueError as exc:
        raise ConfigError(f"fidelity: {exc}")

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

    written = []
    if "csv" in formats:
        path = out / "fidelity.csv"
        _write_csv(
            path,
            ["label", "gain_x", "gain_p", "var_x", "var_p", "value"],
            (
                [label] + ["" if v is None else v for v in rest]
                for label, *rest in rows
            ),
        )
        written.append(path)
        path = out / "boundaries.csv"
        _write_csv(
            path, ["label", "value"], sorted(boundaries.items())
        )
        written.append(path)
    if "json" in formats:
        path = out / "fidelity.json"
        _write_json(
            path,
            {
                "set": {"n_min": cset.n_min, "n_max": cset.n_max},
                "fidelities": {
                    label: value for label, *_, value in rows
                },
                "classical_optimum": {"gain": g_opt, "fidelity": f_max},
                "boundaries": boundaries,
            },
        )
        written.append(path)
    return written


def cmd_calibrate(config, out, formats, seed_override=None):
    schema = _Schema(
        "calibrate",
        config,
        {
            "series_csv": (str, None),
            "slope_per_unit": (float, 0.5),
            "quadratic_coeff": (float, 0.0),
            "jx_min": (float, 0.1),
            "jx_max": (float, 2.0),
            "jx_points": (_at_least(3), 10),
            "n_cycles": (_at_least(2), 10_000),
            "seed": (int, 0),
            "fit_jx_max": (float, None),
        },
    )
    source = schema.get("series_csv")
    try:
        if source is not None:
            points = calibration.read_points_csv(source)
        else:
            seed = seed_override if seed_override is not None else schema.get("seed")
            jx = np.linspace(
                schema.get("jx_min"), schema.get("jx_max"), schema.get("jx_points")
            )
            points = calibration.synthesize_series(
                schema.get("slope_per_unit"),
                schema.get("quadratic_coeff"),
                jx,
                schema.get("n_cycles"),
                seed,
            )
        fit = calibration.fit_pnl(points, schema.get("fit_jx_max"))
    except ValueError as exc:
        raise ConfigError(f"calibrate: {exc}")

    written = []
    if "csv" in formats:
        path = out / "calibration_points.csv"
        calibration.write_points_csv(points, path)
        written.append(path)
    if "json" in formats:
        path = out / "calibration_fit.json"
        _write_json(
            path,
            {
                "slope": fit.slope,
                "slope_se": fit.slope_se,
                "quadratic_coeff": fit.quadratic_coeff,
                "chi2_per_dof": fit.chi2_per_dof,
                "n_used": fit.n_used,
                "jx_cut": fit.jx_cut,
            },
        )
        written.append(path)
    return written


def cmd_microscopic(config, out, formats, seed_override=None):
    schema = _Schema(
        "microscopic",
        config,
        {
            "target_coupling": (float, 1.0),
            "bins": (int, 10_000),
            "larmor_frequency": (float, 2 * np.pi * 322e3),
            "pulse_duration": (float, 1e-3),
            "collective_spin": (float, 1.2e12),
            "sweep": (bool, True),
            "sweep_bins": (int, 4096),
        },
    )
    try:
        params = microscopic.tuned_params(
            schema.get("target_coupling"),
            bins=schema.get("bins"),
            larmor_frequency=schema.get("larmor_frequency"),
            pulse_duration=schema.get("pulse_duration"),
            collective_spin=schema.get("collective_spin"),
        )
    except ValueError as exc:
        raise ConfigError(f"microscopic: {exc}")
    couplings = microscopic.demodulate(microscopic.propagate_binned(params))
    k_theory = microscopic.theoretical_coupling(params)
    rel_dev = abs(couplings.coupling - k_theory) / k_theory

    sweep_rows = []
    slope = None
    if schema.get("sweep"):
        try:
            sweep_rows = microscopic.omega_t_sweep(
                microscopic.pinned_phase_omega_t(),
                bins=schema.get("sweep_bins"),
                target_coupling=schema.get("target_coupling"),
                pulse_duration=schema.get("pulse_duration"),
                collective_spin=schema.get("collective_spin"),
            )
        except ValueError as exc:
            # the other keys already built valid params above
            raise ConfigError(f"microscopic: bad value for 'sweep_bins': {exc}")
        slope = float(
            np.polyfit(
                np.log([r["omega_t"] for r in sweep_rows]),
                np.log([r["sine_leakage"] for r in sweep_rows]),
                1,
            )[0]
        )

    written = []
    if "json" in formats:
        path = out / "microscopic.json"
        _write_json(
            path,
            {
                "coupling_effective": couplings.coupling,
                "coupling_write": couplings.coupling_write,
                "coupling_read": couplings.coupling_read,
                "coupling_theory": k_theory,
                "relative_deviation": rel_dev,
                "within_one_percent": bool(rel_dev < 0.01),
                "spurious": couplings.spurious(),
                "leakage_loglog_slope": slope,
            },
        )
        written.append(path)
    if "csv" in formats and sweep_rows:
        path = out / "microscopic_sweep.csv"
        _write_csv(
            path,
            list(sweep_rows[0].keys()),
            (list(r.values()) for r in sweep_rows),
        )
        written.append(path)
    return written


def cmd_lifetime(config, out, formats, seed_override=None):
    schema = _Schema(
        "lifetime",
        config,
        {
            "n_min": (float, 0.0),
            "n_max": (float, 10.0),
            "excess_noise_rate": (_nonnegative, 0.5),
            "crossing_ms": (_positive, 4.0),
            "t_max_ms": (_nonnegative, 6.0),
            "t_step_ms": (_positive, 0.1),
            **_STORAGE_FIELDS,
        },
    )
    try:
        cset = CoherentSet(schema.get("n_min"), schema.get("n_max"))
    except ValueError as exc:
        raise ConfigError(f"lifetime: {exc}")
    params = _storage_params(schema)
    stop = schema.get("t_max_ms") * 1e-3 + 1e-12
    step = schema.get("t_step_ms") * 1e-3
    # np.arange gives ceil(stop / step) points; count them before allocating
    if not stop <= MAX_CURVE_POINTS * step:
        raise ConfigError(
            f"lifetime: bad value for 't_step_ms': {schema.get('t_step_ms')} ms "
            f"up to t_max_ms {schema.get('t_max_ms')} ms gives more than "
            f"{MAX_CURVE_POINTS} time points"
        )
    try:
        decay = decoherence.calibrate_tau(
            cset,
            params,
            schema.get("crossing_ms") * 1e-3,
            excess_noise_rate=schema.get("excess_noise_rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"lifetime: bad value for 'crossing_ms': {exc}")
    times = np.arange(0.0, stop, step)
    fids = decoherence.fidelity_vs_time(cset, params, decay, times)
    _, f_class = optimize_classical_gain(cset.n_min, cset.n_max)
    crossing = decoherence.crossing_time(times, fids, f_class)

    written = []
    if "csv" in formats:
        path = out / "lifetime.csv"
        _write_csv(
            path,
            ["t_ms", "fidelity", "classical_limit"],
            ((t * 1e3, f, f_class) for t, f in zip(times, fids)),
        )
        written.append(path)
    if "json" in formats:
        path = out / "lifetime.json"
        _write_json(
            path,
            {
                "tau_ms": decay.tau * 1e3,
                "excess_noise_rate": decay.excess_noise_rate,
                "classical_limit": f_class,
                "crossing_ms": None if crossing is None else crossing * 1e3,
                "fidelity_at_zero": fids[0],
            },
        )
        written.append(path)
    if "svg" in formats:
        path = out / "lifetime.svg"
        _write_text(
            path,
            plots.line_svg(
                times * 1e3,
                {"memory fidelity": fids},
                x_label="storage time (ms)",
                y_label="fidelity",
                hlines=[("classical limit", f_class)],
            ),
        )
        written.append(path)
    return written


_COMMANDS = {
    "store": cmd_store,
    "fidelity": cmd_fidelity,
    "calibrate": cmd_calibrate,
    "microscopic": cmd_microscopic,
    "lifetime": cmd_lifetime,
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    formats = tuple(args.format) if args.format else ALL_FORMATS
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
        written = _COMMANDS[args.command](config, args.out, formats, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
