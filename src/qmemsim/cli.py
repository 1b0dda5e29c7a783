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
2 for configuration errors (the message names the offending key, or
``--config``, ``--out`` or the output file that could not be read, made or
written), 3 for numerical failures such as quadrature or fit
non-convergence, overflow, or a result that is not finite; either prints
one line to stderr and no warning, and leaves no file that the run wrote.

Each ``compute_<name>(cfg)`` returns its outputs as data, ``{file name:
value}``: a table ``(header, block, ...)`` for ``.csv``, a document dict
for ``.json`` and, for ``.svg``, a drawer that writes the chart into the
file it is given as ``file=``.  ``main`` alone opens and writes the
files, choosing the writer from the file suffix (``_WRITERS``).
Each ``compute_<name>`` imports the modules it runs, so a subcommand loads
no module that only another one needs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .protocol import ChannelSummary, StorageParams

ALL_FORMATS = ("csv", "json", "svg")
#: longest lifetime curve, in time points (t_max_ms / t_step_ms)
MAX_CURVE_POINTS = 100_000
# Caps on the count keys: the largest accepted run stays well under 1 GiB
# peak RSS.  ci/caps.py runs each subcommand at its caps and checks its
# peak: about 83 MiB for store (with histogram_bins at its cap too),
# 165 MiB for calibrate and 147 MiB for its re-fit from that run's
# series_csv, 334 MiB for microscopic and 52 MiB for lifetime at
# MAX_CURVE_POINTS.
MAX_TRIALS = 1_000_000  # per verification arm
MAX_HISTOGRAM_BINS = 100_000
# montecarlo's MIN_TRIALS and MIN_BINS, which the store config reads before
# montecarlo is imported (tests/test_cli.py ties the two)
MIN_TRIALS = 100
MIN_HISTOGRAM_BINS = 5
MAX_JX_POINTS = 1_000_000
MAX_CYCLES = 10**12  # sets only the chi-squared degrees of freedom
MAX_TIME_BINS = 1_000_000  # bins and sweep_bins
#: exceptions that mean a numerical failure (exit 3)
_NUMERICAL = (RuntimeError, ArithmeticError, np.linalg.LinAlgError)


@contextlib.contextmanager
def _bad_value(*keys, what="a value over- or underflows"):
    """Name the config ``keys`` (or flags or files) in any failure raised
    inside the block.

    ``ValueError`` and ``OSError`` leave as ``ValueError`` (exit 2), a
    numerical failure (``_NUMERICAL``) as ``FloatingPointError`` (exit 3);
    both read "bad value for 'a', 'b' or 'c': " and the library's message,
    with an ``OSError``'s path clipped by :func:`_quoted`.  numpy's
    errstate message names only the ufunc ("overflow encountered in
    matmul"), so ``what`` stands in for it.
    """
    *rest, last = map(repr, keys)
    names = f"{', '.join(rest)} or {last}" if rest else last
    try:
        yield
    except _NUMERICAL as exc:
        detail = what if "encountered in" in str(exc) else exc
        raise FloatingPointError(f"bad value for {names}: {detail}") from exc
    except (ValueError, OSError) as exc:
        detail = exc
        if isinstance(exc, OSError) and exc.filename is not None:  # clip the path
            detail = f"[Errno {exc.errno}] {exc.strerror}: {_quoted(exc.filename)}"
        raise ValueError(f"bad value for {names}: {detail}") from exc


def _write_table(path, table):
    """``_csv.write_table``, imported at the first write: building its tables
    touches numpy code that nothing before it runs, and those pages then
    count after the computation's peak RSS, not on top of it."""
    from ._csv import write_table

    write_table(path, table)


def _write_json(path, document):
    """Raises ``FloatingPointError`` on a NaN or infinity, before opening ``path``."""
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(exc) from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_svg(path, draw):
    """``draw(file=...)`` writes the chart into ``path`` as it formats it."""
    with open(path, "w") as fh:
        draw(file=fh)


#: file suffix -> writer of the value that compute returns for that file
_WRITERS = {".csv": _write_table, ".json": _write_json, ".svg": _write_svg}


_REQUIRED = object()


def _resolve(config, fields):
    """The whole config: every key converted and checked, read or not."""
    unknown = set(config) - set(fields)
    if unknown:
        raise ValueError(f"unknown config key {_quoted(sorted(unknown)[0])}")
    resolved = {}
    for key, (convert, default) in fields.items():
        if key not in config:
            if default is _REQUIRED:
                raise ValueError(f"missing required config key {key!r}")
            resolved[key] = default
            continue
        try:
            resolved[key] = convert(config[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad value for {key!r}: {exc}")
    return resolved


#: the longest config key or value that an error message quotes
_QUOTED_CHARS = 60


def _quoted(raw):
    """``repr(raw)``, clipped with an ellipsis, so that a long or deeply nested
    value still makes a one-line error of a bounded length."""
    text = repr(raw)
    return text if len(text) <= _QUOTED_CHARS else text[:_QUOTED_CHARS - 3] + "..."


def _real(raw):
    """``float(raw)``, whose own message would quote all of a long string."""
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{_quoted(raw)} is not a number") from None


def _finite(raw):
    value = _real(raw)
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


def _boolean(raw):
    if not isinstance(raw, bool):
        raise ValueError(f"{_quoted(raw)} is not true or false")
    return raw


def _integer(raw):
    """A JSON integer, or a float with an integral value such as ``1e4``."""
    if type(raw) is int or (type(raw) is float and raw.is_integer()):
        return int(raw)
    raise ValueError(f"{_quoted(raw)} is not an integer")  # bool, str, 3.9, inf, ...


def _count(low, high):
    def convert(raw):
        value = _integer(raw)
        if not low <= value <= high:
            raise ValueError(f"{_quoted(value)} is outside [{low}, {high}]")
        return value

    return convert


#: the ``StorageParams`` fields, in their order and with their defaults
_STORAGE_FIELDS = {
    field.name: (_real, field.default) for field in dataclasses.fields(StorageParams)
}


def _storage_params(cfg):
    return StorageParams(**{key: cfg[key] for key in _STORAGE_FIELDS})


STORE_FIELDS = {
    "input_x": (_finite, _REQUIRED),
    "input_p": (_finite, _REQUIRED),
    "n_trials": (_count(MIN_TRIALS, MAX_TRIALS), 10_000),
    "seed": (_integer, 0),
    "histogram_bins": (_count(MIN_HISTOGRAM_BINS, MAX_HISTOGRAM_BINS), 60),
    **_STORAGE_FIELDS,
}


def compute_store(cfg):
    from . import montecarlo, plots

    input_mean = (cfg["input_x"], cfg["input_p"])
    params = _storage_params(cfg)
    k_r = params.readout_coupling
    keys = ("input_x", "input_p", *_STORAGE_FIELDS)
    with _bad_value(*keys, what="the storage channel overflows"):
        series = {
            arm: montecarlo.run_series(input_mean, params, arm, cfg["n_trials"],
                                       cfg["seed"])
            for arm in (montecarlo.ARM_P, montecarlo.ARM_X)
        }
    hists = {}
    with _bad_value(*keys, "histogram_bins"):
        for arm, trials in series.items():
            ref_mean, ref_sd = montecarlo.ideal_reference(params, arm, input_mean)
            hists[arm] = montecarlo.make_histogram(
                trials, bins=cfg["histogram_bins"], scale=montecarlo.ARM_SIGN[arm] / k_r,
                ref_mean=ref_mean, ref_sd=ref_sd,
            )
    with (_bad_value(*keys, what="the moments of the outcomes overflow"),
          warnings.catch_warnings()):
        # a negative variance is written to reconstructed.json as it is
        warnings.filterwarnings("ignore", "reconstructed variance", UserWarning)
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
        "trials.csv": (
            ["trial_id", "arm", "feedback_outcome", "verification_outcome"],
            *(
                (range(len(s)), itertools.repeat(arm, len(s)), s.feedback,
                 s.verification)
                for arm, s in series.items()
            ),
        ),
        "histograms.csv": (
            ["arm", "bin_left", "bin_right", "count"],
            *(
                (itertools.repeat(arm, h.counts.size), h.bin_edges[:-1],
                 h.bin_edges[1:], h.counts)
                for arm, h in sorted(hists.items())
            ),
        ),
        "reconstructed.json": report,
        "histograms.svg": functools.partial(
            plots.histogram_svg,
            [hists[montecarlo.ARM_X], hists[montecarlo.ARM_P]],
            titles=["stored X (rotated readout)", "stored P (direct readout)"],
        ),
    }


FIDELITY_FIELDS = {
    "n_min": (_real, 0.0),
    "n_max": (_real, 8.0),
    "gain_x": (_real, None),
    "gain_p": (_real, None),
    "var_x": (_real, None),
    "var_p": (_real, None),
    "quad_tol": (_positive, 1e-10),
}


def compute_fidelity(cfg):
    from .fidelity import (
        CoherentSet,
        average_fidelity,
        classical_fidelity,
        classical_variance_bound,
        optimize_classical_gain,
    )

    channel_keys = ("gain_x", "gain_p", "var_x", "var_p")
    channel_values = [cfg[k] for k in channel_keys]
    configured = all(v is not None for v in channel_values)
    if not configured and any(v is not None for v in channel_values):
        raise ValueError("provide all of gain_x, gain_p, var_x, var_p or none")
    # the uncertainty relation, with the slack StorageParams allows the atoms
    with _bad_value("var_x", "var_p"):
        if configured and cfg["var_x"] * cfg["var_p"] < 0.25 - 1e-9:
            raise ValueError("var_x * var_p < 1/4 violates the uncertainty relation")
    n_min, n_max, tol = cfg["n_min"], cfg["n_max"], cfg["quad_tol"]
    with _bad_value(
        "n_min", "n_max", *(channel_keys if configured else ()), "quad_tol",
        what=f"the fidelity quadrature over photon numbers [{n_min}, {n_max}] overflows",
    ):
        cset = CoherentSet(n_min, n_max)
        ideal = ChannelSummary(1.0, 1.0, 1.0, 0.5)
        channel_rows = [
            ("ideal_css_protocol", 1.0, 1.0, 1.0, 0.5, average_fidelity(cset, ideal, tol))
        ]
        if configured:
            channel = ChannelSummary(*channel_values)
            channel_rows.append(
                ("configured_channel", *channel_values, average_fidelity(cset, channel, tol))
            )
        g_opt, f_max = optimize_classical_gain(n_min, n_max)
    classical = {
        "classical_optimum": f_max,
        "classical_unit_gain": classical_fidelity(1.0, n_min, n_max),
    }
    labels, *channel_columns = zip(*channel_rows)
    fidelities = {**dict(zip(labels, channel_columns[-1])), **classical}

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
    boundary_labels, boundary_values = zip(*sorted(boundaries.items()))
    return {
        "fidelity.csv": (
            ["label", "gain_x", "gain_p", "var_x", "var_p", "value"],
            (labels, *map(np.array, channel_columns)),
            # the classical rows leave the channel cells blank
            (list(classical), *[("", "")] * 4, np.array(list(classical.values()))),
        ),
        "boundaries.csv": (
            ["label", "value"], (boundary_labels, np.array(boundary_values))
        ),
        "fidelity.json": {
            "set": {"n_min": cset.n_min, "n_max": cset.n_max},
            "fidelities": fidelities,
            "classical_optimum": {"gain": g_opt, "fidelity": f_max},
            "boundaries": boundaries,
        },
    }


CALIBRATE_FIELDS = {
    "series_csv": (str, None),
    "slope_per_unit": (_finite, 0.5),
    "quadratic_coeff": (_finite, 0.0),
    "jx_min": (_nonnegative, 0.1),
    "jx_max": (_nonnegative, 2.0),
    "jx_points": (_count(3, MAX_JX_POINTS), 10),
    "n_cycles": (_count(2, MAX_CYCLES), 10_000),
    "seed": (_count(0, np.inf), 0),  # numpy's default_rng takes no negative seed
    "fit_jx_max": (_nonnegative, None),
}


def compute_calibrate(cfg):
    from . import calibration

    if cfg["series_csv"] is not None:
        source = ("series_csv",)
        with _bad_value(*source):
            series = calibration.read_points_csv(cfg["series_csv"])
    else:
        source = ("slope_per_unit", "quadratic_coeff", "jx_min", "jx_max", "jx_points",
                  "n_cycles")
        with _bad_value(*source):
            jx = np.linspace(cfg["jx_min"], cfg["jx_max"], cfg["jx_points"])
            series = calibration.synthesize_series(
                cfg["slope_per_unit"], cfg["quadratic_coeff"], jx, cfg["n_cycles"],
                cfg["seed"],
            )
    # without fit_jx_max the cut is the median of the series' jx
    cut = () if cfg["fit_jx_max"] is None else ("fit_jx_max",)
    with _bad_value(*source, *cut):
        fit = calibration.fit_pnl(series, cfg["fit_jx_max"])
    return {
        "calibration_points.csv": (
            calibration.COLUMNS,
            tuple(getattr(series, name) for name in calibration.COLUMNS),
        ),
        "calibration_fit.json": {
            "slope": fit.slope,
            "slope_se": fit.slope_se,
            "quadratic_coeff": fit.quadratic_coeff,
            "chi2_per_dof": fit.chi2_per_dof,
            "n_used": fit.n_used,
            "jx_cut": fit.jx_cut,
        },
    }


MICROSCOPIC_FIELDS = {
    "target_coupling": (_real, 1.0),
    "bins": (_count(1, MAX_TIME_BINS), 10_000),
    "larmor_frequency": (_real, 2 * np.pi * 322e3),
    "pulse_duration": (_real, 1e-3),
    "collective_spin": (_real, 1.2e12),
    "sweep": (_boolean, True),
    "sweep_bins": (_count(1, MAX_TIME_BINS), 4096),
}


def compute_microscopic(cfg):
    from . import microscopic

    out_of_range = "the couplings over- or underflow"
    with _bad_value("target_coupling", "bins", "larmor_frequency", "pulse_duration",
                    "collective_spin", what=out_of_range):
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
        with _bad_value("target_coupling", "sweep_bins", "pulse_duration",
                        "collective_spin", what=out_of_range):
            sweep_rows = microscopic.omega_t_sweep(
                microscopic.pinned_phase_omega_t(),
                bins=cfg["sweep_bins"],
                target_coupling=cfg["target_coupling"],
                pulse_duration=cfg["pulse_duration"],
                collective_spin=cfg["collective_spin"],
            )
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
    outputs = {"microscopic.json": report}
    if sweep_rows:
        header = list(sweep_rows[0])
        outputs["microscopic_sweep.csv"] = (
            header,
            tuple(np.array([r[key] for r in sweep_rows]) for key in header),
        )
    return outputs


LIFETIME_FIELDS = {
    "n_min": (_real, 0.0),
    "n_max": (_real, 10.0),
    "excess_noise_rate": (_nonnegative, 0.5),
    "crossing_ms": (_positive, 4.0),
    "t_max_ms": (_nonnegative, 6.0),
    "t_step_ms": (_positive, 0.1),
    **_STORAGE_FIELDS,
}


def _curve_times(cfg):
    """The lifetime curve's time points in s, at most ``MAX_CURVE_POINTS``."""
    stop = cfg["t_max_ms"] * 1e-3 + 1e-12
    step = cfg["t_step_ms"] * 1e-3
    # np.arange gives ceil(stop / step) points; count them before allocating
    if not stop <= MAX_CURVE_POINTS * step:
        raise ValueError(
            f"t_step_ms {cfg['t_step_ms']} ms up to t_max_ms {cfg['t_max_ms']} ms "
            f"gives more than {MAX_CURVE_POINTS} time points"
        )
    return np.arange(0.0, stop, step)


def compute_lifetime(cfg):
    from . import decoherence, plots
    from .fidelity import CoherentSet, optimize_classical_gain

    params = _storage_params(cfg)
    with _bad_value("t_max_ms", "t_step_ms"):
        times = _curve_times(cfg)
    # the classical optimum, computed once; a failure here names the set alone
    with _bad_value("n_min", "n_max"):
        cset = CoherentSet(cfg["n_min"], cfg["n_max"])
        _, f_class = optimize_classical_gain(cset.n_min, cset.n_max)
    # the stored channel reads no readout_coupling
    with _bad_value("n_min", "n_max", "coupling", "gain", "atom_var_x", "atom_var_p",
                    "excess_noise_rate", "crossing_ms",
                    what="the decayed channel overflows"):
        decay = decoherence.calibrate_tau(
            cset,
            params,
            cfg["crossing_ms"] * 1e-3,
            excess_noise_rate=cfg["excess_noise_rate"],
            f_class=f_class,
        )
        fids = decoherence.fidelity_vs_time(cset, params, decay, times)
    crossing = decoherence.crossing_time(times, fids, f_class)
    return {
        "lifetime.csv": (
            ["t_ms", "fidelity", "classical_limit"],
            (times * 1e3, fids, np.full(times.size, f_class)),
        ),
        "lifetime.json": {
            "tau_ms": decay.tau * 1e3,
            "excess_noise_rate": decay.excess_noise_rate,
            "classical_limit": f_class,
            "crossing_ms": None if crossing is None else crossing * 1e3,
            "fidelity_at_zero": fids[0],
        },
        "lifetime.svg": functools.partial(
            plots.line_svg,
            times * 1e3,
            {"memory fidelity": fids},
            x_label="storage time (ms)",
            y_label="fidelity",
            hlines=[("classical limit", f_class)],
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
    for name, (fields, _) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON config file")
        cmd.add_argument("--out", type=Path, default=Path("."),
                         help="output directory")
        if "seed" in fields:
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
    with contextlib.suppress(BrokenPipeError):  # see console_main
        print(message, file=sys.stderr)
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # an overflow, invalid operation or division by zero raises
    # FloatingPointError (exit 3) instead of printing a RuntimeWarning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return _run(args)


def _run(args):
    formats = tuple(args.format) if args.format else ALL_FORMATS
    fields, compute = _COMMANDS[args.command]
    written = []  # each output path, before its writer runs
    try:
        config = {}
        if args.config is not None:
            with _bad_value("--config"):
                try:
                    config = json.loads(args.config.read_text())
                except RecursionError as exc:  # too deep, not a numerical failure
                    raise ValueError(exc) from exc
                if not isinstance(config, dict):
                    raise ValueError("config must be a JSON object")
        if getattr(args, "seed", None) is not None:  # store and calibrate
            config["seed"] = args.seed
        with _bad_value("--out"):
            args.out.mkdir(parents=True, exist_ok=True)
        outputs = compute(_resolve(config, fields))
        for name, value in outputs.items():
            suffix = Path(name).suffix
            if suffix[1:] in formats:
                path = args.out / name
                written.append(path)
                with _bad_value(name):
                    _WRITERS[suffix](path, value)
    except _NUMERICAL as exc:
        code, message = 3, f"numerical failure: {exc}"
    except ValueError as exc:  # a bad input, or the library's domain check on it
        code, message = 2, f"error: {args.command}: {exc}"
    else:
        for path in written:
            print(path)
        return 0
    for path in written:  # no partial set of outputs
        if path.is_file():  # a directory in the way is left alone
            path.unlink()
    return _fail(code, message)


def console_main():
    """Run ``main`` as a process: the ``qmemsim`` script and ``python -m qmemsim.cli``.

    A closed pipe on stdout or stderr (``qmemsim ... | true``) loses that
    stream's text but not the exit code: only a successful run writes to
    stdout, once its files are complete, and ``_fail`` ignores a closed
    stderr.  A closed stream is pointed at ``os.devnull``, so that the
    flush at exit raises nothing.  ``gc.freeze()`` puts every live object
    out of the collector's reach, so the collections at interpreter exit
    have little to traverse.
    ``main`` changes no process state, since tests call it in-process.
    """
    try:
        code = main()
    except BrokenPipeError:
        code = 0
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
