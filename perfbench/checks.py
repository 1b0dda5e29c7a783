"""Output checkers, one per benchmark operation.

Each checker takes the operation's config and its output directory and
returns a list of failure messages (empty when the outputs are right).
The expected values are written out here from the closed-form channel,
recomputed from the raw output files, or taken from properties the
method must have; nothing is imported from qmemsim.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

IDEAL_CSS_FIDELITY = 2.0 / math.sqrt(6.0)


def _close(failures, label, value, target, tol):
    value, target = float(value), float(target)
    if not abs(value - target) <= tol:
        failures.append(f"{label} = {value!r}, expected {target!r} +/- {tol:.3g}")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def channel_moments(c):
    """Closed-form stored moments of the averaged storage channel.

    X_mem = X_atom + k P_light and P_mem = (1 - k g) P_atom - g X_light,
    so for a coherent input (x, p) the means are (k p, -g x) and the
    variances those below; the two quadratures are uncorrelated.
    """
    k, g = c["coupling"], c["gain"]
    return {
        "mean_x": k * c["input_p"],
        "mean_p": -g * c["input_x"],
        "var_x": c["atom_var_x"] + k * k / 2.0,
        "var_p": (1.0 - k * g) ** 2 * c["atom_var_p"] + g * g / 2.0,
    }


# -- store-series -------------------------------------------------------------


def check_store(c, out):
    failures = []
    report = json.loads((out / "reconstructed.json").read_text())
    rec = report["reconstructed"]
    n, k_r = c["n_trials"], c["readout_coupling"]
    x_in, p_in = c["input_x"], c["input_p"]
    k, g = c["coupling"], c["gain"]
    closed = channel_moments(c)
    gains = {"gain_x": rec["mean_x"] / p_in, "gain_p": -rec["mean_p"] / x_in}
    se = {
        "gain_x": rec["se_mean_x"] / abs(p_in),
        "gain_p": rec["se_mean_p"] / abs(x_in),
        "var_x": rec["se_var_x"],
        "var_p": rec["se_var_p"],
    }
    _close(failures, "gain_x", gains["gain_x"], k, 4 * se["gain_x"])
    _close(failures, "gain_p", gains["gain_p"], g, 4 * se["gain_p"])
    for key in ("var_x", "var_p"):
        _close(failures, key, rec[key], closed[key], 4 * se[key])
    for key, value in gains.items():
        _close(failures, f"reported {key}", report["gains"][key], value, 1e-12 * abs(value))

    header, rows = _read_csv(out / "trials.csv")
    if header != ["trial_id", "arm", "feedback_outcome", "verification_outcome"]:
        failures.append(f"trials.csv header {header}")
        return failures
    expected_ids = [str(i) for i in range(n)]
    for offset, arm, sign in ((0, "p", 1.0), (n, "x", -1.0)):
        block = rows[offset : offset + n]
        if len(block) != n or any(r[1] != arm for r in block):
            failures.append(f"trials.csv: arm {arm} does not hold {n} rows")
            continue
        if [r[0] for r in block] != expected_ids:
            failures.append(f"trials.csv: arm {arm} trial ids are not 0..{n - 1}")
        # the reported moments must be those of the written outcomes
        v = np.array([r[3] for r in block], dtype=float)
        s2 = float(np.var(v, ddof=1))
        key = "p" if arm == "p" else "x"
        _close(failures, f"mean_{key} from trials.csv", sign * float(np.mean(v)) / k_r,
               rec[f"mean_{key}"], 1e-9 * (1.0 + abs(rec[f"mean_{key}"])))
        _close(failures, f"var_{key} from trials.csv", (s2 - 0.5) / k_r**2,
               rec[f"var_{key}"], 1e-9 * (1.0 + abs(rec[f"var_{key}"])))
    if len(rows) != 2 * n:
        failures.append(f"trials.csv holds {len(rows)} rows, expected {2 * n}")

    header, rows = _read_csv(out / "histograms.csv")
    for arm in ("p", "x"):
        counts = [int(r[3]) for r in rows if r[0] == arm]
        if len(counts) != c["histogram_bins"]:
            failures.append(f"histograms.csv: arm {arm} has {len(counts)} bins")
        if sum(counts) != n:
            failures.append(f"histograms.csv: arm {arm} counts sum to {sum(counts)}, not {n}")
    svg = (out / "histograms.svg").read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        failures.append("histograms.svg is not a complete SVG document")
    return failures


# -- microscopic-reduction ----------------------------------------------------


def loglog_slope(omega_t, leakage):
    lx, ly = np.log(omega_t), np.log(leakage)
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def check_microscopic(c, out):
    failures = []
    report = json.loads((out / "microscopic.json").read_text())
    target = c["target_coupling"]
    _close(failures, "coupling_theory", report["coupling_theory"], target, 1e-12 * max(1.0, target))
    _close(failures, "coupling_effective", report["coupling_effective"], target, 0.01 * target)
    worst = max(report["spurious"].values())
    if not worst < 0.01:
        failures.append(f"max spurious coupling {worst!r} is not below 0.01")
    header, rows = _read_csv(out / "microscopic_sweep.csv")
    table = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    if len(rows) < 3:
        failures.append(f"sweep has {len(rows)} points")
        return failures
    slope = loglog_slope(table["omega_t"], table["sine_leakage"])
    _close(failures, "leakage log-log slope", slope, -1.0, 0.15)
    _close(failures, "reported leakage slope", report["leakage_loglog_slope"], slope, 1e-9)
    return failures


# -- figures-of-merit ---------------------------------------------------------


def fidelity_2d(n_min, n_max, gain_x, gain_p, var_x, var_p, radial=200, angular=256):
    """Set-averaged coherent-state fidelity by a 2-d product quadrature.

    Averages the overlap of the coherent input (x, p) with the retrieved
    Gaussian state over alpha^2 = x^2 + p^2 uniform in [2 n_min, 2 n_max]
    and a uniform phase.  The retrieved state returns input x with gain
    ``gain_p`` and variance ``var_p`` and input p with ``gain_x`` and
    ``var_x``; the overlap of a coherent state with a Gaussian state of
    variances (vx, vp) at distance (dx, dp) is
    ``2 exp(-dx^2/(1 + 2 vx) - dp^2/(1 + 2 vp)) / sqrt((1 + 2 vx)(1 + 2 vp))``.
    """
    s1, s2 = 2.0 * n_min, 2.0 * n_max
    nodes, weights = np.polynomial.legendre.leggauss(radial)
    s = 0.5 * (s2 - s1) * nodes + 0.5 * (s2 + s1)
    phi = 2.0 * np.pi * np.arange(angular) / angular
    x = np.sqrt(s)[:, None] * np.cos(phi)[None, :]
    p = np.sqrt(s)[:, None] * np.sin(phi)[None, :]
    ax, ap = 1.0 + 2.0 * var_p, 1.0 + 2.0 * var_x
    overlap = 2.0 * np.exp(-((1.0 - gain_p) * x) ** 2 / ax - ((1.0 - gain_x) * p) ** 2 / ap)
    overlap /= math.sqrt(ax * ap)
    return float(0.5 * np.dot(weights, overlap.mean(axis=1)))


def check_fidelity(c, out):
    failures = []
    report = json.loads((out / "fidelity.json").read_text())
    fids = report["fidelities"]
    _close(failures, "ideal fidelity", fids["ideal_css_protocol"], IDEAL_CSS_FIDELITY, 1e-12)
    # the paper's figures for the 0-8 photon set, which the workload uses
    _close(failures, "classical optimum", report["classical_optimum"]["fidelity"], 0.554, 0.002)
    _close(failures, "classical optimal gain", report["classical_optimum"]["gain"], 0.809, 0.005)
    _close(failures, "set bound (PN units)", report["boundaries"]["set_bound_pn"], 2.309, 5e-4)
    if report["boundaries"]["arbitrary_input_bound_pn"] != 3.0:
        failures.append(
            f"arbitrary-input bound {report['boundaries']['arbitrary_input_bound_pn']!r} != 3"
        )
    own = fidelity_2d(c["n_min"], c["n_max"], c["gain_x"], c["gain_p"], c["var_x"], c["var_p"])
    _close(failures, "configured-channel fidelity", fids["configured_channel"], own, 1e-8)
    _, rows = _read_csv(out / "fidelity.csv")
    if len(rows) != 4:
        failures.append(f"fidelity.csv holds {len(rows)} rows, expected 4")
    return failures


def check_calibrate(c, out):
    failures = []
    fit = json.loads((out / "calibration_fit.json").read_text())
    _close(failures, "calibration slope", fit["slope"], c["slope_per_unit"], 5 * fit["slope_se"])
    _, rows = _read_csv(out / "calibration_points.csv")
    if len(rows) != c["jx_points"]:
        failures.append(f"calibration_points.csv holds {len(rows)} rows, expected {c['jx_points']}")
    jx = np.array([float(r[0]) for r in rows])
    used = int(np.sum(jx <= np.median(jx)))
    if fit["n_used"] != used:
        failures.append(f"fit used {fit['n_used']} points, expected {used}")
    return failures


def check_lifetime(c, out):
    failures = []
    report = json.loads((out / "lifetime.json").read_text())
    _, rows = _read_csv(out / "lifetime.csv")
    t = np.array([float(r[0]) for r in rows])
    f = np.array([float(r[1]) for r in rows])
    limit = float(rows[0][2])
    step = c["t_step_ms"]
    points = int(math.floor(c["t_max_ms"] / step + 1e-9)) + 1
    if len(rows) != points:
        failures.append(f"lifetime.csv holds {len(rows)} points, expected {points}")
    if np.any(np.diff(f) > 1e-12):
        failures.append("fidelity curve increases with storage time")
    below = np.nonzero(f < limit)[0]
    if below.size == 0 or below[0] == 0:
        failures.append("fidelity curve never crosses the classical limit")
        return failures
    i = below[0]
    crossing = t[i - 1] + (f[i - 1] - limit) * (t[i] - t[i - 1]) / (f[i - 1] - f[i])
    _close(failures, "crossing from lifetime.csv", crossing, c["crossing_ms"], step)
    _close(failures, "reported crossing_ms", report["crossing_ms"], c["crossing_ms"], step)
    _close(failures, "fidelity at zero", report["fidelity_at_zero"], f[0], 0.0)
    return failures


# -- conditional-pipeline -----------------------------------------------------


def check_conditional(c, out):
    """Ensemble of conditional states against the closed-form channel.

    Conditional covariances do not depend on the outcome, so the total
    covariance is the mean conditional covariance plus the covariance of
    the conditional means; only the latter fluctuates.
    """
    failures = []
    states = np.load(out / "conditional_states.npy")
    n = c["n_trials"]
    if states.shape != (n, 6):
        return [f"conditional_states.npy has shape {states.shape}, expected ({n}, 6)"]
    means, cov = states[:, 1:3], states[:, 3:6]
    closed = channel_moments({**c, "atom_var_x": 0.5, "atom_var_p": 0.5})
    spread = np.cov(means, rowvar=False)
    total = cov.mean(axis=0) + np.array([spread[0, 0], spread[0, 1], spread[1, 1]])
    floor = 1e-9
    for j, key in enumerate(("mean_x", "mean_p")):
        se = max(math.sqrt(total[2 * j] / n), floor)
        _close(failures, f"ensemble {key}", float(means[:, j].mean()), closed[key], 4 * se)
    var_se = math.sqrt(2.0 / (n - 1))
    _close(failures, "total var_x", total[0], closed["var_x"], 4 * max(spread[0, 0] * var_se, floor))
    _close(failures, "total var_p", total[2], closed["var_p"], 4 * max(spread[1, 1] * var_se, floor))
    cross_se = math.sqrt((spread[0, 0] * spread[1, 1] + spread[0, 1] ** 2) / (n - 1))
    _close(failures, "total cov_xp", total[1], 0.0, 4 * max(cross_se, floor))
    nu = np.sqrt(cov[:, 0] * cov[:, 2] - cov[:, 1] ** 2)
    if not nu.min() >= 0.5 - 1e-9:
        failures.append(f"smallest symplectic eigenvalue {float(nu.min())!r} < 1/2")

    average = np.load(out / "store_average.npy")
    for value, key in zip(average, ("mean_x", "mean_p", "var_x")):
        _close(failures, f"store_average {key}", float(value), closed[key], 1e-12 * (1.0 + abs(closed[key])))
    _close(failures, "store_average var_p", float(average[4]), closed["var_p"], 1e-12)
    _close(failures, "store_average cov_xp", float(average[3]), 0.0, 1e-12)

    trips = np.load(out / "roundtrip.npy")
    if trips.shape != (c["roundtrips"], 4):
        failures.append(f"roundtrip.npy has shape {trips.shape}")
    else:
        err = np.abs(trips[:, 2:] - trips[:, :2]).max()
        if not err <= 1e-9 * max(1.0, np.abs(trips[:, :2]).max()):
            failures.append(f"store -> reverse_readout moved an input mean by {err!r}")
    return failures


# -- deliberately perturbed outputs, for the self-test ----------------------------


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv_column(path, column, edit):
    """Replace one column by ``edit(table)``, table mapping name -> floats."""
    header, rows = _read_csv(path)
    table = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    j = header.index(column)
    for r, v in zip(rows, edit(table)):
        r[j] = repr(float(v))
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _move_var_x(out):
    _edit_json(out / "reconstructed.json", lambda d: d["reconstructed"].update(
        var_x=d["reconstructed"]["var_x"] + 10 * d["reconstructed"]["se_var_x"]))


def _drop_last_trial(out):
    lines = (out / "trials.csv").read_text().splitlines(keepends=True)
    (out / "trials.csv").write_text("".join(lines[:-1]))


def _leakage_slope_half(out):
    _edit_csv_column(out / "microscopic_sweep.csv", "sine_leakage",
                     lambda t: [0.1 * w**-0.5 for w in t["omega_t"]])


def _crossing_two_steps_late(out):
    _edit_csv_column(out / "lifetime.csv", "fidelity", lambda t: t["fidelity"][:1] * 2 + t["fidelity"][:-2])


def _nudge_fidelity(out):
    _edit_json(out / "fidelity.json", lambda d: d["fidelities"].update(
        configured_channel=d["fidelities"]["configured_channel"] + 1e-6))


def _move_slope(out):
    _edit_json(out / "calibration_fit.json", lambda d: d.update(slope=d["slope"] + 10 * d["slope_se"]))


def _shift_mean_p(out):
    states = np.load(out / "conditional_states.npy")
    states[:, 2] += 10 * states[:, 2].std() / np.sqrt(len(states))
    np.save(out / "conditional_states.npy", states)


def _unphysical_state(out):
    states = np.load(out / "conditional_states.npy")
    states[7, 5] *= 0.5
    np.save(out / "conditional_states.npy", states)


# (workload, operation, perturbation, label the checker must report)
PERTURBATIONS = (
    ("store-series", "store", _move_var_x, "var_x = "),
    ("store-series", "store", _drop_last_trial, "trials.csv"),
    ("microscopic-reduction", "microscopic", _leakage_slope_half, "leakage log-log slope"),
    ("figures-of-merit", "lifetime", _crossing_two_steps_late, "crossing from lifetime.csv"),
    ("figures-of-merit", "fidelity", _nudge_fidelity, "configured-channel fidelity"),
    ("figures-of-merit", "calibrate", _move_slope, "calibration slope"),
    ("conditional-pipeline", "conditional", _shift_mean_p, "ensemble mean_p"),
    ("conditional-pipeline", "conditional", _unphysical_state, "smallest symplectic eigenvalue"),
)
