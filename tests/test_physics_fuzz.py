"""Physics fuzz: seeded random valid configs of every subcommand, computed
in-process, and the invariants that every exit-0 output keeps.

The contract fuzz in test_cli.py checks exit codes and messages; this one
checks the numbers of the runs that succeed, so an output whose bytes
change on purpose still meets a physics check.  Each ``*_violations``
lists the invariants one output breaks, and the positive controls show
each invariant firing on a perturbed output.
"""

import random

import numpy as np
import pytest

from qmemsim import cli
from qmemsim.fidelity import CoherentSet
from qmemsim.protocol import ChannelSummary, store_channel
from test_fidelity import average_fidelity_grid

#: a configured channel's fidelity agrees with the 2-d grid oracle this closely
ORACLE_TOL = 1e-6
#: |k_eff - k_theory| / k < REL_DEV_ENVELOPE / (Omega T).  The leading term is
#: sin(2 Omega T) / (4 Omega T); bins of up to 0.1 precession cycles and the
#: next order in 1/(Omega T) add up to 0.256 over 8400 sampled rows
REL_DEV_ENVELOPE = 0.27
#: worst spurious coupling < SPURIOUS_ENVELOPE * max(k, k^2) / (Omega T).  The
#: overlap of the sampled cos and sin weights (light-P nonconservation) is up
#: to 1/(Omega T) at any k, so the constant is about 1/k at the smallest k,
#: 0.1: 9.7 over the same rows
SPURIOUS_ENVELOPE = 10.5
#: the reconstructed store moments and the fitted calibrate slope lie within
#: PULL_BOUND standard errors of the truth.  A correct output breaks this with
#: a chance of about 2e-3 over the 200 store runs (four moments each) and the
#: 500 fits drawn below: past 5 se lie 6.2e-7 of a mean's t pulls and 3.1e-6
#: of a variance's chi-squared pulls at 2000 trials, and at 10^4 cycles or more
#: and at most 200 points the fit's slope bias stays under 0.05 se
PULL_BOUND = 5.0
CHANNEL_KEYS = ("gain_x", "gain_p", "var_x", "var_p")


def compute(command, config):
    """The outputs of ``command`` as ``cli.main`` computes them, or None
    where it would exit 2 or 3."""
    fields, compute_outputs = cli._COMMANDS[command]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return compute_outputs(cli._resolve(command, config, fields))
    except (ValueError, *cli._NUMERICAL):
        return None


def fidelity_config(rnd):
    n_min = rnd.uniform(0.0, 5.0)
    var_x = rnd.uniform(0.1, 3.0)
    return {
        "n_min": n_min,
        "n_max": rnd.uniform(n_min + 0.5, 45.0),
        "gain_x": rnd.uniform(0.3, 1.5),
        "gain_p": rnd.uniform(0.3, 1.5),
        # the retrieved state respects the uncertainty relation
        "var_x": var_x,
        "var_p": rnd.uniform(max(0.1, 0.25 / var_x), 3.0),
    }


def fidelity_violations(config, outputs):
    values = outputs["fidelity.json"]["fidelities"]
    broken = [f"{label} = {value} is outside [0, 1]"
              for label, value in values.items() if not 0 <= value <= 1]
    oracle = average_fidelity_grid(
        CoherentSet(config["n_min"], config["n_max"]),
        ChannelSummary(*(config[key] for key in CHANNEL_KEYS)),
    )
    if not abs(values["configured_channel"] - oracle) < ORACLE_TOL:
        broken.append(f"configured_channel {values['configured_channel']} != grid {oracle}")
    return broken


def lifetime_config(rnd):
    crossing = rnd.uniform(0.5, 6.0)
    atom_var_x = rnd.uniform(0.25, 3.0)
    return {
        "n_min": rnd.uniform(0.0, 2.0),
        "n_max": rnd.uniform(3.0, 30.0),
        "excess_noise_rate": rnd.uniform(0.0, 2.0),
        "crossing_ms": crossing,
        "t_max_ms": crossing * rnd.uniform(1.05, 2.0),
        "t_step_ms": rnd.choice([0.01, 0.02, 0.05]),
        "coupling": rnd.uniform(0.6, 1.4),
        "gain": rnd.uniform(0.6, 1.4),
        "atom_var_x": atom_var_x,
        "atom_var_p": rnd.uniform(0.25 / atom_var_x, 3.0),
    }


def lifetime_violations(config, outputs):
    broken = []
    crossing = outputs["lifetime.json"]["crossing_ms"]
    if crossing is None or not abs(crossing - config["crossing_ms"]) <= config["t_step_ms"]:
        broken.append(f"crossing_ms {crossing} is not within a step of {config['crossing_ms']}")
    fids = outputs["lifetime.csv"][1][1]
    # the stored gains are the coupling (X) and the feedback gain (P); past 1,
    # decay first pulls a gain toward 1 and the curve may rise
    if config["coupling"] <= 1 and config["gain"] <= 1 and np.any(np.diff(fids) > 0):
        broken.append(f"the curve rises by {np.diff(fids).max()} at gains <= 1")
    return broken


def microscopic_config(rnd):
    omega_t = float(np.exp(rnd.uniform(np.log(20.0), np.log(2000.0))))
    return {
        "target_coupling": rnd.uniform(0.1, 3.0),
        "larmor_frequency": omega_t / 1e-3,  # at the default pulse_duration
        "bins": rnd.randrange(4096, 20_001),
        "sweep_bins": rnd.randrange(512, 4097),
    }


def microscopic_violations(config, outputs):
    report = outputs["microscopic.json"]
    rows = [(config["larmor_frequency"] * 1e-3, report["coupling_effective"],
             report["coupling_theory"], max(report["spurious"].values()))]
    header, columns = outputs["microscopic_sweep.csv"]
    sweep = dict(zip(header, columns))
    rows += zip(sweep["omega_t"], sweep["coupling_effective"], sweep["coupling_theory"],
                sweep["max_spurious"])
    broken = []
    for omega_t, k_eff, k, spurious in rows:
        if not abs(k_eff - k) / k < REL_DEV_ENVELOPE / omega_t:
            broken.append(f"coupling {k_eff} is too far from {k} at Omega T {omega_t}")
        if not spurious < SPURIOUS_ENVELOPE * max(k, k * k) / omega_t:
            broken.append(f"spurious coupling {spurious} at k {k}, Omega T {omega_t}")
    return broken


def store_config(rnd):
    atom_var_x = rnd.uniform(0.25, 3.0)
    return {
        "input_x": rnd.uniform(-10.0, 10.0),
        "input_p": rnd.uniform(-10.0, 10.0),
        "n_trials": rnd.randrange(2000, 20_001),
        "seed": rnd.randrange(2**32),
        "histogram_bins": rnd.randrange(5, 201),
        "coupling": rnd.uniform(0.3, 1.5),
        "gain": rnd.uniform(0.3, 1.5),
        "readout_coupling": rnd.uniform(0.3, 2.0),
        "atom_var_x": atom_var_x,
        "atom_var_p": rnd.uniform(0.25 / atom_var_x, 3.0),
    }


def _reconstructed(outputs):
    return outputs["reconstructed.json"]["reconstructed"]


def store_violations(config, outputs):
    report = _reconstructed(outputs)
    channel = store_channel(cli._storage_params(config))
    # the stored means are (k p_in, -g x_in); the closed-form variances
    truth = {
        "mean_x": config["coupling"] * config["input_p"],
        "mean_p": -config["gain"] * config["input_x"],
        "var_x": channel.var_x,
        "var_p": channel.var_p,
    }
    broken = []
    for key, value in truth.items():
        pull = (report[key] - value) / report[f"se_{key}"]
        if not abs(pull) < PULL_BOUND:
            broken.append(f"{key} {report[key]} is {pull:.2f} se from {value}")
    return broken


def calibrate_config(rnd):
    jx_min = rnd.uniform(0.0, 0.5)
    return {
        "slope_per_unit": rnd.uniform(0.05, 2.0),
        "quadratic_coeff": 0.0,
        "jx_min": jx_min,
        "jx_max": rnd.uniform(jx_min + 0.5, 5.0),
        "jx_points": rnd.randrange(10, 201),
        "n_cycles": rnd.randrange(10**4, 10**6 + 1),
        "seed": rnd.randrange(2**32),
    }


def calibrate_violations(config, outputs):
    fit = outputs["calibration_fit.json"]
    pull = (fit["slope"] - config["slope_per_unit"]) / fit["slope_se"]
    if not abs(pull) < PULL_BOUND:
        return [f"slope {fit['slope']} is {pull:.2f} se from {config['slope_per_unit']}"]
    return []


#: command -> (config maker, invariant check, configs drawn, least that exit 0)
FUZZ = {
    "fidelity": (fidelity_config, fidelity_violations, 100, 100),
    "lifetime": (lifetime_config, lifetime_violations, 300, 60),
    "microscopic": (microscopic_config, microscopic_violations, 100, 100),
    "store": (store_config, store_violations, 200, 200),
    "calibrate": (calibrate_config, calibrate_violations, 500, 500),
}


@pytest.mark.parametrize("command", FUZZ)
def test_exit_zero_outputs_keep_the_physics(command):
    make_config, violations, draws, least = FUZZ[command]
    rnd = random.Random(f"physics-fuzz-{command}")
    ran = 0
    for _ in range(draws):
        config = make_config(rnd)
        outputs = compute(command, config)
        if outputs is not None:
            ran += 1
            assert violations(config, outputs) == [], config
    assert ran >= least


def _set(path, value):
    """A perturbation that sets ``outputs[path[0]][path[1]]...`` to
    ``value(outputs)``."""
    def perturb(outputs):
        *parents, last = path
        node = outputs
        for key in parents:
            node = node[key]
        node[last] = value(outputs)
    return perturb


FIDELITY_CHANNEL = {"gain_x": 0.9, "gain_p": 0.8, "var_x": 1.0, "var_p": 0.7}
MICROSCOPIC_SMALL = {"bins": 4096, "sweep_bins": 1024}
DEFAULT_OMEGA_T = 2 * np.pi * 322e3 * 1e-3
#: stored means (-2, -1) and variances (1, 0.5) at the default channel
STORE_SMALL = {"input_x": 1.0, "input_p": -2.0, "n_trials": 2000}


@pytest.mark.parametrize(
    "command, config, perturb",
    [
        ("fidelity", FIDELITY_CHANNEL,
         _set(("fidelity.json", "fidelities", "classical_optimum"), lambda out: 1.0 + 1e-9)),
        ("fidelity", FIDELITY_CHANNEL,
         _set(("fidelity.json", "fidelities", "configured_channel"),
              lambda out: out["fidelity.json"]["fidelities"]["configured_channel"] + 2e-6)),
        ("lifetime", {},  # crossing_ms 4.0 and t_step_ms 0.1 by default
         _set(("lifetime.json", "crossing_ms"), lambda out: 4.0 + 0.11)),
        ("lifetime", {},
         _set(("lifetime.csv", 1, 1, 5), lambda out: out["lifetime.csv"][1][1][4] + 1e-12)),
        ("microscopic", MICROSCOPIC_SMALL,
         _set(("microscopic.json", "coupling_effective"),
              lambda out: 1.0 + 0.3 / DEFAULT_OMEGA_T)),  # target_coupling 1 by default
        ("microscopic", MICROSCOPIC_SMALL,
         _set(("microscopic.json", "spurious", "pair_mixing"), lambda out: 11.0 / DEFAULT_OMEGA_T)),
        ("store", STORE_SMALL,
         _set(("reconstructed.json", "reconstructed", "mean_p"),
              lambda out: -1.0 + 5.1 * _reconstructed(out)["se_mean_p"])),
        ("store", STORE_SMALL,
         _set(("reconstructed.json", "reconstructed", "var_x"),
              lambda out: 1.0 - 5.1 * _reconstructed(out)["se_var_x"])),
        ("calibrate", {},  # slope_per_unit 0.5 by default
         _set(("calibration_fit.json", "slope"),
              lambda out: 0.5 + 5.1 * out["calibration_fit.json"]["slope_se"])),
    ],
    ids=["fidelity-range", "fidelity-oracle", "lifetime-crossing", "lifetime-rise",
         "microscopic-coupling", "microscopic-spurious", "store-mean", "store-variance",
         "calibrate-slope"],
)
def test_checks_fire_on_a_perturbed_output(command, config, perturb):
    outputs = compute(command, config)
    config = cli._resolve(command, config, cli._COMMANDS[command][0])
    violations = FUZZ[command][1]
    assert violations(config, outputs) == []
    perturb(outputs)
    assert violations(config, outputs) != []
