"""The four benchmark workloads: seeded inputs, operations and work counts.

A workload pass is a fixed list of operations.  An operation is one
``qmemsim`` CLI invocation or one call of the conditional driver; it
writes its outputs into the pass's output directory and has a checker
in :mod:`checks`.  Inputs are drawn from ``random.Random`` seeded with
the workload name and the benchmark seed, so one seed always gives the
same configs (and, the CLI being deterministic, the same output bytes).
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Callable

import checks

# sizes; see README.md for why each is what it is
STORE_TRIALS = 100_000  # per arm
MICRO_BINS = 40_000  # default is 10 000
MICRO_SWEEP_BINS = 16_384  # default is 4096
CALIBRATION_POINTS = 2_000
LIFETIME_STEP_MS = 0.01  # default is 0.1
CONDITIONAL_TRIALS = 10_000
ROUNDTRIPS = 200


@dataclass(frozen=True)
class Op:
    """One CLI invocation (``kind == "cli"``) or one driver call."""

    name: str
    kind: str
    config: dict
    check: Callable


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    unit_of_work: str
    make_ops: Callable  # random.Random -> list[Op]
    work: Callable  # (ops, out_dir, op_seconds, pass_seconds) -> units per second

    def ops(self, seed):
        return self.make_ops(random.Random(f"{self.name}/{seed}"))


def _signed(rnd, lo, hi):
    return rnd.choice((-1.0, 1.0)) * rnd.uniform(lo, hi)


def _store_ops(rnd):
    config = {
        "input_x": _signed(rnd, 1.0, 3.0),
        "input_p": _signed(rnd, 1.0, 3.0),
        "n_trials": STORE_TRIALS,
        "seed": rnd.randrange(2**31),
        "histogram_bins": 60,
        "coupling": rnd.uniform(0.8, 1.2),
        "gain": rnd.uniform(0.8, 1.2),
        "readout_coupling": rnd.uniform(0.8, 1.2),
        "atom_var_x": 0.5,
        "atom_var_p": 0.5,
    }
    return [Op("store", "cli", config, checks.check_store)]


def _store_work(ops, out, op_seconds, pass_seconds):
    return 2 * ops[0].config["n_trials"] / pass_seconds


def _microscopic_ops(rnd):
    config = {
        "target_coupling": rnd.uniform(0.8, 1.2),
        "bins": MICRO_BINS,
        "sweep_bins": MICRO_SWEEP_BINS,
    }
    return [Op("microscopic", "cli", config, checks.check_microscopic)]


def _microscopic_work(ops, out, op_seconds, pass_seconds):
    with open(out / "microscopic_sweep.csv", newline="") as fh:
        sweep_points = sum(1 for _ in csv.reader(fh)) - 1
    config = ops[0].config
    return (config["bins"] + sweep_points * config["sweep_bins"]) / pass_seconds


def _figures_ops(rnd):
    fidelity = {
        "n_min": 0.0,
        "n_max": 8.0,
        "gain_x": rnd.uniform(0.7, 1.0),
        "gain_p": rnd.uniform(0.7, 1.0),
        "var_x": rnd.uniform(0.5, 1.2),
        "var_p": rnd.uniform(0.5, 1.2),
    }
    calibrate = {
        "slope_per_unit": rnd.uniform(0.3, 0.7),
        "quadratic_coeff": 0.0,
        "jx_min": 0.1,
        "jx_max": 2.0,
        "jx_points": CALIBRATION_POINTS,
        "n_cycles": 10_000,
        "seed": rnd.randrange(2**31),
    }
    # the relaxation fixed point 1/2 + excess must be at least the stored
    # variance (1 at unit coupling) for the curve to be non-increasing
    lifetime = {
        "crossing_ms": rnd.uniform(3.0, 5.0),
        "excess_noise_rate": rnd.uniform(0.5, 0.8),
        "t_max_ms": 6.0,
        "t_step_ms": LIFETIME_STEP_MS,
    }
    return [
        Op("fidelity", "cli", fidelity, checks.check_fidelity),
        Op("calibrate", "cli", calibrate, checks.check_calibrate),
        Op("lifetime", "cli", lifetime, checks.check_lifetime),
    ]


def _figures_work(ops, out, op_seconds, pass_seconds):
    with open(out / "lifetime.csv", newline="") as fh:
        points = sum(1 for _ in csv.reader(fh)) - 1
    return points / op_seconds[-1]


def _conditional_ops(rnd):
    config = {
        "input_x": _signed(rnd, 0.5, 3.0),
        "input_p": _signed(rnd, 0.5, 3.0),
        "coupling": rnd.uniform(0.8, 1.2),
        "gain": rnd.uniform(0.8, 1.2),
        "n_trials": CONDITIONAL_TRIALS,
        "rng_seed": rnd.randrange(2**31),
        "roundtrips": ROUNDTRIPS,
        "roundtrip_seed": rnd.randrange(2**31),
    }
    return [Op("conditional", "driver", config, checks.check_conditional)]


def _conditional_work(ops, out, op_seconds, pass_seconds):
    return ops[0].config["n_trials"] / pass_seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("store-series", "trials", _store_ops, _store_work),
        Workload("microscopic-reduction", "bins", _microscopic_ops, _microscopic_work),
        Workload("figures-of-merit", "curve points", _figures_ops, _figures_work),
        Workload("conditional-pipeline", "trials", _conditional_ops, _conditional_work),
    )
}
