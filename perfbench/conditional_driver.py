"""Drive the conditional storage pipeline through the qmemsim library.

Runs many ``protocol.store_conditional`` trials with a seeded numpy
generator, one ``store_average`` of the same input, and the
store -> ``reverse_readout`` round trip at unit gains, then writes the
raw results as ``.npy`` files for the checker::

    PYTHONPATH=src python3 perfbench/conditional_driver.py --config cfg.json --out DIR

Library functions are looked up on their modules at call time, so the
traced benchmark run can time them by wrapping the module attributes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from qmemsim import gaussian, protocol


def run(config, out):
    params = protocol.StorageParams(coupling=config["coupling"], gain=config["gain"])
    light = gaussian.coherent_state(config["input_x"], config["input_p"])
    rng = np.random.default_rng(config["rng_seed"])
    states = np.empty((config["n_trials"], 6))
    for row in states:
        outcome, atoms = protocol.store_conditional(light, params, rng=rng)
        cov = atoms.cov
        row[:] = (outcome, atoms.mean[0], atoms.mean[1], cov[0, 0], cov[0, 1], cov[1, 1])

    average = protocol.store_average(light, params)
    cov = average.cov
    average_row = np.array([*average.mean, cov[0, 0], cov[0, 1], cov[1, 1]])

    unit = protocol.StorageParams()
    inputs = np.random.default_rng(config["roundtrip_seed"]).uniform(
        -3.0, 3.0, size=(config["roundtrips"], 2)
    )
    trips = np.empty((len(inputs), 4))
    for row, (x, p) in zip(trips, inputs):
        stored = protocol.store_average(gaussian.coherent_state(x, p), unit)
        back = protocol.reverse_readout(stored, unit)
        row[:] = (x, p, *back.mean)

    np.save(out / "conditional_states.npy", states)
    np.save(out / "store_average.npy", average_row)
    np.save(out / "roundtrip.npy", trips)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    run(json.loads(args.config.read_text()), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
