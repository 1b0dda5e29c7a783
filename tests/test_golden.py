"""The output bytes of every subcommand, pinned.

Each subcommand runs in-process at its defaults (``store`` with its two
required keys) and at one non-default config.  The sha256 of every file
it writes is compared with the table below, recorded when these outputs
were last meant to change.  A change that moves one output byte fails
here; a declared byte change updates exactly the rows it names.

The table was recorded with ``RECORDED``.  Another numpy may round in
another order (BLAS sums, ufunc loops), so the test skips there and names
both version sets.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from qmemsim.cli import main

#: the versions the digests were recorded with
RECORDED = {"python": "3.11.7", "numpy": "2.4.6"}

#: case -> (subcommand, config)
CASES = {
    "store-defaults": ("store", {"input_x": 2.0, "input_p": -1.0}),
    "store-custom": ("store", {
        "input_x": 1.5, "input_p": -0.5, "n_trials": 2000, "seed": 7,
        "histogram_bins": 25, "coupling": 0.9, "gain": 0.8,
        "readout_coupling": 1.2, "atom_var_x": 0.25, "atom_var_p": 1.0,
    }),
    "fidelity-defaults": ("fidelity", {}),
    "fidelity-custom": ("fidelity", {
        "n_min": 1.0, "n_max": 4.0, "gain_x": 0.9, "gain_p": 0.95,
        "var_x": 0.7, "var_p": 0.8, "quad_tol": 1e-8,
    }),
    "calibrate-defaults": ("calibrate", {}),
    "calibrate-custom": ("calibrate", {
        "slope_per_unit": 0.8, "quadratic_coeff": 0.05, "jx_min": 0.2,
        "jx_max": 3.0, "jx_points": 40, "n_cycles": 2000, "seed": 3,
        "fit_jx_max": 1.5,
    }),
    "microscopic-defaults": ("microscopic", {}),
    "microscopic-custom": ("microscopic", {
        "target_coupling": 0.8, "bins": 5000, "sweep_bins": 1024,
        "pulse_duration": 1.2e-3,
    }),
    "lifetime-defaults": ("lifetime", {}),
    "lifetime-custom": ("lifetime", {
        "n_max": 4.0, "excess_noise_rate": 0.2, "crossing_ms": 2.0,
        "t_max_ms": 3.0, "t_step_ms": 0.05, "gain": 0.9, "atom_var_p": 0.6,
    }),
}

#: case -> {output file: sha256 of its bytes}
DIGESTS = {
    "store-defaults": {
        "histograms.csv": "00034fdf7b6d291a90b49f5f86813c173747f96b4a2f7a52d92f4a7135eaa13c",
        "histograms.svg": "194000455f431e780e0290840d5db97b08db49d16fa04883e289a65c86af1d71",
        "reconstructed.json": "576b00744abcba72bea0a1267c4afd93070e6ad291ebea6fb64a699fe8b8a328",
        "trials.csv": "c7c1a9ea4400332466d67904bbaa1532163f06fbd73d1a20e94661b37302adac",
    },
    "store-custom": {
        "histograms.csv": "c12009ba7c50dbf9ee813799ecf90c13295103d2e88d7bdbb63a1b8151d7aa92",
        "histograms.svg": "dd6acc61f39e277a7c6a109b40b5104c2b65badecb0a31beb6cb0b86626d7178",
        "reconstructed.json": "7ff2c508b81291111ed6abd1b81ccd3118192d0ef93de38b644931ccffff374f",
        "trials.csv": "73467003b394fe110dcf81b93300e104c5c6570a7855a88f87d026dc68ab859d",
    },
    "fidelity-defaults": {
        "boundaries.csv": "ada33af44adfbeebca48c6e4811abba0dbb71100cf2f15e76c153d2e9f3cc803",
        "fidelity.csv": "8ab550e971e08787cb6a2e9e451ad551ed38f66c671d0dec42b6112baba5e82c",
        "fidelity.json": "2e052516d55cbb9905ff9908dbcb80bf313415c9cdc37fd574e358d5eb503fe3",
    },
    "fidelity-custom": {
        "boundaries.csv": "1e97090a8d486d917a286e54286bdc29ddf8b5666090500d9fc3a9c4cbf5bbf7",
        "fidelity.csv": "1c03f88eb1ee9fd35be7534ae543fbcf7fcfee9fe675d24095590fe8cfeb2aaa",
        "fidelity.json": "b8795c7fb04a615de9582428627c42ae21daa8e1f1a04d44d5a0e4d71ff8f269",
    },
    "calibrate-defaults": {
        "calibration_fit.json": "ab09217fcb2ef3ea3a12d94c2bf131e3255c14112e1ea0ba086e48442c7a4194",
        "calibration_points.csv": "732db01c933dea450498a9ef19ae4e639cd0200e04533ce5b3ae5ccb16471f63",
    },
    "calibrate-custom": {
        "calibration_fit.json": "08fa18efe358f236877d15422c4fde28a27bb46bd39c90b8bafd1d4fb901658f",
        "calibration_points.csv": "8869659e9596255a25a4d4876818f28d9956e2f25e516eb0a8a0f454f7ba2034",
    },
    "microscopic-defaults": {
        "microscopic.json": "f04cbc5c6c1edf8aaf28a88287bef2fec54ef016418fbe403eaff3b65ad9bbe2",
        "microscopic_sweep.csv": "2de302272301953c43ecb2421a83ebda04b18b3f826dbc5aff263c79d0f9e547",
    },
    "microscopic-custom": {
        "microscopic.json": "060de28f178454483d242a556162d72aedbbbf750e87446c51af3d816844d402",
        "microscopic_sweep.csv": "743941dc2aad4547dd70934d0cc0da7d097aa3fbe7bb8311beff810b8b71a789",
    },
    "lifetime-defaults": {
        "lifetime.csv": "10494edf4b1299dd35640e1b111021756fa1cc2d09510f370184a7b599b77232",
        "lifetime.json": "e56de8fb6539319e4352a2ff16959e5550a8354b41f462a8bf7969d255bb4174",
        "lifetime.svg": "edbbed2c5524277dfbda586aa790cd405b5c04e3a8ab16a88704c976eb237c87",
    },
    "lifetime-custom": {
        "lifetime.csv": "4148fe9b8a55124c1be006e25f86cd29f2ceb90f2c304e6a9fbef29abf74bd3c",
        "lifetime.json": "49332b493d45103bf59dde1a0c945165950b8867ae8ada547e214d943dc9cc78",
        "lifetime.svg": "ea4c07f3417b8d3cfd8d697ff0869059933e5e42901ff5d9de2b93c17ac1907c",
    },
}


def output_digests(tmp_path, command, config):
    """Run one subcommand in-process; the sha256 of each file it wrote."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_pinned(case, tmp_path):
    if np.__version__ != RECORDED["numpy"]:
        pytest.skip(
            f"digests recorded with Python {RECORDED['python']} and numpy "
            f"{RECORDED['numpy']}; this is Python {platform.python_version()} "
            f"and numpy {np.__version__}"
        )
    assert output_digests(tmp_path, *CASES[case]) == DIGESTS[case]
