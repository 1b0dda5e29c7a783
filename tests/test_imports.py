"""Start-up guard: importing the package and running any subcommand loads
no scipy module, since scipy is a test-only oracle, and each subcommand
loads only the qmemsim modules and numpy subpackages it runs.

Each check runs in a fresh interpreter, since this test session has long
since imported scipy itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qmemsim
from qmemsim import decoherence, fidelity, gaussian, montecarlo, protocol, rng

SRC = str(Path(qmemsim.__file__).resolve().parents[1])

_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'qmemsim')"
    " or m in ('numpy', 'numpy.random', 'numpy.polynomial'))))\n"
)


def loaded_after(tmp_path, code):
    """The scipy and qmemsim modules, and ``numpy`` with its ``random`` and
    ``polynomial`` subpackages, loaded once ``code`` has run."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={"PATH": "", "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_cli(tmp_path, command, config):
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = (
        "from qmemsim.cli import main\n"
        f"assert main([{command!r}, '--config', 'config.json',"
        " '--out', 'out']) == 0"
    )
    return loaded_after(tmp_path, code)


#: what ``import qmemsim.cli`` loads: no compute module, writer or sampler
CLI = {"numpy", "qmemsim", "qmemsim.cli", "qmemsim.gaussian", "qmemsim.protocol"}

#: every module each import loads, of those the probe reports
IMPORT_LOADS = {
    "import qmemsim": {"qmemsim"},
    "import qmemsim.cli": CLI,
    "from qmemsim import gaussian, protocol, microscopic, montecarlo": {
        "numpy", "numpy.random", "qmemsim", "qmemsim.gaussian", "qmemsim.protocol",
        "qmemsim.microscopic", "qmemsim.montecarlo", "qmemsim.kernels", "qmemsim.rng",
        "qmemsim._solvers",
    },
}

#: what each subcommand loads on top of ``CLI``.  Only store and calibrate
#: draw random numbers, and only fidelity and lifetime use numpy.polynomial
#: (for the Gauss-Legendre nodes).
SUBCOMMAND_LOADS = {
    "store": {"qmemsim.montecarlo", "qmemsim.kernels", "qmemsim.rng",
              "qmemsim._solvers", "qmemsim.plots", "qmemsim._csv", "numpy.random"},
    "fidelity": {"qmemsim.fidelity", "qmemsim._solvers", "qmemsim._csv",
                 "numpy.polynomial"},
    "calibrate": {"qmemsim.calibration", "qmemsim._csv", "numpy.random"},
    "microscopic": {"qmemsim.microscopic", "qmemsim.kernels", "qmemsim._csv"},
    "lifetime": {"qmemsim.decoherence", "qmemsim.fidelity", "qmemsim._solvers",
                 "qmemsim.plots", "qmemsim._csv", "numpy.polynomial"},
}


@pytest.mark.parametrize("code", list(IMPORT_LOADS))
def test_import_loads_no_scipy(tmp_path, code):
    # exactly the modules of its row, which hold no scipy
    assert loaded_after(tmp_path, code) == IMPORT_LOADS[code]


@pytest.mark.parametrize(
    "command, config",
    [
        ("microscopic", {"bins": 4096, "sweep_bins": 1024}),
        ("calibrate", {"jx_points": 10, "n_cycles": 1000}),
        ("fidelity", {"n_max": 4.0}),
        ("lifetime", {"t_max_ms": 1.0, "t_step_ms": 0.5}),
        ("store", {"input_x": 0.0, "input_p": -4.0, "n_trials": 200}),
    ],
)
def test_numpy_only_subcommands_load_no_scipy(tmp_path, command, config):
    # exactly the front end's modules and the subcommand's own, no scipy
    assert run_cli(tmp_path, command, config) == CLI | SUBCOMMAND_LOADS[command]


def test_probe_sees_a_scipy_import(tmp_path):
    # positive control: the probe reports what it is asked to find
    loaded = loaded_after(tmp_path, "import qmemsim.cli\nimport scipy.special")
    assert {"scipy", "scipy.special"} <= loaded


def test_exports_resolve_to_their_home_objects():
    homes = [fidelity, gaussian, protocol]
    for name in qmemsim.__all__:
        owners = [module for module in homes if name in module.__all__]
        assert len(owners) == 1, name
        assert getattr(qmemsim, name) is getattr(owners[0], name)


def test_public_names():
    assert sorted(qmemsim.__all__) == sorted([
        "CoherentSet", "average_fidelity", "classical_fidelity",
        "classical_variance_bound", "optimize_classical_gain", "overlap",
        "GaussianState", "SymplecticMap", "apply_symplectic", "coherent_state",
        "displace", "homodyne_measure", "partial_trace", "tensor", "vacuum_state",
        "ChannelSummary", "StorageParams", "interaction_map", "pi_half_pulse",
        "readout_map", "reconstruct_atomic_variance", "reverse_readout",
        "store_channel", "store_conditional",
    ])


def test_dir_lists_exports_before_any_resolves(tmp_path):
    code = "import qmemsim\nassert set(qmemsim.__all__) <= set(dir(qmemsim))"
    assert loaded_after(tmp_path, code) == {"qmemsim"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmemsim.no_such_name
    assert not hasattr(qmemsim, "fidelity_of")


def _lifetime_calibration():
    decoherence.calibrate_tau(fidelity.CoherentSet(0.0, 10.0), protocol.StorageParams(),
                              4e-3, excess_noise_rate=0.5)


@pytest.mark.parametrize(
    "home, name, run",
    [
        (fidelity, "average_fidelity", _lifetime_calibration),
        (fidelity, "optimize_classical_gain", _lifetime_calibration),
        (rng, "trial_normals",
         lambda: montecarlo.run_series((0.0, -4.0), protocol.StorageParams(), "p", 200, 0)),
    ],
)
def test_calls_go_through_the_home_module(monkeypatch, home, name, run):
    # a wrapper set on the home module's attribute, as perfbench's tracer sets
    # them, sees the calls of a module whichever of the two was imported first
    calls = []
    original = getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(home, name, counted)
    run()
    assert calls
