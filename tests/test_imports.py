"""Start-up guard: importing the package and running any subcommand loads
no scipy module; scipy is a test-only oracle.

Each check runs in a fresh interpreter, since this test session has long
since imported scipy itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qmemsim

SRC = str(Path(qmemsim.__file__).resolve().parents[1])

_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))))\n"
)


def scipy_loaded_after(tmp_path, code):
    """The ``scipy`` modules loaded once ``code`` has run."""
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
    return scipy_loaded_after(tmp_path, code)


@pytest.mark.parametrize(
    "code",
    [
        "import qmemsim",
        "import qmemsim.cli",
        "from qmemsim import gaussian, protocol, microscopic, montecarlo",
    ],
)
def test_import_loads_no_scipy(tmp_path, code):
    assert scipy_loaded_after(tmp_path, code) == set()


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
    assert run_cli(tmp_path, command, config) == set()


def test_probe_sees_a_scipy_import(tmp_path):
    # positive control: the probe reports what it is asked to find
    loaded = scipy_loaded_after(tmp_path, "import qmemsim.cli\nimport scipy.special")
    assert {"scipy", "scipy.special"} <= loaded
