"""The cap table of ``ci/caps.py``: its rows sit at ``qmemsim.cli``'s caps,
the script stays free of numpy and qmemsim, and a row fails on a high peak,
a nonzero exit, output on stderr or a timeout."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qmemsim import cli

SCRIPT = Path(__file__).resolve().parents[1] / "ci" / "caps.py"
_spec = importlib.util.spec_from_file_location("caps", SCRIPT)
caps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(caps)


def config(row):
    return caps.ROWS[row][1]


def in_fresh_interpreter(code, env=None):
    """The JSON that ``code`` prints after loading the script as ``caps``,
    with the variables ``env`` added to a bare environment.

    A child's peak RSS includes its parent's, so a row run from this test
    session would read the session's peak; a bare interpreter reads what
    ``python3 ci/caps.py`` reads.
    """
    load = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('caps', {str(SCRIPT)!r})\n"
        "caps = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(caps)\n"
    )
    env = {"PATH": "", "PYTHONPATH": str(caps.SRC), **(env or {})}
    proc = subprocess.run([sys.executable, "-c", load + code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_row(*row, workdir, env=None):
    return in_fresh_interpreter(f"print(json.dumps(caps.run_row(*{row!r}, {str(workdir)!r})))",
                                env)


def test_cap_rows_use_the_cli_caps():
    assert config("store-caps")["n_trials"] == cli.MAX_TRIALS
    assert config("store-caps")["histogram_bins"] == cli.MAX_HISTOGRAM_BINS
    assert config("calibrate-caps")["jx_points"] == cli.MAX_JX_POINTS
    assert config("calibrate-caps")["n_cycles"] == cli.MAX_CYCLES
    assert config("microscopic-caps")["bins"] == cli.MAX_TIME_BINS
    assert config("microscopic-caps")["sweep_bins"] == cli.MAX_TIME_BINS


def test_lifetime_row_is_at_the_curve_cap():
    cfg = config("lifetime-caps")
    assert cli._curve_times(cfg).size == cli.MAX_CURVE_POINTS
    with pytest.raises(ValueError, match="t_step_ms"):  # one more point is refused
        cli._curve_times(dict(cfg, t_max_ms=cfg["t_max_ms"] + cfg["t_step_ms"]))


def test_every_row_config_resolves():
    for command, row_config, _, _ in caps.ROWS.values():
        cli._resolve(command, row_config, cli._COMMANDS[command][0])


def test_script_imports_neither_numpy_nor_qmemsim():
    modules = in_fresh_interpreter(
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'qmemsim'))))"
    )
    assert modules == []


def test_default_row_passes(tmp_path):
    line, ok = run_row("fidelity-defaults", *caps.ROWS["fidelity-defaults"], workdir=tmp_path)
    assert ok, line
    assert line.endswith("ok") and " exit   0 " in line


@pytest.mark.parametrize(
    "row_config, timeout, ceiling",
    [
        ({}, 60, 1),  # a ceiling below any interpreter's peak
        ({"n_max": "x"}, 60, 64),  # exits 2
        ({}, 0.001, 64),  # killed by the timer
    ],
    ids=["ceiling", "exit-2", "timeout"],
)
def test_failing_row_fails(tmp_path, row_config, timeout, ceiling):
    line, ok = run_row("fidelity", "fidelity", row_config, timeout, ceiling, workdir=tmp_path)
    assert not ok
    assert line.endswith("FAIL")


def test_row_that_writes_to_stderr_fails(tmp_path):
    # the interpreter's import-time report goes to stderr of a run that exits 0
    line, ok = run_row("fidelity", "fidelity", {}, 60, 64, workdir=tmp_path,
                       env={"PYTHONPROFILEIMPORTTIME": "1"})
    assert not ok
    assert " exit   0 " in line and "stderr: 'import time:" in line
    assert line.endswith("FAIL")
