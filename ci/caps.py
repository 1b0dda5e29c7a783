"""Every subcommand at its count caps and at its defaults, under a timeout
and a peak-RSS ceiling, with nothing on stderr: ``python3 ci/caps.py`` prints
one line per check and exits 1 if any fails.

Each row runs in a fresh interpreter, and its peak RSS comes from
``os.wait4``.  That figure includes the resident set of the process that
spawned the child, so this script imports neither numpy nor qmemsim and
writes the caps of ``qmemsim.cli`` as literals (``tests/test_caps.py`` ties
them to ``cli.MAX_*``).  The same ``wait4`` gives the row's minor page
faults (``ru_minflt``), which the line reports and no check gates.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STORE = {"input_x": 0.0, "input_p": -4.0}  # store's two required keys
#: row -> (subcommand, config, timeout in s, peak-RSS ceiling in MiB)
ROWS = {
    "store-caps": ("store", {**STORE, "n_trials": 1_000_000, "histogram_bins": 100_000}, 60, 100),
    "calibrate-caps": ("calibrate", {"jx_points": 1_000_000, "n_cycles": 10**12}, 60, 200),
    # a path in the work directory: the series that calibrate-caps wrote
    "calibrate-refit": ("calibrate", {"series_csv": "calibrate-caps/calibration_points.csv"}, 60, 200),
    "microscopic-caps": ("microscopic", {"bins": 1_000_000, "sweep_bins": 1_000_000}, 60, 345),
    "lifetime-caps": ("lifetime", {"t_max_ms": 9.9999, "t_step_ms": 0.0001}, 60, 120),  # 100 000 points
    **{f"{name}-defaults": (name, STORE if name == "store" else {}, 60, 64)
       for name in ("store", "fidelity", "calibrate", "microscopic", "lifetime")},
}
#: the re-fit must write the bytes of the fit it re-does
SAME_BYTES = ("calibrate-caps/calibration_fit.json", "calibrate-refit/calibration_fit.json")


def run_row(name, command, config, timeout, ceiling, workdir):
    """Run one row in ``workdir``, writing to ``workdir/name``; its report line and pass.

    A row passes if it exits 0 with an empty stderr, under its ceiling and
    its timeout; the line quotes the first line of a nonempty stderr.
    """
    (Path(workdir) / f"{name}.json").write_text(json.dumps(config))
    argv = [sys.executable, "-m", "qmemsim.cli", command, "--config", f"{name}.json", "--out", name]
    err_path = Path(workdir) / f"{name}.stderr"
    start = time.perf_counter()
    # to a file, not a pipe: a full pipe would block the child while wait4 waits
    with open(err_path, "w") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env={**os.environ, "PYTHONPATH": str(SRC)},
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds, peak, faults = time.perf_counter() - start, usage.ru_maxrss / 1024, usage.ru_minflt
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").splitlines()
    ok = code == 0 and not stderr and peak < ceiling and seconds < timeout
    quoted = f"  stderr: {stderr[0]!r}" if stderr else ""
    return (f"{name:<20} exit {code:>3}  {peak:6.1f} MiB < {ceiling:<3}  "
            f"{seconds:5.1f} s < {timeout}  {faults:>7} minflt{quoted}  "
            f"{'ok' if ok else 'FAIL'}"), ok


def main():
    passed = True
    with tempfile.TemporaryDirectory() as workdir:
        for name, row in ROWS.items():
            line, ok = run_row(name, *row, workdir)
            print(line, flush=True)
            passed &= ok
        a, b = (Path(workdir, path) for path in SAME_BYTES)
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    print(f"{SAME_BYTES[1]} == {SAME_BYTES[0]}  {'ok' if same else 'FAIL'}")
    return 0 if passed and same else 1


if __name__ == "__main__":
    sys.exit(main())
