"""Every benchmark workload at seeds 0-4 against its reference digests:
``python3 ci/digests.py`` prints one line per run and exits 1 if any fails.

Each run is ``perfbench/run.py --workload W --seed S --seconds 1 --trace 0``
for every workload that ``BENCHMARK.json`` declares.  A run fails on a
nonzero exit, a digest ``MISMATCH`` or a result line with ``"correct":
false``, that is, on any failed operation.  Like ``ci/caps.py`` it needs the
standard library alone; perfbench brings its own imports.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(5)
#: seconds one run may take; one seed of the four workloads takes about 20 s
TIMEOUT_S = 600


def workloads():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload, seed):
    """Run one workload at one seed; its report line and pass."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    # the line perfbench prints after a pass: "<workload> seed <s>: <n> passes; <digests>"
    digests = next((line.split("; ", 1)[1] for line in lines
                    if line.startswith(f"{workload} seed {seed}:") and "; " in line), "")
    ok = (proc.returncode == 0 and "MISMATCH" not in proc.stdout
          and result.get("correct") is True)
    detail = digests or (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return (f"{workload:<22} seed {seed}  exit {proc.returncode}  "
            f"attempted {result.get('attempted', '?')} failed {result.get('failed', '?')}  "
            f"{detail}  {'ok' if ok else 'FAIL'}"), ok


def main():
    passed = True
    for seed in SEEDS:
        for workload in workloads():
            line, ok = run(workload, seed)
            print(line, flush=True)
            passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
