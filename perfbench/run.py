#!/usr/bin/env python3
"""qmemsim benchmark: CLI time to result, memory and start-up, per layer.

Run from the root of a checkout; the package is always taken from its
``src/``::

    python3 perfbench/run.py --workload store-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, then a traced run
    python3 perfbench/run.py --selftest               # the checkers catch perturbed outputs
    python3 perfbench/run.py --update-digests         # rewrite reference_digests.json

With ``--trace 0`` a run measures start-up, then repeats passes of the
workload (each operation a subprocess, one at a time) for ``--seconds``
and reports medians.  With ``--trace 1`` it runs every workload once
in-process with per-layer spans (see spans.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DRIVER = BENCH / "conditional_driver.py"
DIGESTS = BENCH / "reference_digests.json"
REFERENCE_SEEDS = range(10)

OP_TIMEOUT_S = 60.0  # a non-finite config value can make `fidelity` spin for minutes
RUN_DEADLINE_S = 160.0  # operation timeouts shrink so that a run's passes end by then
SETUP_SAMPLES = 5
# The machine's speed drifts by tens of percent over minutes (README.md),
# so wall times are scaled to a reference speed.  The probe is a fresh
# interpreter importing numpy and scipy, without qmemsim, so no change to
# the package moves it; 0.70 s is its time on the reference machine.
SPEED_PROBE = ("-c", "import numpy, scipy.optimize, scipy.special")
REFERENCE_PROBE_S = 0.70
CHUNK_CHECK_TRIALS = 20_000
OVERHEAD_MIN_PAIRS = 2


class BenchError(Exception):
    """The benchmark cannot run here (no package, or the wrong one)."""


# -- provenance -----------------------------------------------------------------

_PROBE = (
    "import json, sys, numpy, scipy, qmemsim, qmemsim.kernels as k; "
    "print(json.dumps({'qmemsim_file': qmemsim.__file__, 'backend': k.BACKEND, "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__}))"
)


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _under_src(path):
    return Path(path).resolve().is_relative_to(SRC.resolve())


def provenance():
    """Versions and machine; fails unless qmemsim resolves to ./src."""
    if not (SRC / "qmemsim" / "__init__.py").is_file():
        raise BenchError(f"no qmemsim package under {SRC}")
    try:
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("importing qmemsim timed out")
    if probe.returncode != 0:
        raise BenchError(f"cannot import qmemsim from src/: {probe.stderr.strip()[-300:]}")
    info = json.loads(probe.stdout.splitlines()[-1])
    if not _under_src(info["qmemsim_file"]):
        raise BenchError(f"qmemsim would be imported from {info['qmemsim_file']}, not src/")
    sha = ""
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    info.update(
        git_sha=sha or "unknown (not a git checkout)",
        nproc=len(os.sched_getaffinity(0)),
        cpu=cpu,
    )
    return info


# -- subprocesses -----------------------------------------------------------------


@dataclass
class ProcResult:
    returncode: int
    seconds: float
    peak_rss_mib: float
    timed_out: bool


def run_process(argv, timeout, log_path):
    """Run to completion under a timeout; peak RSS comes from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, seconds, usage.ru_maxrss / 1024.0, timed_out.is_set())


# -- passes -------------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float
    op_seconds: list
    peak_rss_mib: float
    op_errors: list  # one list of messages per operation
    digests: dict = field(default_factory=dict)  # operation -> file -> sha256
    work_per_s: float = 0.0


def _prepare(ops, pass_dir):
    shutil.rmtree(pass_dir, ignore_errors=True)
    paths = []
    for op in ops:
        (pass_dir / "out" / op.name).mkdir(parents=True)
        config = pass_dir / f"{op.name}.json"
        config.write_text(json.dumps(op.config, indent=2, sort_keys=True))
        paths.append((config, pass_dir / "out" / op.name))
    return paths


def _op_args(op, config, out):
    args = ["--config", str(config), "--out", str(out)]
    return [op.name, *args] if op.kind == "cli" else args


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digest_outputs(ops, pass_dir, result):
    for op in ops:
        out = pass_dir / "out" / op.name
        result.digests[op.name] = {p.name: _sha256(p) for p in sorted(out.iterdir())}
    return result


def run_pass(ops, pass_dir, deadline):
    """One pass, every operation a subprocess, one at a time."""
    paths = _prepare(ops, pass_dir)
    op_seconds, rss, errors = [], 0.0, []
    start = time.perf_counter()
    for op, (config, out) in zip(ops, paths):
        prefix = [sys.executable, "-m", "qmemsim.cli"] if op.kind == "cli" else [sys.executable, str(DRIVER)]
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
        res = run_process(prefix + _op_args(op, config, out), timeout, pass_dir / f"{op.name}.log")
        op_seconds.append(res.seconds)
        rss = max(rss, res.peak_rss_mib)
        if res.timed_out:
            errors.append([f"{op.name}: timed out after {timeout:.0f} s"])
        elif res.returncode != 0:
            errors.append([f"{op.name}: exit code {res.returncode} (see {pass_dir / op.name}.log)"])
        else:
            errors.append([])
    seconds = time.perf_counter() - start
    return _digest_outputs(ops, pass_dir, PassResult(seconds, op_seconds, rss, errors))


def run_pass_inprocess(ops, pass_dir, tracer=None):
    """One pass calling ``cli.main`` / the conditional driver in this process."""
    import conditional_driver
    import qmemsim.cli

    paths = _prepare(ops, pass_dir)
    op_seconds, errors = [], []
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with installed, contextlib.redirect_stdout(io.StringIO()):
        for op, (config, out) in zip(ops, paths):
            op_start = time.perf_counter()
            try:
                entry = qmemsim.cli.main if op.kind == "cli" else conditional_driver.main
                code = entry(_op_args(op, config, out))
            except (Exception, SystemExit):
                code = "exception: " + traceback.format_exc(limit=-3)
            op_seconds.append(time.perf_counter() - op_start)
            errors.append([] if code == 0 else [f"{op.name}: {code}"])
    seconds = time.perf_counter() - start
    return _digest_outputs(ops, pass_dir, PassResult(seconds, op_seconds, 0.0, errors))


def judge(ops, pass_dir, results, reference=None):
    """Attach each operation's verdict to every pass in ``results``.

    Without ``reference``, the outputs on disk (the last pass's) are
    checked once and that pass becomes the reference; a given reference
    pass passes on its verdict.  An operation whose bytes differ from the
    reference's fails: reruns of one config must be byte-identical.
    Checking after the timed passes also keeps this process small while
    they run, since a child's peak RSS as wait4 reports it starts from
    the parent's RSS at the fork.
    """
    if reference is None:
        reference = results[-1]
        for op, errors in zip(ops, reference.op_errors):
            if errors:
                continue
            try:
                errors.extend(f"{op.name}: {msg}" for msg in op.check(op.config, pass_dir / "out" / op.name))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors.append(f"{op.name}: unreadable output ({exc!r})")
    for result in results:
        if result is reference:
            continue
        for i, op in enumerate(ops):
            if result.op_errors[i]:
                continue
            if result.digests[op.name] != reference.digests[op.name]:
                result.op_errors[i].append(f"{op.name}: output bytes differ between passes")
            else:
                result.op_errors[i].extend(reference.op_errors[i])
    return results


def count_ops(results):
    attempted = sum(len(r.op_errors) for r in results)
    failed = sum(bool(errors) for r in results for errors in r.op_errors)
    return attempted, failed


def all_errors(results):
    return sorted({e for r in results for errors in r.op_errors for e in errors})


# -- reference digests ------------------------------------------------------------


def load_reference():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"digests": {}}


def compare_reference(workload, seed, digests):
    recorded = load_reference()["digests"].get(workload, {}).get(str(seed))
    if recorded is None:
        return f"no reference digests recorded for seed {seed}"
    flat = {f"{op}/{f}": d for op, files in digests.items() for f, d in files.items()}
    recorded = {f"{op}/{f}": d for op, files in recorded.items() for f, d in files.items()}
    bad = sorted(k for k in set(recorded) | set(flat) if recorded.get(k) != flat.get(k))
    if bad:
        return "MISMATCH against reference digests: " + ", ".join(bad)
    return f"all {len(flat)} output files match the reference digests"


def update_digests(info):
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            ops = workload.ops(seed)
            pass_dir = WORK / "digests" / name
            result = run_pass(ops, pass_dir, time.perf_counter() + RUN_DEADLINE_S)
            errors = all_errors(judge(ops, pass_dir, [result]))
            if errors:
                raise BenchError(f"{name} seed {seed} fails its checks: {errors}")
            table[name][str(seed)] = result.digests
            print(f"{name} seed {seed}: digests recorded", flush=True)
    recorded_with = {k: info[k] for k in ("python", "numpy", "scipy", "backend", "git_sha")}
    DIGESTS.write_text(json.dumps({"recorded_with": recorded_with, "digests": table}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


# -- measured run -----------------------------------------------------------------


def _fresh_interpreter_s(args):
    res = run_process([sys.executable, *args], OP_TIMEOUT_S, WORK / "setup.log")
    if res.returncode != 0 or res.timed_out:
        raise BenchError(f"python3 {' '.join(args)} failed; see .perfbench_work/setup.log")
    return res.seconds


def setup_and_probe_sample():
    """Wall times of a fresh interpreter running ``import qmemsim.cli``
    and of one running the speed probe, taken back to back."""
    return _fresh_interpreter_s(("-c", "import qmemsim.cli")), _fresh_interpreter_s(SPEED_PROBE)


def measure(name, seed, seconds):
    workload = WORKLOADS[name]
    ops = workload.ops(seed)
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    pass_dir = WORK / name
    results, samples = [], []
    while True:
        result = run_pass(ops, pass_dir, deadline)
        result.work_per_s = workload.work(ops, pass_dir / "out" / ops[-1].name, result.op_seconds, result.seconds)
        results.append(result)
        if len(samples) < SETUP_SAMPLES:  # spread over the run, like the passes
            samples.append(setup_and_probe_sample())
        if sum(r.seconds for r in results) >= seconds or time.perf_counter() > deadline:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_and_probe_sample())
    judge(ops, pass_dir, results)
    attempted, failed = count_ops(results)
    raw = {
        "setup_s": statistics.median(s for s, _ in samples),
        "run_s": statistics.median(r.seconds for r in results),
        "work_per_s": statistics.median(r.work_per_s for r in results),
    }
    probe_s = statistics.median(p for _, p in samples)
    speed = REFERENCE_PROBE_S / probe_s  # below 1 while the machine runs slow
    metrics = {
        "setup_s": (raw["setup_s"] * speed, "s"),
        "run_s": (raw["run_s"] * speed, "s"),
        "peak_rss_mib": (statistics.median(r.peak_rss_mib for r in results), "MiB"),
        "work_per_s": (raw["work_per_s"] / speed, "1/s"),
    }
    return {
        "workload": name,
        "seed": seed,
        "passes": len(results),
        "pass_s": [r.seconds for r in results],
        "setup_and_probe_samples_s": samples,
        "probe_s": probe_s,
        "raw": raw,
        "unit_of_work": workload.unit_of_work,
        "configs": {op.name: op.config for op in ops},
        "attempted": attempted,
        "failed": failed,
        "errors": all_errors(results),
        "digests": results[-1].digests,
        "reference": compare_reference(name, seed, results[-1].digests),
        "metrics": metrics,
        "wall_s": time.perf_counter() - run_start,
    }


# -- traced run -------------------------------------------------------------------


def _import_package():
    sys.path.insert(0, str(SRC))
    import qmemsim.cli

    if not _under_src(qmemsim.__file__):
        raise BenchError(f"qmemsim was imported from {qmemsim.__file__}, not src/")


def _chunking_check(config):
    """run_series must give identical outcomes at two chunk sizes."""
    from qmemsim import montecarlo, protocol

    params = protocol.StorageParams(
        **{k: config[k] for k in ("coupling", "gain", "readout_coupling", "atom_var_x", "atom_var_p")}
    )
    mean = (config["input_x"], config["input_p"])
    a, b = (
        montecarlo.run_series(mean, params, "p", CHUNK_CHECK_TRIALS, config["seed"], chunk_size=chunk)
        for chunk in (1 << 16, 4099)
    )
    return [] if pickle.dumps(a) == pickle.dumps(b) else ["run_series outcomes depend on chunk_size"]


def trace(seed, seconds, overhead_workloads):
    """Traced passes of every workload, then untraced/traced pairs for the
    tracing overhead of ``overhead_workloads``."""
    _import_package()
    run_start = time.perf_counter()
    imports = spans.import_times(sys.executable, child_env(), ROOT)
    races = spans.kernel_races()
    home_spans, home_context, results, traced = {}, {}, [], {}
    missing = set()
    for name, workload in WORKLOADS.items():
        ops = workload.ops(seed)
        pass_dir = WORK / f"trace-{name}"
        tracer = spans.Tracer()
        result = run_pass_inprocess(ops, pass_dir, tracer)
        judge(ops, pass_dir, [result])
        results.append(result)
        traced[name] = (ops, result, [result.seconds])
        home_spans[name] = tracer.spans
        missing.update(tracer.missing)
        home_context[name] = {
            "bytes_written": sum(p.stat().st_size for p in (pass_dir / "out").rglob("*") if p.is_file())
        }
        if name == spans.STORE:
            results.append(PassResult(0.0, [], 0.0, [_chunking_check(ops[0].config)]))
    overhead = {}
    for name in overhead_workloads:
        ops, first, traced_s = traced[name]
        untraced_s = []
        pass_dir = WORK / f"overhead-{name}"
        while len(untraced_s) < OVERHEAD_MIN_PAIRS or time.perf_counter() - run_start < seconds:
            untraced = run_pass_inprocess(ops, pass_dir)
            again = run_pass_inprocess(ops, pass_dir, spans.Tracer())
            results += judge(ops, pass_dir, [untraced, again], reference=first)
            untraced_s.append(untraced.seconds)
            traced_s.append(again.seconds)
        overhead[name] = statistics.median(traced_s) - statistics.median(untraced_s)

    metrics = {
        "import.qmemsim_cli.s": (imports["qmemsim.cli"], "s"),
        "import.scipy_optimize.s": (imports["scipy.optimize"], "s"),
        "kernels.bin_sweep.fixed_s": (races["bin_sweep"], "s"),
        "kernels.two_stage_outcomes.fixed_s": (races["two_stage_outcomes"], "s"),
        **spans.span_metrics(home_spans, home_context),
    }
    attempted, failed = count_ops(results)
    WORK.mkdir(exist_ok=True)
    for name, recorded in home_spans.items():
        (WORK / f"spans-{name}.json").write_text(
            json.dumps({"fields": ["layer", "start", "end", "parent", "work"], "spans": recorded})
        )
    return {
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "errors": all_errors(results),
        "missing_targets": sorted(missing),
        "overhead": overhead,
        "metrics": metrics,
        "wall_s": time.perf_counter() - run_start,
    }


# -- self-test of the checkers ------------------------------------------------------


def selftest(seed):
    ok = True
    passes = {}
    for name, workload in WORKLOADS.items():
        ops = workload.ops(seed)
        pass_dir = WORK / f"selftest-{name}"
        result = run_pass(ops, pass_dir, time.perf_counter() + RUN_DEADLINE_S)
        errors = all_errors(judge(ops, pass_dir, [result]))
        print(f"clean {name}: {'ok' if not errors else errors}")
        ok &= not errors
        passes[name] = (ops, pass_dir)
    for name, op_name, perturb, label in checks.PERTURBATIONS:
        ops, pass_dir = passes[name]
        op = next(o for o in ops if o.name == op_name)
        copy = WORK / "selftest-perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(pass_dir / "out" / op_name, copy)
        perturb(copy)
        caught = [m for m in op.check(op.config, copy) if m.startswith(label)]
        print(f"{perturb.__name__} on {name}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}")
        ok &= bool(caught)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


# -- reporting --------------------------------------------------------------------


def _print_provenance(info):
    print(
        f"provenance: git {info['git_sha']}; {info['nproc']} cpus ({info['cpu']}); "
        f"python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}; "
        f"kernels.BACKEND={info['backend']}; qmemsim from {info['qmemsim_file']}"
    )


def _print_metrics(metrics, unit_of_work=None):
    for key, (value, unit) in metrics.items():
        note = f"  ({unit_of_work} per second)" if key == "work_per_s" else ""
        print(f"  {key:<44} {value:>14.6g} {unit}{note}")


def _result_line(report):
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def _write_report(name, report, info):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"report-{name}.json"
    path.write_text(json.dumps({"provenance": info, **report}, indent=2, sort_keys=True, default=str))
    return path


def _show_errors(report):
    for error in report["errors"]:
        print(f"  FAILED {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="qmemsim benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="perturb outputs; the checkers must fail")
    parser.add_argument("--update-digests", action="store_true", help="rewrite reference_digests.json")
    args = parser.parse_args(argv)
    try:
        info = provenance()
        WORK.mkdir(exist_ok=True)
        _print_provenance(info)
        if args.selftest:
            return selftest(args.seed)
        if args.update_digests:
            update_digests(info)
            return 0
        if args.workload == "all":
            return run_all(args, info)
        if args.trace:
            report = trace(args.seed, args.seconds, [args.workload])
            report["metrics"]["trace.overhead_s"] = (report["overhead"][args.workload], "s")
            name = f"trace-{args.workload}"
        else:
            report = measure(args.workload, args.seed, args.seconds)
            name = args.workload
            print(f"{name} seed {args.seed}: {report['passes']} passes; {report['reference']}")
            print(f"  speed probe {report['probe_s']:.4f} s (reference {REFERENCE_PROBE_S} s); unscaled: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in report["raw"].items()))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _show_errors(report)
    _print_metrics(report["metrics"], report.get("unit_of_work"))
    print(f"  attempted {report['attempted']}  failed {report['failed']}  "
          f"(report: {_write_report(name, report, info).relative_to(ROOT)})")
    print(_result_line(report))
    return 0


def run_all(args, info):
    """Each workload measured in its own process, then one traced run."""
    attempted = failed = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_DEADLINE_S + 60)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} run failed: {proc.stderr.strip()[-300:]}")
        print("\n".join(lines[1:-1]), flush=True)  # without its provenance and result lines
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
    report = trace(args.seed, 0.0, list(WORKLOADS))
    for name, value in report["overhead"].items():
        report["metrics"][f"trace.overhead_s.{name}"] = (value, "s")
    path = _write_report("trace-all", report, info)
    print(f"per-layer metrics from the traced run (written to {path.relative_to(ROOT)}):")
    _show_errors(report)
    _print_metrics(report["metrics"])
    print(f"  attempted {report['attempted']}  failed {report['failed']}")
    attempted += report["attempted"]
    failed += report["failed"]
    print(f"all workloads: attempted {attempted}  failed {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
