"""Per-layer spans taken from outside the package.

A :class:`Tracer` wraps the public functions that callers look up (the
module attributes and one class attribute listed in ``TARGETS``) while it
is installed, and restores the originals afterwards.  Each call records a
span ``(layer, start, end, parent, work)``; ``parent`` is the index of
the enclosing span, so a layer's self time is its span time minus that of
its direct children.  The package source is not touched.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

STORE = "store-series"
MICRO = "microscopic-reduction"
FIGURES = "figures-of-merit"
CONDITIONAL = "conditional-pipeline"

# (layer, module, attribute, work counter taking (args, result))
TARGETS = (
    ("cli", "qmemsim.cli", "main", None),
    ("rng.trial_normals", "qmemsim.rng", "trial_normals", lambda a, r: r.size),
    ("kernels.two_stage_outcomes", "qmemsim.kernels", "two_stage_outcomes", None),
    ("kernels.bin_sweep", "qmemsim.kernels", "bin_sweep",
     lambda a, r: a[0].shape[0] * a[2].shape[1]),
    ("montecarlo.run_series", "qmemsim.montecarlo", "run_series", lambda a, r: len(r)),
    ("montecarlo.estimate_channel", "qmemsim.montecarlo", "estimate_channel", None),
    ("montecarlo.make_histogram", "qmemsim.montecarlo", "make_histogram", None),
    ("plots.histogram_svg", "qmemsim.plots", "histogram_svg", None),
    ("plots.line_svg", "qmemsim.plots", "line_svg", None),
    ("microscopic.propagate_binned", "qmemsim.microscopic", "propagate_binned", None),
    ("microscopic.demodulate", "qmemsim.microscopic", "demodulate", None),
    ("microscopic.omega_t_sweep", "qmemsim.microscopic", "omega_t_sweep", None),
    ("fidelity.average_fidelity", "qmemsim.fidelity", "average_fidelity", None),
    ("fidelity.optimize_classical_gain", "qmemsim.fidelity", "optimize_classical_gain", None),
    ("decoherence.calibrate_tau", "qmemsim.decoherence", "calibrate_tau", None),
    ("decoherence.fidelity_vs_time", "qmemsim.decoherence", "fidelity_vs_time", None),
    ("calibration.synthesize_series", "qmemsim.calibration", "synthesize_series", None),
    ("calibration.fit_pnl", "qmemsim.calibration", "fit_pnl", None),
    ("protocol.store_conditional", "qmemsim.protocol", "store_conditional", None),
    ("protocol.store_average", "qmemsim.protocol", "store_average", None),
    ("protocol.reverse_readout", "qmemsim.protocol", "reverse_readout", None),
    ("gaussian.homodyne_measure", "qmemsim.gaussian", "homodyne_measure", None),
    ("gaussian.apply_symplectic", "qmemsim.gaussian", "apply_symplectic", None),
    ("gaussian.symplectic_check", "qmemsim.gaussian", "SymplecticMap.__post_init__", None),
)


class Tracer:
    """Records spans of the target functions while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def _wrap(self, layer, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, 0)
            if work is not None:
                spans[index] = (layer, start, end, parent, work(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target; a function is rebound in each qmemsim module
        that holds it, since ``from x import f`` copies the reference."""
        patched = []
        try:
            for layer, module_name, attribute, work in TARGETS:
                try:
                    owner = importlib.import_module(module_name)
                    *classes, name = attribute.split(".")
                    for cls in classes:
                        owner = getattr(owner, cls)
                    original = getattr(owner, name)
                except (ImportError, AttributeError):
                    self.missing.append(layer)
                    continue
                wrapper = self._wrap(layer, original, work)
                if classes:
                    holders = [(owner, name)]
                else:
                    holders = [
                        (module, key)
                        for mod_name, module in list(sys.modules.items())
                        if mod_name == "qmemsim" or mod_name.startswith("qmemsim.")
                        for key, value in list(vars(module).items())
                        if value is original
                    ]
                for holder, key in holders:
                    patched.append((holder, key, original))
                    setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)


def layer_totals(spans):
    """Per layer: calls, inclusive seconds, child seconds, work units."""
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "child_s": 0.0, "work": 0})
    for layer, start, end, parent, work in spans:
        entry = totals[layer]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["work"] += work
        if parent >= 0:
            totals[spans[parent][0]]["child_s"] += end - start
    return totals


def calls_under(spans, layer, ancestor):
    """Number of ``layer`` spans with an ``ancestor`` span above them."""
    count = 0
    for name, _, _, parent, _ in spans:
        if name != layer:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _seconds(layer):
    return lambda t, spans, ctx: t[layer]["s"]


def _self_seconds(layer):
    return lambda t, spans, ctx: t[layer]["s"] - t[layer]["child_s"]


def _calls(layer):
    return lambda t, spans, ctx: t[layer]["calls"]


def _work_rate(layer):
    return lambda t, spans, ctx: _ratio(t[layer]["work"], t[layer]["s"])


def _us_per_call(layer):
    return lambda t, spans, ctx: 1e6 * _ratio(t[layer]["s"], t[layer]["calls"])


# per-layer metrics taken from spans: (name, unit, home workload, value)
SPAN_METRICS = (
    ("rng.trial_normals.s", "s", STORE, _seconds("rng.trial_normals")),
    ("rng.trial_normals.normals_per_s", "1/s", STORE, _work_rate("rng.trial_normals")),
    ("kernels.two_stage_outcomes.s", "s", STORE, _seconds("kernels.two_stage_outcomes")),
    ("kernels.bin_sweep.s", "s", MICRO, _seconds("kernels.bin_sweep")),
    ("kernels.bin_sweep.calls", "count", MICRO, _calls("kernels.bin_sweep")),
    ("kernels.bin_sweep.cells_per_s", "1/s", MICRO, _work_rate("kernels.bin_sweep")),
    ("montecarlo.run_series.self_s", "s", STORE, _self_seconds("montecarlo.run_series")),
    ("montecarlo.run_series.trials_per_s", "1/s", STORE, _work_rate("montecarlo.run_series")),
    ("montecarlo.estimate_channel.s", "s", STORE, _seconds("montecarlo.estimate_channel")),
    ("montecarlo.make_histogram.s", "s", STORE, _seconds("montecarlo.make_histogram")),
    ("cli.self_s", "s", STORE, _self_seconds("cli")),
    ("cli.bytes_written", "B", STORE, lambda t, spans, ctx: ctx["bytes_written"]),
    ("cli.write_mib_per_s", "MiB/s", STORE,
     lambda t, spans, ctx: _ratio(ctx["bytes_written"] / 2**20, t["cli"]["s"] - t["cli"]["child_s"])),
    ("plots.histogram_svg.s", "s", STORE, _seconds("plots.histogram_svg")),
    ("plots.line_svg.s", "s", FIGURES, _seconds("plots.line_svg")),
    ("microscopic.propagate_binned.s", "s", MICRO, _seconds("microscopic.propagate_binned")),
    ("microscopic.demodulate.self_s", "s", MICRO, _self_seconds("microscopic.demodulate")),
    ("microscopic.omega_t_sweep.s", "s", MICRO, _seconds("microscopic.omega_t_sweep")),
    ("fidelity.average_fidelity.calls", "count", FIGURES, _calls("fidelity.average_fidelity")),
    ("fidelity.average_fidelity.us_per_call", "us", FIGURES, _us_per_call("fidelity.average_fidelity")),
    ("fidelity.optimize_classical_gain.calls", "count", FIGURES,
     _calls("fidelity.optimize_classical_gain")),
    ("fidelity.optimize_classical_gain.s", "s", FIGURES, _seconds("fidelity.optimize_classical_gain")),
    ("decoherence.calibrate_tau.s", "s", FIGURES, _seconds("decoherence.calibrate_tau")),
    ("decoherence.calibrate_tau.fidelity_calls", "count", FIGURES,
     lambda t, spans, ctx: calls_under(spans, "fidelity.average_fidelity", "decoherence.calibrate_tau")),
    ("decoherence.fidelity_vs_time.s", "s", FIGURES, _seconds("decoherence.fidelity_vs_time")),
    ("calibration.synthesize_series.s", "s", FIGURES, _seconds("calibration.synthesize_series")),
    ("calibration.fit_pnl.s", "s", FIGURES, _seconds("calibration.fit_pnl")),
    ("protocol.store_conditional.calls", "count", CONDITIONAL, _calls("protocol.store_conditional")),
    ("protocol.store_conditional.us_per_call", "us", CONDITIONAL,
     _us_per_call("protocol.store_conditional")),
    ("protocol.store_average.s", "s", CONDITIONAL, _seconds("protocol.store_average")),
    ("protocol.reverse_readout.s", "s", CONDITIONAL, _seconds("protocol.reverse_readout")),
    ("gaussian.homodyne_measure.s", "s", CONDITIONAL, _seconds("gaussian.homodyne_measure")),
    ("gaussian.apply_symplectic.calls", "count", CONDITIONAL, _calls("gaussian.apply_symplectic")),
    ("gaussian.symplectic_check.calls", "count", CONDITIONAL, _calls("gaussian.symplectic_check")),
    ("gaussian.symplectic_check.s", "s", CONDITIONAL, _seconds("gaussian.symplectic_check")),
)


def span_metrics(home_spans, home_context):
    """Every span metric, each from the traced pass of its home workload."""
    totals = {name: layer_totals(spans) for name, spans in home_spans.items()}
    return {
        name: (value(totals[home], home_spans[home], home_context[home]), unit)
        for name, unit, home, value in SPAN_METRICS
    }


def import_times(python, env, cwd, repeats=3, timeout=60):
    """Median cumulative import seconds of qmemsim.cli and scipy.optimize,
    read from ``python -X importtime``; 0 for a module not imported."""
    samples = {"qmemsim.cli": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import qmemsim.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in samples and name not in found:
                found[name] = int(parts[1]) * 1e-6
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def kernel_races(repeats=5):
    """Best-of-N seconds of the two kernels on fixed synthetic inputs
    (10 000 bins x 8 columns; 10^6 trials), for the selected backend."""
    import numpy as np
    from qmemsim import kernels

    rng = np.random.default_rng(0)
    kc, ks = rng.normal(size=10_000) * 0.01, rng.normal(size=10_000) * 0.01
    base = rng.normal(size=(2 * 10_000 + 4, 8))
    z1, z2 = rng.normal(size=1_000_000), rng.normal(size=1_000_000)
    out1, out2 = np.empty_like(z1), np.empty_like(z2)
    best = {"bin_sweep": float("inf"), "two_stage_outcomes": float("inf")}
    for _ in range(repeats):
        work = base.copy()
        start = time.perf_counter()
        kernels.bin_sweep(kc, ks, work)
        best["bin_sweep"] = min(best["bin_sweep"], time.perf_counter() - start)
        start = time.perf_counter()
        kernels.two_stage_outcomes(z1, z2, 0.1, 1.2, -0.3, 0.7, 0.9, out1, out2)
        best["two_stage_outcomes"] = min(best["two_stage_outcomes"], time.perf_counter() - start)
    return best
