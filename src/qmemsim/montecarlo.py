"""Stochastic simulation of full storage-and-verification series.

A series repeats the storage sequence with fresh atoms and fresh light:
store the input, optionally rotate the atomic quadratures by a quarter
cycle, send a verification pulse through, and record its homodyne X.
Two arms exist because the two atomic quadratures cannot be verified in
the same run: the "p" arm reads the stored P directly, the "x" arm
applies the rotation first so the stored X lands on the readable
quadrature (with a sign flip from the rotation convention).

Each arm's series is two columns (:class:`TrialSeries`), bit-identical
for a given seed under any chunking, since trial randomness is
counter-based (see :mod:`qmemsim.rng`).  The sampler exploits that the
conditional means are affine in earlier outcomes; the coefficients are
extracted once per series from the exact conditional-Gaussian pipeline,
and a literal per-trial replay of it is kept as `_run_series_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .gaussian import apply_symplectic, coherent_state, homodyne_measure, tensor
from .protocol import (
    VERIFY,
    initial_atoms,
    interaction_map,
    pi_half_pulse,
    readout_map,
    reconstruct_atomic_variance,
    store_conditional,
)
from .rng import BlockRandomSource, stream_key, trial_normals

__all__ = [
    "ARM_P",
    "ARM_X",
    "ARM_SIGN",
    "MIN_TRIALS",
    "MIN_BINS",
    "TrialSeries",
    "HistogramSeries",
    "ReconstructedState",
    "run_series",
    "estimate_channel",
    "make_histogram",
    "ideal_reference",
]

ARM_P = "p"  # verify the stored P (no rotation)
ARM_X = "x"  # verify the stored X (quarter-cycle rotation first)
_ARM_TAGS = {ARM_P: 0, ARM_X: 1}
ARM_SIGN = {ARM_P: 1.0, ARM_X: -1.0}  # readout sign of the stored quadrature

MIN_TRIALS = 100  # per arm, for estimate_channel
MIN_BINS = 5  # for make_histogram


@dataclass(frozen=True, eq=False)
class TrialSeries:
    """One arm's feedback and verification records; row ``i`` is trial ``i``."""

    arm: str
    feedback: np.ndarray
    verification: np.ndarray

    def __len__(self):
        return self.verification.size


@dataclass(frozen=True)
class HistogramSeries:
    """Binned verification outcomes plus the ideal-memory reference curve."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_trials: int
    scaled_by: float
    ref_mean: float
    ref_sd: float


@dataclass(frozen=True)
class ReconstructedState:
    """Atomic memory moments estimated from the two verification arms."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    se_mean_x: float
    se_mean_p: float
    se_var_x: float
    se_var_p: float
    n_trials_x: int
    n_trials_p: int


def _series_coefficients(input_mean, params, arm):
    """Affine sampling coefficients of one series, from the exact pipeline.

    Returns ``(mean1, sd1, offset2, slope2, sd2)``: the transmitted-light
    X marginal is N(mean1, sd1^2); given feedback outcome t, the
    verification X marginal is N(offset2 + slope2 * t, sd2^2).  The
    conditional-Gaussian update is linear in the outcome, so probing the
    pipeline at t = 0 and t = 1 determines it exactly.
    """
    light = coherent_state(*input_mean, mode="light")
    joint = tensor(light, initial_atoms(params))
    joint = apply_symplectic(joint, interaction_map(params.coupling))
    mean1 = joint.quad_mean("light", "x")
    sd1 = np.sqrt(joint.quad_var("light", "x"))

    probes = []
    sd2 = None
    for t in (0.0, 1.0):
        _, atoms = store_conditional(light, params, fixed_outcome=t)
        if arm == ARM_X:
            atoms = pi_half_pulse(atoms)
        verified = readout_map(atoms, params.readout_coupling)
        probes.append(verified.quad_mean(VERIFY, "x"))
        sd2 = np.sqrt(verified.quad_var(VERIFY, "x"))
    offset2, slope2 = probes[0], probes[1] - probes[0]
    return mean1, sd1, offset2, slope2, sd2


def run_series(input_mean, params, arm, n_trials, seed, chunk_size=1 << 16):
    """Simulate a verification series; returns its :class:`TrialSeries`.

    ``input_mean`` is the (x, p) mean of the coherent input, ``arm`` is
    :data:`ARM_P` or :data:`ARM_X`.  For a fixed seed the columns are
    deterministic and independent of ``chunk_size``.
    """
    if arm not in _ARM_TAGS:
        raise ValueError(f"arm must be {ARM_P!r} or {ARM_X!r}")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    mean1, sd1, offset2, slope2, sd2 = _series_coefficients(
        input_mean, params, arm
    )
    key = stream_key(seed, _ARM_TAGS[arm])

    feedback = np.empty(n_trials)
    verification = np.empty(n_trials)
    for start in range(0, n_trials, chunk_size):
        rows = slice(start, min(start + chunk_size, n_trials))
        z = trial_normals(key, start, rows.stop - start, width=2)
        kernels.two_stage_outcomes(
            z[:, 0], z[:, 1], mean1, sd1, offset2, slope2, sd2,
            feedback[rows], verification[rows],
        )
    return TrialSeries(arm, feedback, verification)


def _run_series_reference(input_mean, params, arm, n_trials, seed):
    """Per-trial replay through the full Gaussian pipeline (slow path).

    Consumes the same counter-based normals as :func:`run_series`; used
    to verify that the affine sampler reproduces the literal sequence of
    operations.
    """
    key = stream_key(seed, _ARM_TAGS[arm])
    z = trial_normals(key, 0, n_trials, width=2)
    light = coherent_state(*input_mean, mode="light")
    series = TrialSeries(arm, np.empty(n_trials), np.empty(n_trials))
    for i in range(n_trials):
        rng = BlockRandomSource(z[i])
        series.feedback[i], atoms = store_conditional(light, params, rng=rng)
        if arm == ARM_X:
            atoms = pi_half_pulse(atoms)
        verified = readout_map(atoms, params.readout_coupling)
        series.verification[i], _ = homodyne_measure(
            verified, VERIFY, "x", rng=rng
        )
    return series


def _outcomes(series, arm):
    if series.arm != arm:
        raise ValueError(f"expected arm {arm!r}, found {series.arm!r}")
    return series.verification


def estimate_channel(series_p, series_x, readout_coupling):
    """Reconstruct the memory moments from the two verification arms.

    Means are scaled by the readout coupling and carry the arm's
    :data:`ARM_SIGN` (the x arm's rotation flips it); variances pass through
    :func:`~qmemsim.protocol.reconstruct_atomic_variance`.  Standard
    errors are the usual sample-moment errors, the variance one from the
    chi-squared width ``sigma^2 sqrt(2 / (N - 1))``.
    """
    v_p = _outcomes(series_p, ARM_P)
    v_x = _outcomes(series_x, ARM_X)
    if min(v_p.size, v_x.size) < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials per arm")
    k_r = readout_coupling

    def moments(values, sign):
        n = values.size
        s2 = float(np.var(values, ddof=1))
        mean = sign * float(np.mean(values)) / k_r
        se_mean = np.sqrt(s2 / n) / abs(k_r)
        var = reconstruct_atomic_variance(s2, k_r)
        se_var = s2 * np.sqrt(2.0 / (n - 1)) / k_r**2
        return mean, se_mean, var, se_var, n

    mean_p, se_mean_p, var_p, se_var_p, n_p = moments(v_p, ARM_SIGN[ARM_P])
    mean_x, se_mean_x, var_x, se_var_x, n_x = moments(v_x, ARM_SIGN[ARM_X])
    return ReconstructedState(
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=var_x,
        var_p=var_p,
        se_mean_x=se_mean_x,
        se_mean_p=se_mean_p,
        se_var_x=se_var_x,
        se_var_p=se_var_p,
        n_trials_x=n_x,
        n_trials_p=n_p,
    )


def ideal_reference(params, arm, input_mean):
    """Mean and spread of the scaled readout for a perfect memory.

    The overlay curve for histograms: a lossless memory stores the input
    state itself, so the scaled verification outcome is Gaussian around
    the stored quadrature with the shot-noise floor on top.
    """
    x_in, p_in = input_mean
    k_r = params.readout_coupling
    ref_mean = -x_in if arm == ARM_P else p_in
    ref_sd = np.sqrt(0.5 + 0.5 / k_r**2)
    return ref_mean, ref_sd


def make_histogram(series, bins=50, scale=1.0, ref_mean=0.0, ref_sd=1.0):
    """Equal-width histogram of a series' scaled verification outcomes."""
    if bins < MIN_BINS:
        raise ValueError(f"at least {MIN_BINS} bins required")
    if not len(series):
        raise ValueError("no records to bin")
    samples = scale * series.verification
    lo, hi = float(samples.min()), float(samples.max())
    if lo == hi:  # degenerate data still gets a well-formed histogram
        lo, hi = lo - 0.5, hi + 0.5
    try:
        counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    except ValueError as exc:  # a range that is not finite or too narrow
        raise FloatingPointError(f"cannot bin outcomes in [{lo}, {hi}]: {exc}")
    return HistogramSeries(
        bin_edges=edges,
        counts=counts,
        n_trials=len(series),
        scaled_by=scale,
        ref_mean=ref_mean,
        ref_sd=ref_sd,
    )
