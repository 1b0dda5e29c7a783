"""Phenomenological Gaussian decay of the stored atomic state.

The stored state relaxes toward an isotropic fixed point: means shrink by
``beta = exp(-t / tau)`` while each variance mixes toward the vacuum
value plus an optional excess, ``var -> beta^2 var + (1 - beta^2) (1/2 +
excess)``.  This is the simplest Gaussian semigroup with a monotone
fidelity curve; its single calibration anchor is the time at which the
set-averaged fidelity crosses the classical benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fidelity's functions are called through the module, as montecarlo calls
# rng's, so that a wrapper set on the module attribute (perfbench's tracer)
# sees every call, whichever of the two modules was imported first
from . import fidelity
from ._solvers import brentq
from .protocol import ChannelSummary, store_channel

__all__ = [
    "DecayParams",
    "decay_channel",
    "fidelity_vs_time",
    "calibrate_tau",
    "crossing_time",
]

#: range of coherence times (s) searched by :func:`calibrate_tau`
TAU_BRACKET = (1e-5, 1.0)


@dataclass(frozen=True)
class DecayParams:
    """Coherence time (s) and excess steady-state variance (canonical)."""

    tau: float
    excess_noise_rate: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        excess = self.excess_noise_rate
        if not (np.isfinite(excess) and excess >= 0):
            raise ValueError("excess_noise_rate must be finite and nonnegative")


def _mixed(var, beta2, params):
    return beta2 * var + (1.0 - beta2) * (0.5 + params.excess_noise_rate)


def _decayed(channel, t, params):
    """Gains and variances ``(gain_x, gain_p, var_x, var_p)`` at time ``t``.

    ``t`` is a scalar or an array of times.  ``np.float_power`` squares
    beta with C pow on every element, as ``**`` does on a scalar, so an
    array of times gives the bytes of one call per time.
    """
    beta = np.exp(-t / params.tau)
    beta2 = np.float_power(beta, 2)
    return (
        beta * channel.gain_x,
        beta * channel.gain_p,
        _mixed(channel.var_x, beta2, params),
        _mixed(channel.var_p, beta2, params),
    )


def decay_channel(channel, t, params):
    """Channel summary after storage delay: gains scale uniformly by beta."""
    if t < 0:
        raise ValueError("storage time must be nonnegative")
    return ChannelSummary(*_decayed(channel, t, params))


def fidelity_vs_time(cset, storage_params, decay, times):
    """Set-averaged fidelity at each storage time (same order as input).

    The decayed gains and variances of every time are computed as arrays
    and refined by one batched quadrature (:func:`average_fidelities`);
    each value equals ``average_fidelity(cset, decay_channel(base, t,
    decay))`` for its own time ``t``, byte for byte.

    The curve is monotone non-increasing whenever the relaxation fixed
    point ``1/2 + excess_noise_rate`` is at least as noisy as the stored
    variances; a fixed point purer than the memory would transiently
    raise the fidelity (relaxation would scrub stored noise faster than
    it damps the signal).
    """
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValueError("times must be sorted and nonnegative")
    decayed = _decayed(store_channel(storage_params), times, decay)
    finite = np.isfinite(decayed).all(axis=0)
    if not finite.all():  # the summary's own check names the quantity
        ChannelSummary(*(column[np.argmin(finite)] for column in decayed))
    return fidelity.average_fidelities(cset, *decayed)


def calibrate_tau(cset, storage_params, crossing, excess_noise_rate=0.0, *, f_class):
    """Coherence time for which the fidelity meets the classical optimum.

    Root-finds ``tau`` such that the decayed channel's fidelity at
    ``crossing`` seconds equals ``f_class``, the best classical fidelity
    for the set as :func:`~qmemsim.fidelity.optimize_classical_gain`
    returns it.  Raises ``RuntimeError`` if the channel never beats it
    and ``ValueError`` if it still beats it at the shortest ``tau`` of the
    bracket (the crossing is too short to calibrate).
    """
    base = store_channel(storage_params)

    def gap(tau):
        decayed = decay_channel(base, crossing, DecayParams(tau, excess_noise_rate))
        return fidelity.average_fidelity(cset, decayed) - f_class

    lo, hi = TAU_BRACKET
    if gap(hi) <= 0:
        raise RuntimeError(
            "channel never beats the classical benchmark; cannot calibrate"
        )
    if gap(lo) > 0:
        raise ValueError(
            f"crossing time {crossing} s is too short: the fidelity still "
            f"beats the classical benchmark at tau = {lo} s"
        )
    tau = brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12)
    return DecayParams(tau, excess_noise_rate)


def crossing_time(times, fidelities, threshold):
    """Linear-interpolated time where the curve falls through a threshold.

    Returns None if the curve never crosses within the grid.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(fidelities, dtype=float)
    below = np.nonzero(values < threshold)[0]
    if below.size == 0 or below[0] == 0:
        return None
    i = below[0]
    t0, t1 = times[i - 1], times[i]
    f0, f1 = values[i - 1], values[i]
    return float(t0 + (f0 - threshold) * (t1 - t0) / (f0 - f1))
