"""Coherent-state overlaps, set-averaged fidelities, classical benchmarks.

The figure of merit is the overlap between an input coherent state and
the Gaussian state retrieved from the memory, averaged over a set of
coherent states whose mean photon number ``n = (x^2 + p^2)/2 = alpha^2/2``
is uniform in amplitude-squared over ``[n_min, n_max]`` with arbitrary
phase.  The classical (measure-and-prepare) benchmark for the same set is
available in closed form and caps at 1/2 for unrestricted inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._solvers import i0e, minimize_bounded

__all__ = [
    "START_NODES",
    "MAX_NODES",
    "BLOCK_POINTS",
    "CoherentSet",
    "overlap",
    "average_fidelity",
    "average_fidelities",
    "classical_fidelity",
    "optimize_classical_gain",
    "classical_variance_bound",
]

#: radial nodes of the first estimate of :func:`average_fidelities`
START_NODES = 32
#: radial nodes at which doubling stops; ``leggauss(n)`` solves an n x n
#: eigenproblem, so this bounds the time and memory of a quadrature that
#: does not converge (4096 nodes: about 5 s and 300 MiB)
MAX_NODES = 4096
#: channels refined together by :func:`average_fidelities`; bounds its
#: (channels, nodes) arrays to BLOCK_POINTS * MAX_NODES floats (8 MiB)
BLOCK_POINTS = 256


@dataclass(frozen=True)
class CoherentSet:
    """Input set: mean photon number in [n_min, n_max], phase uniform."""

    n_min: float
    n_max: float

    def __post_init__(self):
        if not (np.isfinite(self.n_max) and self.n_max > self.n_min >= 0):
            raise ValueError("need finite n_max > n_min >= 0")


def overlap(x1, p1, x2, p2, var_x, var_p):
    """Overlap of a coherent state at (x1, p1) with a Gaussian state.

    The Gaussian state has mean (x2, p2) and quadrature variances
    (var_x, var_p); the value is 1 exactly when the means coincide and
    both variances equal the vacuum value 1/2.
    """
    if np.any(np.asarray(var_x) <= 0) or np.any(np.asarray(var_p) <= 0):
        raise ValueError("variances must be positive")
    ax = 1.0 + 2.0 * np.asarray(var_x, dtype=float)
    ap = 1.0 + 2.0 * np.asarray(var_p, dtype=float)
    dx = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    dp = np.asarray(p1, dtype=float) - np.asarray(p2, dtype=float)
    return 2.0 * np.exp(-(dx**2) / ax - dp**2 / ap) / np.sqrt(ax * ap)


def _channel_exponents(gain_x, gain_p, var_x, var_p):
    """Quadratic-exponent coefficients of the overlap, per channel.

    The memory's P quadrature stores the input X (and X stores P), so the
    x-mismatch is weighted by ``var_p`` and carries ``gain_p``, and vice
    versa.  Returns (u, v, prefactor) with the phase-space overlap equal
    to ``prefactor * exp(-(u x^2 + v p^2))`` for input mean (x, p).
    """
    # a huge variance overflows ax, ap or their product to inf and the
    # prefactor to 0; callers check the fidelity, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        ax = 1.0 + 2.0 * var_p
        ap = 1.0 + 2.0 * var_x
        # float_power calls C pow on every element, as ``**`` does on a
        # Python or numpy scalar; ``**`` on an array squares instead, which
        # rounds differently on about 0.1% of inputs
        u = np.float_power(1.0 - gain_p, 2) / ax
        v = np.float_power(1.0 - gain_x, 2) / ap
        return u, v, 2.0 / np.sqrt(ax * ap)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(nodes):
    """Read-only Gauss-Legendre nodes and weights, shared between calls."""
    xg, wg = leggauss(nodes)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _radial_estimates(cset, u, v, prefactor, nodes):
    """Gauss-Legendre estimates of the phase-averaged overlap integral.

    One estimate per channel, from a (channels, nodes) array.  The
    angular integral is carried out exactly: the phase average of
    ``exp(-a cos^2 - b sin^2)`` is ``exp(-(a + b)/2) I0((a - b)/2)``,
    evaluated here in scaled form for numerical stability at large
    exponents.  Each row is summed by its own ``np.dot``, so a channel's
    estimate does not depend on the others; a matrix product would sum
    in another order.
    """
    s1, s2 = 2.0 * cset.n_min, 2.0 * cset.n_max  # alpha^2 range
    xg, wg = _gauss_legendre(nodes)
    s = 0.5 * (s2 - s1) * xg + 0.5 * (s2 + s1)
    w = 0.5 * (s2 - s1) * wg
    half_sum = (0.5 * (u + v))[:, None] * s
    half_diff = (0.5 * (u - v))[:, None] * s
    values = np.exp(-half_sum + np.abs(half_diff)) * i0e(half_diff)
    sums = np.fromiter(map(w.dot, values), float, len(values))
    return prefactor * sums / (s2 - s1)


def _refine(cset, u, v, prefactor, tol):
    """Double the radial nodes until each channel's estimate converges.

    A channel leaves the batch at the first doubling that changes its
    estimate by less than ``tol``, so each result is the one a batch of
    that channel alone would give.
    """
    out = np.empty(u.size)
    pending = np.arange(u.size)
    nodes = START_NODES
    previous = _radial_estimates(cset, u, v, prefactor, nodes)
    while 2 * nodes <= MAX_NODES:
        nodes *= 2
        current = _radial_estimates(cset, u, v, prefactor, nodes)
        done = np.abs(current - previous) < tol
        out[pending[done]] = current[done]
        keep = ~done
        if not keep.any():
            return out
        pending, u, v, prefactor = pending[keep], u[keep], v[keep], prefactor[keep]
        previous = current[keep]
    raise RuntimeError(
        f"radial quadrature did not converge below {tol} by {nodes} nodes"
    )


def average_fidelities(cset, gain_x, gain_p, var_x, var_p, tol=1e-10):
    """Set-averaged fidelity of each channel of a batch, as an array.

    The channels' gains and variances are equal-length 1-D arrays (or
    scalars, for one channel).  The overlap is integrated over the
    coherent set with the angular integral reduced exactly and the
    radial integral refined by doubling its nodes from
    :data:`START_NODES` until two successive estimates agree within
    ``tol``, for each channel on its own; raises ``RuntimeError`` when a
    channel would need more than :data:`MAX_NODES`, and
    ``FloatingPointError`` when a gain is so far from 1 that the overlap
    exponent overflows.  Each doubling
    evaluates every unconverged channel of a block of
    :data:`BLOCK_POINTS` in one array, and a channel's value does not
    depend on the others in the batch.
    """
    if not tol > 0:  # also rejects NaN, which never converges
        raise ValueError("tolerance must be positive")
    u, v, prefactor = map(
        np.atleast_1d, _channel_exponents(gain_x, gain_p, var_x, var_p)
    )
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise FloatingPointError(
            "overlap exponent (1 - gain)^2 / (1 + 2 var) overflows: "
            "gain_x or gain_p is too far from 1"
        )
    out = np.empty(u.size)
    for start in range(0, u.size, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        out[block] = _refine(cset, u[block], v[block], prefactor[block], tol)
    return out


def average_fidelity(cset, channel, tol=1e-10):
    """Set-averaged fidelity of a Gaussian channel summary.

    The one-channel case of :func:`average_fidelities`: the radial
    nodes double from :data:`START_NODES` until two successive estimates
    agree within ``tol``, and ``RuntimeError`` is raised before the count
    would pass :data:`MAX_NODES`.
    """
    return average_fidelities(
        cset, channel.gain_x, channel.gain_p, channel.var_x, channel.var_p, tol
    )[0]


def classical_fidelity(gain, n_min, n_max):
    """Best-case measure-and-prepare fidelity at a given gain.

    Closed form of the set average of the measure-and-prepare overlap
    ``(1 + g^2)^-1 exp(-(1 - g)^2 alpha^2 / (2 (1 + g^2)))``; written in
    terms of the mean photon number the exponential rate is
    ``c = (1 - g)^2 / (1 + g^2)`` per photon.  Evaluated in a form that
    is exact and stable through g = 1, where the value is the
    n-independent limit ``1 / (1 + g^2) = 1/2``.
    """
    if not (n_max > n_min >= 0):
        raise ValueError("need n_max > n_min >= 0")
    g = float(gain)
    c = (1.0 - g) ** 2 / (1.0 + g**2)
    half_width = 0.5 * c * (n_max - n_min)
    # a huge set overflows sinh to inf and the product to NaN; callers
    # check the result, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        if half_width > 1e-6:
            ratio = np.sinh(half_width) / half_width
        else:
            ratio = 1.0 + half_width**2 / 6.0
        return np.exp(-0.5 * c * (n_min + n_max)) * ratio / (1.0 + g**2)


def optimize_classical_gain(n_min, n_max):
    """Maximize the classical fidelity over gains in (0, 1].

    Raises ``FloatingPointError`` naming the set when the optimum is not
    finite: the closed form overflows from ``n_max`` about 4263 at
    ``n_min`` 0, and the minimiser then steps through NaN quietly.
    """
    with np.errstate(all="ignore"):
        gain, value = minimize_bounded(
            lambda g: -classical_fidelity(g, n_min, n_max), 1e-9, 1.0, 1e-9
        )
    if not np.isfinite(value):
        raise FloatingPointError(
            f"the classical optimum over photon numbers [{n_min}, {n_max}] is not finite"
        )
    return float(gain), float(-value)


def classical_variance_bound(gain):
    """Output variance of ideal measure-and-prepare recording, per quadrature.

    In canonical units this is ``1/2 + gain^2``: half a unit for the
    re-prepared state plus the gain-scaled unit of measurement noise
    (vacuum plus the conjugate-quadrature penalty).  In projection-noise
    units (2 sigma^2) it reads ``1 + 2 gain^2``, i.e. 3 at unit gain.
    """
    return 0.5 + float(gain) ** 2
