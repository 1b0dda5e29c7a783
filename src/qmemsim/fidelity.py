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

__all__ = [
    "MAX_NODES",
    "CoherentSet",
    "QuadratureSpec",
    "overlap",
    "average_fidelity",
    "average_fidelity_grid",
    "classical_fidelity",
    "optimize_classical_gain",
    "classical_variance_bound",
]

#: nodes per axis at which doubling stops; ``leggauss(n)`` solves an n x n
#: eigenproblem, so this bounds the time and memory of a quadrature that
#: does not converge (4096 nodes: about 5 s and 300 MiB)
MAX_NODES = 4096


@dataclass(frozen=True)
class CoherentSet:
    """Input set: mean photon number in [n_min, n_max], phase uniform."""

    n_min: float
    n_max: float

    def __post_init__(self):
        if not (np.isfinite(self.n_max) and self.n_max > self.n_min >= 0):
            raise ValueError("need finite n_max > n_min >= 0")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and tolerance for the fidelity integrals.

    Node counts are starting values; they are doubled until two successive
    estimates agree within ``tol`` (up to ``max_doublings`` times, and never
    beyond :data:`MAX_NODES` per axis).
    """

    radial_nodes: int = 32
    angular_nodes: int = 32
    tol: float = 1e-10
    max_doublings: int = 14

    def __post_init__(self):
        if self.radial_nodes < 2 or self.angular_nodes < 2:
            raise ValueError("need at least two nodes per axis")
        if max(self.radial_nodes, self.angular_nodes) > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} nodes per axis")
        if not self.tol > 0:  # also rejects NaN, which never converges
            raise ValueError("tolerance must be positive")


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


def _channel_exponents(channel):
    """Quadratic-exponent coefficients of the overlap for a channel.

    The memory's P quadrature stores the input X (and X stores P), so the
    x-mismatch is weighted by ``var_p`` and carries ``gain_p``, and vice
    versa.  Returns (u, v, prefactor) with the phase-space overlap equal
    to ``prefactor * exp(-(u x^2 + v p^2))`` for input mean (x, p).
    """
    ax = 1.0 + 2.0 * channel.var_p
    ap = 1.0 + 2.0 * channel.var_x
    u = (1.0 - channel.gain_p) ** 2 / ax
    v = (1.0 - channel.gain_x) ** 2 / ap
    return u, v, 2.0 / np.sqrt(ax * ap)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(nodes):
    """Read-only Gauss-Legendre nodes and weights, shared between calls."""
    xg, wg = leggauss(nodes)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _radial_estimate(cset, u, v, prefactor, nodes):
    """Gauss-Legendre estimate of the phase-averaged overlap integral.

    The angular integral is carried out exactly:
    the phase average of ``exp(-a cos^2 - b sin^2)`` is
    ``exp(-(a + b)/2) I0((a - b)/2)``, evaluated here in scaled form for
    numerical stability at large exponents.
    """
    from scipy.special import i0e

    s1, s2 = 2.0 * cset.n_min, 2.0 * cset.n_max  # alpha^2 range
    xg, wg = _gauss_legendre(nodes)
    s = 0.5 * (s2 - s1) * xg + 0.5 * (s2 + s1)
    w = 0.5 * (s2 - s1) * wg
    half_sum = 0.5 * (u + v) * s
    half_diff = 0.5 * (u - v) * s
    values = np.exp(-half_sum + np.abs(half_diff)) * i0e(half_diff)
    return prefactor * np.dot(w, values) / (s2 - s1)


def average_fidelity(cset, channel, quad=None):
    """Set-averaged fidelity of a Gaussian channel summary.

    Integrates the overlap over the coherent set with the angular
    integral reduced exactly and the radial integral refined by node
    doubling until it changes by less than ``quad.tol``.
    """
    quad = quad or QuadratureSpec()
    u, v, pref = _channel_exponents(channel)
    nodes = quad.radial_nodes
    previous = _radial_estimate(cset, u, v, pref, nodes)
    for _ in range(quad.max_doublings):
        if 2 * nodes > MAX_NODES:
            break
        nodes *= 2
        current = _radial_estimate(cset, u, v, pref, nodes)
        if abs(current - previous) < quad.tol:
            return current
        previous = current
    raise RuntimeError(
        f"radial quadrature did not converge below {quad.tol} "
        f"by {nodes} nodes"
    )


def average_fidelity_grid(cset, channel, quad=None):
    """Full 2-d product-quadrature fidelity (independent of the reduction).

    Radial Gauss-Legendre times a uniform (periodic-trapezoid) angular
    grid, both refined by doubling.  Slower than
    :func:`average_fidelity`; used to cross-check it.
    """
    quad = quad or QuadratureSpec()
    u, v, pref = _channel_exponents(channel)
    s1, s2 = 2.0 * cset.n_min, 2.0 * cset.n_max

    def estimate(n_rad, n_ang):
        xg, wg = _gauss_legendre(n_rad)
        s = 0.5 * (s2 - s1) * xg + 0.5 * (s2 + s1)
        w = 0.5 * (s2 - s1) * wg
        phi = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
        cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
        grid = np.exp(-np.outer(s, u * cos2 + v * sin2))
        return pref * np.dot(w, grid.mean(axis=1)) / (s2 - s1)

    n_rad, n_ang = quad.radial_nodes, quad.angular_nodes
    previous = estimate(n_rad, n_ang)
    for _ in range(quad.max_doublings):
        if 2 * max(n_rad, n_ang) > MAX_NODES:
            break
        n_rad *= 2
        n_ang *= 2
        current = estimate(n_rad, n_ang)
        if abs(current - previous) < quad.tol:
            return current
        previous = current
    raise RuntimeError(
        f"2-d quadrature did not converge below {quad.tol} by "
        f"{n_rad} x {n_ang} nodes"
    )


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
    if half_width > 1e-6:
        ratio = np.sinh(half_width) / half_width
    else:
        ratio = 1.0 + half_width**2 / 6.0
    return np.exp(-0.5 * c * (n_min + n_max)) * ratio / (1.0 + g**2)


def optimize_classical_gain(n_min, n_max, xatol=1e-9):
    """Maximize the classical fidelity over gains in (0, 1]."""
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda g: -classical_fidelity(g, n_min, n_max),
        bounds=(1e-9, 1.0),
        method="bounded",
        options={"xatol": xatol},
    )
    return float(result.x), float(-result.fun)


def classical_variance_bound(gain):
    """Output variance of ideal measure-and-prepare recording, per quadrature.

    In canonical units this is ``1/2 + gain^2``: half a unit for the
    re-prepared state plus the gain-scaled unit of measurement noise
    (vacuum plus the conjugate-quadrature penalty).  In projection-noise
    units (2 sigma^2) it reads ``1 + 2 gain^2``, i.e. 3 at unit gain.
    """
    return 0.5 + float(gain) ** 2
