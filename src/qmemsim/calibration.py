"""Projection-noise calibration: synthetic series and the through-origin fit.

The coupling-squared of the storage interaction shows up as the slope of
the normalized excess light noise versus the macroscopic spin size: the
quantum projection noise grows linearly with spin size while classical
contamination grows quadratically.  Restricting the fit to the lower
range therefore isolates the linear (quantum) contribution.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .fidelity import average_fidelity

__all__ = [
    "CalibrationPoint",
    "CalibrationFit",
    "synthesize_series",
    "fit_pnl",
    "coupling_squared_from_noise",
    "pnl_sensitivity",
    "write_points_csv",
    "read_points_csv",
]


@dataclass(frozen=True)
class CalibrationPoint:
    """One spin-size setting: measured normalized noise and its error."""

    jx_proxy: float
    normalized_noise: float
    se: float
    n_cycles: int

    def __post_init__(self):
        if self.n_cycles < 2:
            raise ValueError("variance estimation needs n_cycles >= 2")


@dataclass(frozen=True)
class CalibrationFit:
    """Through-origin fit of normalized noise vs spin size."""

    slope: float
    slope_se: float
    quadratic_coeff: float
    chi2_per_dof: float
    n_used: int
    jx_cut: float


def synthesize_series(slope, quadratic_coeff, jx_values, n_cycles, seed):
    """Simulate a calibration run over the given spin sizes.

    The true normalized noise at proxy value ``jx`` is
    ``slope * jx + quadratic_coeff * jx**2``.  Each point estimates the
    output and input (shot) noise variances from ``n_cycles`` pseudo
    trials, so both sample variances carry exact chi-squared statistics.
    """
    rng = np.random.default_rng(seed)
    nu = n_cycles - 1
    points = []
    for jx in jx_values:
        if jx < 0:
            raise ValueError("spin-size proxy must be nonnegative")
        truth = slope * jx + quadratic_coeff * jx**2
        s2_out = (1.0 + truth) * rng.chisquare(nu) / nu
        s2_in = rng.chisquare(nu) / nu
        ratio = s2_out / s2_in
        points.append(
            CalibrationPoint(
                jx_proxy=float(jx),
                normalized_noise=ratio - 1.0,
                se=ratio * 2.0 / np.sqrt(nu),
                n_cycles=n_cycles,
            )
        )
    return points


def fit_pnl(points, jx_max=None):
    """Weighted least squares of noise = slope * jx with zero intercept.

    Only points with ``jx <= jx_max`` enter the linear fit (default: the
    median proxy value, i.e. the lower half of the points).  A secondary
    two-parameter fit over all points reports the quadratic coefficient
    as a contamination diagnostic.
    """
    if not points:
        raise ValueError("no calibration points")
    jx_all = np.array([p.jx_proxy for p in points])
    y_all = np.array([p.normalized_noise for p in points])
    se_all = np.array([p.se for p in points])
    if jx_max is None:
        jx_max = float(np.median(jx_all))
    mask = jx_all <= jx_max
    if mask.sum() < 3:
        raise ValueError(f"need >= 3 points with jx <= {jx_max}")
    if np.any(se_all <= 0):
        raise ValueError("all points need positive standard errors")

    x, y, w = jx_all[mask], y_all[mask], 1.0 / se_all[mask] ** 2
    sxx = float(np.sum(w * x * x))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all selected jx are zero")
    slope = float(np.sum(w * x * y)) / sxx
    slope_se = 1.0 / np.sqrt(sxx)
    resid = y - slope * x
    chi2_per_dof = float(np.sum(w * resid**2)) / max(mask.sum() - 1, 1)

    # quadratic contamination diagnostic over the full range
    w_all = 1.0 / se_all**2
    design = np.stack([jx_all, jx_all**2], axis=1) * np.sqrt(w_all)[:, None]
    target = y_all * np.sqrt(w_all)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)

    return CalibrationFit(
        slope=slope,
        slope_se=slope_se,
        quadratic_coeff=float(coeffs[1]),
        chi2_per_dof=chi2_per_dof,
        n_used=int(mask.sum()),
        jx_cut=float(jx_max),
    )


def coupling_squared_from_noise(out_var, in_var):
    """Normalized excess noise ratio: (out - in) / in.

    With variances in shot-noise units this equals the coupling squared,
    i.e. ``2 var(X_out) - 1`` for a unit shot noise.
    """
    if in_var <= 0:
        raise ValueError("shot-noise variance must be positive")
    return (out_var - in_var) / in_var


def pnl_sensitivity(channel, cset, rescale=0.10, quad=None):
    """Fidelity excursion under a misestimated projection noise level.

    If the true noise level is ``(1 + eps)`` times the assumed one, the
    inferred coupling scales by ``1/sqrt(1 + eps)``, so the reported
    gains shrink by that factor while the reported variances shrink by
    ``1/(1 + eps)``; the two effects push the fidelity in opposite
    directions.  Returns the fidelities at ``eps = -rescale, 0, +rescale``.
    """

    def rescaled(eps):
        factor = 1.0 + eps
        return replace(
            channel,
            gain_x=channel.gain_x / np.sqrt(factor),
            gain_p=channel.gain_p / np.sqrt(factor),
            var_x=channel.var_x / factor,
            var_p=channel.var_p / factor,
        )

    return (
        average_fidelity(cset, rescaled(-rescale), quad),
        average_fidelity(cset, channel, quad),
        average_fidelity(cset, rescaled(+rescale), quad),
    )


_CSV_HEADER = ["jx_proxy", "normalized_noise", "se", "n_cycles"]


def write_points_csv(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for p in points:
            writer.writerow(
                [
                    f"{p.jx_proxy:.17g}",
                    f"{p.normalized_noise:.17g}",
                    f"{p.se:.17g}",
                    p.n_cycles,
                ]
            )


def read_points_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        return [
            CalibrationPoint(float(a), float(b), float(c), int(d))
            for a, b, c, d in reader
        ]
