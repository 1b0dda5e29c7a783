"""Projection-noise calibration: synthetic series and the through-origin fit.

The coupling-squared of the storage interaction shows up as the slope of
the normalized excess light noise versus the macroscopic spin size: the
quantum projection noise grows linearly with spin size while classical
contamination grows quadratically.  Restricting the fit to the lower
range therefore isolates the linear (quantum) contribution.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np


__all__ = [
    "CalibrationSeries",
    "CalibrationFit",
    "synthesize_series",
    "fit_pnl",
    "read_points_csv",
]


#: the columns of a series, in the order of a points file's header
COLUMNS = ["jx_proxy", "normalized_noise", "se", "n_cycles"]
#: one row of a points file; the column dtypes of a series
_ROW = np.dtype(list(zip(COLUMNS, (float, float, float, np.int64))))


@dataclass(frozen=True, eq=False)
class CalibrationSeries:
    """Spin-size settings as columns; row ``i`` is one measured point.

    ``jx_proxy``, ``normalized_noise`` and ``se`` are float arrays and
    ``n_cycles`` an integer array, all of one length.  Every value is
    finite, ``jx_proxy >= 0``, ``se > 0`` and ``n_cycles >= 2``.
    """

    jx_proxy: np.ndarray
    normalized_noise: np.ndarray
    se: np.ndarray
    n_cycles: np.ndarray

    def __post_init__(self):
        for name in COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=_ROW[name]))
        if not all(np.isfinite(getattr(self, name)).all() for name in COLUMNS):
            raise ValueError("calibration values must be finite")
        bounds = {"jx_proxy >= 0": self.jx_proxy >= 0, "se > 0": self.se > 0,
                  "n_cycles >= 2": self.n_cycles >= 2}  # variance needs two cycles
        for bound, holds in bounds.items():
            if not holds.all():
                raise ValueError(f"every point needs {bound}")

    def __len__(self):
        return self.se.size


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
    Raises ``FloatingPointError`` if a synthesised value is not finite and
    ``ValueError`` if ``1 + truth`` is not positive at some ``jx``.
    """
    jx = np.asarray(jx_values, dtype=float)
    nu = n_cycles - 1
    # row i holds point i's output then input draw, the order of 2n scalar draws
    draws = np.random.default_rng(seed).chisquare(nu, size=(jx.size, 2))
    # float_power is libm pow, as for a scalar; an array's jx**2 is jx*jx
    with np.errstate(over="ignore", invalid="ignore"):
        truth = slope * jx + quadratic_coeff * np.float_power(jx, 2.0)
        ratio = ((1.0 + truth) * draws[:, 0] / nu) / (draws[:, 1] / nu)
        noise, se = ratio - 1.0, ratio * 2.0 / np.sqrt(nu)
    if not (np.isfinite(noise).all() and np.isfinite(se).all()):
        raise FloatingPointError("synthesised noise or its error is not finite")
    if not (se > 0).all():
        raise ValueError(
            "the noise variance ratio 1 + slope jx + quadratic jx^2 is not positive"
        )
    return CalibrationSeries(jx, noise, se, np.full(jx.size, n_cycles))


def fit_pnl(series, jx_max=None):
    """Weighted least squares of noise = slope * jx with zero intercept.

    Only points with ``jx <= jx_max`` enter the linear fit (default: the
    median proxy value, i.e. the lower half of the points).  A secondary
    two-parameter fit over all points reports the quadratic coefficient
    as a contamination diagnostic.  Raises ``FloatingPointError`` if the
    weights ``1 / se**2`` or the weighted sums over- or underflow.
    """
    if not len(series):
        raise ValueError("no calibration points")
    jx_all, y_all = series.jx_proxy, series.normalized_noise
    jx_max = float(np.median(jx_all)) if jx_max is None else jx_max
    mask = jx_all <= jx_max
    n_used = int(mask.sum())
    if n_used < 3:
        raise ValueError(f"need >= 3 points with jx <= {jx_max}")
    # extreme se or jx overflow here; the checks below report it once
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w_all = 1.0 / series.se**2
        x, y, w = jx_all[mask], y_all[mask], w_all[mask]
        sxx = np.sum(w * x * x)
        slope = np.sum(w * x * y) / sxx
        resid = y - slope * x
        chi2_per_dof = np.sum(w * resid**2) / (n_used - 1)
        # quadratic contamination diagnostic over the full range
        design = np.stack([jx_all, jx_all**2], axis=1) * np.sqrt(w_all)[:, None]
        target = y_all * np.sqrt(w_all)
    if not np.any(x):
        raise ValueError("degenerate fit: all selected jx are zero")
    values = (w_all, [sxx, slope, chi2_per_dof], design, target)
    if not (np.all(w_all > 0) and all(np.isfinite(v).all() for v in values)):
        raise FloatingPointError("weights 1/se**2 or the fit's sums over- or underflow")
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)

    return CalibrationFit(
        slope=float(slope),
        slope_se=1.0 / np.sqrt(sxx),
        quadratic_coeff=float(coeffs[1]),
        chi2_per_dof=float(chi2_per_dof),
        n_used=n_used,
        jx_cut=float(jx_max),
    )


def read_points_csv(path):
    """A series from a points file: the ``COLUMNS`` header, then one row per
    point, parsed straight into columns.  Raises ``ValueError`` on a bad
    header, a row without exactly four fields or a field that does not parse
    (``n_cycles`` as an int64)."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        with warnings.catch_warnings():  # a header-only file is an empty series
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
    return CalibrationSeries(*(rows[name] for name in COLUMNS))
