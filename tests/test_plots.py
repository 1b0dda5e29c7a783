"""The SVG bytes of ``plots.histogram_svg`` and ``plots.line_svg``, pinned.

Each chart is drawn from fixed inputs built with exact arithmetic and
compared by sha256 with the digest recorded when these charts were last
meant to change.  A rewrite of the drawing code that moves one coordinate
by 0.01 or one attribute by a byte fails here.
"""

import hashlib

import numpy as np
import pytest

from qmemsim import montecarlo, plots


def curve(n_points):
    """A decaying curve on [0, 6] ms, from +, * and / alone."""
    t = np.linspace(0.0, 6.0, n_points)
    return t, 0.9 / (1.0 + t * t / 9.0)


def line(n_points):
    t, fids = curve(n_points)
    return plots.line_svg(t, {"memory fidelity": fids}, x_label="storage time (ms)",
                          y_label="fidelity", hlines=[("classical limit", 0.6)])


def five_curves():
    t, fids = curve(61)
    return plots.line_svg(t, {"a": fids, "b": fids[::-1], "c": 0.5 * fids, "d": fids - 0.1,
                              "e": fids + 0.05})


def histogram(bins, ref_mean):
    """A histogram with every third bin empty, as ``make_histogram`` returns it."""
    edges = np.linspace(-3.25, 2.75, bins + 1)
    counts = (np.arange(bins) * 7919 % 23) * (np.arange(bins) % 3 != 0)
    return montecarlo.HistogramSeries(edges, counts, n_trials=int(counts.sum()),
                                      scaled_by=-1.0, ref_mean=ref_mean, ref_sd=1.0)


def histograms(bins):
    return plots.histogram_svg([histogram(bins, -0.25), histogram(bins, 0.5)],
                               titles=["stored X (rotated readout)", "stored P (direct readout)"])


def degenerate():
    """Equal outcomes: ``make_histogram`` widens the range to one unit."""
    outcomes = np.full(100, 1.5)
    series = montecarlo.TrialSeries(montecarlo.ARM_P, outcomes, outcomes)
    return plots.histogram_svg([montecarlo.make_histogram(series, bins=5, ref_mean=1.5)])


CHARTS = {
    "line-1": lambda: line(1),
    "line-2": lambda: line(2),
    "line-61": lambda: line(61),
    "line-601": lambda: line(601),
    "line-five-curves": five_curves,
    "line-flat": lambda: plots.line_svg([2.0], {"flat": [0.5]}),
    "histogram-5": lambda: histograms(5),
    "histogram-60": lambda: histograms(60),
    "histogram-degenerate": degenerate,
}
#: chart -> sha256 of its SVG text
DIGESTS = {
    "line-1": "5f81f09e8619c0a36b9b325f30d2ae428570c464ba166d57dfa0cf65dd32723f",
    "line-2": "692ab9db88a42c23b3760bfd310e70658d1b069e76f95a9f67b472461af0e2e3",
    "line-61": "c8fe1ede3bfc868997d9b49dc87eeacc5ead9db93310f2a2901d1d96a189c3c4",
    "line-601": "65f0475bbcf00bf6628e85e8eeaebda8a1a0b774db1e978f3fb0575cd25ed96c",
    "line-five-curves": "585e8f53bae7b70ab19ff28763ad1ed835df1d21671fef6a64fd3206bdd2cf83",
    "line-flat": "2c4b0c0159bad4eaf5c7071ff2c286f357f245ae7e18e8d9dbc48497edc19a36",
    "histogram-5": "25002710c5421e812dae9c5282c5e71520a217f768d26ceee1d9e1a04da8da95",
    "histogram-60": "2cb0645282c9c399444c54772b9658ca6e66204cc179b2a6458475292b308cd3",
    "histogram-degenerate": "b4bf962f2b95913554e9f59a1dcbd294bcd03a68bfb9e346265571eeb382ff85",
}


@pytest.mark.parametrize("chart", CHARTS)
def test_svg_bytes_are_pinned(chart):
    assert hashlib.sha256(CHARTS[chart]().encode()).hexdigest() == DIGESTS[chart]


def test_charts_need_data():
    with pytest.raises(ValueError, match="no histogram"):
        plots.histogram_svg([])
    with pytest.raises(ValueError, match="no curves"):
        plots.line_svg([0.0, 1.0], {})
