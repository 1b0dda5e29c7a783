"""Calibration tests: synthesis statistics, through-origin fit, sensitivity."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmemsim.calibration import (
    COLUMNS,
    CalibrationSeries,
    fit_pnl,
    read_points_csv,
    synthesize_series,
)
from qmemsim.cli import _write_table
from qmemsim.fidelity import CoherentSet, average_fidelity
from qmemsim.gaussian import apply_symplectic, partial_trace, vacuum_state
from qmemsim.protocol import ChannelSummary, interaction_map

JX = np.linspace(0.1, 2.0, 10)


def coupling_squared_from_noise(out_var, in_var):
    """Normalized excess noise ratio: (out - in) / in.

    With variances in shot-noise units this equals the coupling squared,
    i.e. ``2 var(X_out) - 1`` for a unit shot noise.
    """
    if in_var <= 0:
        raise ValueError("shot-noise variance must be positive")
    return (out_var - in_var) / in_var


def pnl_sensitivity(channel, cset, rescale=0.10):
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
        average_fidelity(cset, rescaled(-rescale)),
        average_fidelity(cset, channel),
        average_fidelity(cset, rescaled(+rescale)),
    )


def exact_points(slope, quad_coeff, jx_values, se=0.01):
    jx = np.asarray(jx_values, dtype=float)
    n = jx.size
    return CalibrationSeries(jx, slope * jx + quad_coeff * jx**2,
                             np.full(n, se), np.full(n, 1000))


def reference_series(slope, quadratic_coeff, jx_values, n_cycles, seed):
    """The per-point synthesis loop, one scalar draw at a time."""
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
        points.append((float(jx), ratio - 1.0, ratio * 2.0 / np.sqrt(nu)))
    return [np.array([p[i] for p in points], dtype=float) for i in range(3)]


def columns(series):
    return (series.jx_proxy, series.normalized_noise, series.se, series.n_cycles)


class TestSynthesize:
    def test_large_cycles_approach_exact_line(self):
        series = synthesize_series(0.5, 0.0, JX, 1_000_000, seed=0)
        assert np.all(np.abs(series.normalized_noise - 0.5 * series.jx_proxy)
                      <= 5 * series.se)
        assert np.all(series.se < 0.01)

    def test_zero_coupling_is_pure_shot_noise(self):
        series = synthesize_series(0.0, 0.0, JX, 50_000, seed=1)
        pulls = series.normalized_noise / series.se
        assert np.abs(pulls).max() < 5
        assert abs(np.mean(pulls)) < 2

    def test_fit_recovers_slope_within_two_se(self):
        points = synthesize_series(0.5, 0.0, JX, 10_000, seed=5)
        fit = fit_pnl(points)
        assert abs(fit.slope - 0.5) < 2 * fit.slope_se

    def test_negative_proxy_rejected(self):
        with pytest.raises(ValueError):
            synthesize_series(0.5, 0.0, [-1.0], 100, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(
        slope=st.floats(0.0, 10.0),
        quadratic_coeff=st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                                  st.floats(0.0, 1.0)),
        jx_listed=st.lists(st.floats(0.0, 1e3), max_size=250),
        jx_range=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3),
                           st.integers(0, 250)),
        n_cycles=st.integers(2, 10**12),
        seed=st.integers(0, 2**32 - 1),
    )
    # one of its 250 points has x*x != pow(x, 2) (numpy 2.4.6, glibc libm)
    @example(slope=0.5, quadratic_coeff=0.05, jx_listed=[],
             jx_range=(0.3, 777.7, 250), n_cycles=10_000, seed=0)
    def test_matches_per_point_loop(self, slope, quadratic_coeff, jx_listed,
                                    jx_range, n_cycles, seed):
        # one (n, 2) draw equals the 2n scalar draws, and float_power the
        # scalar jx**2, byte for byte; a linspace, as the CLI builds, gives
        # the many-digit jx whose x*x and pow(x, 2) can differ
        jx = np.concatenate([jx_listed, np.linspace(*jx_range)])
        series = synthesize_series(slope, quadratic_coeff, jx, n_cycles, seed)
        expected = reference_series(slope, quadratic_coeff, jx, n_cycles, seed)
        for got, want in zip(columns(series), expected):
            assert got.tobytes() == want.tobytes()
        assert np.all(series.n_cycles == n_cycles)

    def test_overflow_raises_floating_point_error(self):
        with pytest.raises(FloatingPointError, match="not finite"):
            synthesize_series(1e308, 0.0, JX, 100, seed=0)
        with pytest.raises(FloatingPointError, match="not finite"):
            synthesize_series(0.5, 1.0, [1e200], 100, seed=0)


class TestSeries:
    @pytest.mark.parametrize(
        "jx, noise, se, n_cycles, match",
        [
            ([0.1, 0.2], [0.1, np.nan], [0.1, 0.1], [10, 10], "finite"),
            ([0.1, np.inf], [0.1, 0.1], [0.1, 0.1], [10, 10], "finite"),
            ([0.1, 0.2], [0.1, 0.1], [0.1, -np.inf], [10, 10], "finite"),
            ([-1e-300, 0.2], [0.1, 0.1], [0.1, 0.1], [10, 10], "jx_proxy >= 0"),
            ([0.1, 0.2], [0.1, 0.1], [0.1, 0.0], [10, 10], "se > 0"),
            ([0.1, 0.2], [0.1, 0.1], [0.1, -0.1], [10, 10], "se > 0"),
            ([0.1, 0.2], [0.1, 0.1], [0.1, 0.1], [10, 1], "n_cycles >= 2"),
        ],
    )
    def test_constructor_checks(self, jx, noise, se, n_cycles, match):
        with pytest.raises(ValueError, match=match):
            CalibrationSeries(jx, noise, se, n_cycles)

    def test_len_and_dtypes(self):
        series = CalibrationSeries([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], [1, 1, 1], [2, 3, 4])
        assert len(series) == 3
        assert [c.dtype for c in columns(series)] == [np.float64] * 3 + [np.int64]


class TestFit:
    def test_exact_linear_data(self):
        fit = fit_pnl(exact_points(2.0, 0.0, JX), jx_max=JX.max())
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.chi2_per_dof == pytest.approx(0.0, abs=1e-20)
        assert fit.quadratic_coeff == pytest.approx(0.0, abs=1e-12)

    def test_lower_half_restriction_controls_quadratic_bias(self):
        # geometric density sweep; contamination < 10% of the signal at
        # jx_max/2.  The restricted fit's bias scales with the typical
        # fitted jx, so the low-density half keeps it under 5%.
        jx = np.geomspace(0.1, 2.0, 10)
        slope, quad = 1.0, 0.09
        assert quad * (jx.max() / 2) ** 2 < 0.1 * slope * (jx.max() / 2)
        fit = fit_pnl(exact_points(slope, quad, jx))  # median cutoff
        assert abs(fit.slope - slope) / slope < 0.05
        assert fit.quadratic_coeff == pytest.approx(quad, abs=0.02)
        # fitting the full range would be visibly worse
        fit_full = fit_pnl(exact_points(slope, quad, jx), jx_max=jx.max())
        assert abs(fit_full.slope - slope) > abs(fit.slope - slope)

    def test_two_seeded_series_agree(self):
        # the 2.5% stability figure needs well-averaged series: the
        # single-fit error at 1e4 cycles/point is already ~4% of slope
        a = fit_pnl(synthesize_series(0.5, 0.0, JX, 400_000, seed=101))
        b = fit_pnl(synthesize_series(0.5, 0.0, JX, 400_000, seed=202))
        assert abs(a.slope - b.slope) / 0.5 < 0.025
        assert abs(a.slope - b.slope) < 4 * np.hypot(a.slope_se, b.slope_se)

    def test_scale_equivariance_exact(self):
        points = exact_points(1.3, 0.02, JX, se=0.05)
        scale = 3.7
        scaled = CalibrationSeries(points.jx_proxy * scale, points.normalized_noise,
                                   points.se, points.n_cycles)
        a = fit_pnl(points)
        b = fit_pnl(scaled)
        assert b.slope * scale == pytest.approx(a.slope, rel=1e-14)

    def test_unbiased_over_repetitions(self):
        slopes, ses = [], []
        for rep in range(200):
            fit = fit_pnl(
                synthesize_series(0.5, 0.0, JX[:8], 2_000, seed=1000 + rep)
            )
            slopes.append(fit.slope)
            ses.append(fit.slope_se)
        combined_se = np.mean(ses) / np.sqrt(len(slopes))
        assert abs(np.mean(slopes) - 0.5) < 3 * combined_se

    def test_needs_three_points_in_range(self):
        with pytest.raises(ValueError, match=">= 3"):
            fit_pnl(exact_points(1.0, 0.0, JX), jx_max=JX[1])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_pnl(CalibrationSeries([], [], [], []))

    def test_all_selected_jx_zero(self):
        series = exact_points(1.0, 0.0, [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="all selected jx are zero"):
            fit_pnl(series, jx_max=0.0)

    @pytest.mark.parametrize("se", [1e160, 1e-160, 1e-200])
    def test_weight_overflow_raises_floating_point_error(self, se):
        # 1/se**2 is 0 or inf; this once read as "all selected jx are zero"
        with pytest.raises(FloatingPointError, match="over- or underflow"):
            fit_pnl(exact_points(1.0, 0.0, JX, se=se))

    def test_huge_jx_raises_floating_point_error(self):
        # jx**2 overflows the quadratic diagnostic, which would feed lstsq inf
        series = CalibrationSeries([0.1, 0.2, 0.3, 1e200], [0.1, 0.2, 0.3, 1.0],
                                   [0.01] * 4, [1000] * 4)
        with pytest.raises(FloatingPointError, match="over- or underflow"):
            fit_pnl(series, jx_max=1.0)


class TestCouplingFromNoise:
    def test_basic_ratios(self):
        assert coupling_squared_from_noise(1.0, 1.0) == 0.0
        assert coupling_squared_from_noise(2.0, 1.0) == pytest.approx(1.0)
        assert coupling_squared_from_noise(1.5, 1.0) == pytest.approx(0.5)

    def test_round_trip_through_interaction(self):
        # light variance out of the interaction gives back the coupling
        for k in (0.6, 1.0, 1.4):
            joint = vacuum_state(["light", "atoms"])
            out = apply_symplectic(joint, interaction_map(k))
            light = partial_trace(out, ["light"])
            k2 = coupling_squared_from_noise(light.quad_var("light", "x"), 0.5)
            assert k2 == pytest.approx(k**2, abs=1e-12)

    def test_nonpositive_shot_noise(self):
        with pytest.raises(ValueError):
            coupling_squared_from_noise(1.0, 0.0)


class TestSensitivity:
    def test_opposing_effects_keep_fidelity_stable(self):
        cset = CoherentSet(0, 8)
        channel = ChannelSummary(0.84, 0.80, 0.7735, 0.7735)
        low, nominal, high = pnl_sensitivity(channel, cset, rescale=0.10)
        # both excursions stay within a few percent (the paper-scale band)
        assert abs(low - nominal) < 0.04
        assert abs(high - nominal) < 0.04
        # and are smaller than the variance-only effect, which lacks the
        # compensating gain shift
        var_only = average_fidelity(
            cset, replace(channel, var_x=channel.var_x / 1.1,
                          var_p=channel.var_p / 1.1)
        )
        assert abs(high - nominal) < abs(var_only - nominal)


def write_points_csv(series, path):
    """A points file as ``qmemsim calibrate`` writes it."""
    _write_table(path, (COLUMNS, tuple(getattr(series, name) for name in COLUMNS)))


class TestCsvRoundTrip:
    def test_points_survive_io(self, tmp_path):
        points = synthesize_series(0.5, 0.01, JX, 5_000, seed=3)
        path = tmp_path / "points.csv"
        write_points_csv(points, path)
        back = read_points_csv(path)
        for a, b in zip(columns(back), columns(points)):
            assert a.tobytes() == b.tobytes()

    def test_extreme_values_survive_io(self, tmp_path):
        edge = [-0.0, 5e-324, 1e308]
        series = CalibrationSeries(
            [0.0, *edge[1:]], edge, [5e-324, 1.0, 1e308], [2, 10**12, 2**63 - 1]
        )
        path = tmp_path / "points.csv"
        write_points_csv(series, path)
        assert path.read_text().splitlines()[1] == "0,-0,4.9406564584124654e-324,2"
        back = read_points_csv(path)
        for a, b in zip(columns(back), columns(series)):
            assert a.tobytes() == b.tobytes()

    def test_empty_series_survives_io(self, tmp_path):
        path = tmp_path / "points.csv"
        write_points_csv(CalibrationSeries([], [], [], []), path)
        assert path.read_text() == "jx_proxy,normalized_noise,se,n_cycles\n"
        assert len(read_points_csv(path)) == 0

    @pytest.mark.parametrize("row", ["0.1,nan,0.1,100", "inf,0.1,0.1,100",
                                     "0.1,0.1,0,100", "0.1,0.1,0.1,1"])
    def test_invalid_rows_rejected(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text("jx_proxy,normalized_noise,se,n_cycles\n" + row + "\n")
        with pytest.raises(ValueError):
            read_points_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_points_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_points_csv(path)
