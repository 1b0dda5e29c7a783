"""Calibration tests: synthesis statistics, through-origin fit, sensitivity."""

import numpy as np
import pytest

from qmemsim.calibration import (
    CalibrationPoint,
    coupling_squared_from_noise,
    fit_pnl,
    pnl_sensitivity,
    read_points_csv,
    synthesize_series,
    write_points_csv,
)
from qmemsim.fidelity import CoherentSet, average_fidelity
from qmemsim.gaussian import apply_symplectic, partial_trace, vacuum_state
from qmemsim.protocol import ChannelSummary, interaction_map

JX = np.linspace(0.1, 2.0, 10)


def exact_points(slope, quad_coeff, jx_values, se=0.01):
    return [
        CalibrationPoint(x, slope * x + quad_coeff * x**2, se, 1000)
        for x in jx_values
    ]


class TestSynthesize:
    def test_large_cycles_approach_exact_line(self):
        points = synthesize_series(0.5, 0.0, JX, 1_000_000, seed=0)
        for p in points:
            assert p.normalized_noise == pytest.approx(
                0.5 * p.jx_proxy, abs=5 * p.se
            )
            assert p.se < 0.01

    def test_zero_coupling_is_pure_shot_noise(self):
        points = synthesize_series(0.0, 0.0, JX, 50_000, seed=1)
        pulls = [p.normalized_noise / p.se for p in points]
        assert np.abs(pulls).max() < 5
        assert abs(np.mean(pulls)) < 2

    def test_fit_recovers_slope_within_two_se(self):
        points = synthesize_series(0.5, 0.0, JX, 10_000, seed=5)
        fit = fit_pnl(points)
        assert abs(fit.slope - 0.5) < 2 * fit.slope_se

    def test_negative_proxy_rejected(self):
        with pytest.raises(ValueError):
            synthesize_series(0.5, 0.0, [-1.0], 100, seed=0)


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
        scaled = [
            CalibrationPoint(p.jx_proxy * scale, p.normalized_noise, p.se,
                             p.n_cycles)
            for p in points
        ]
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
            fit_pnl([])


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
        from dataclasses import replace

        var_only = average_fidelity(
            cset, replace(channel, var_x=channel.var_x / 1.1,
                          var_p=channel.var_p / 1.1)
        )
        assert abs(high - nominal) < abs(var_only - nominal)


class TestCsvRoundTrip:
    def test_points_survive_io(self, tmp_path):
        points = synthesize_series(0.5, 0.01, JX, 5_000, seed=3)
        path = tmp_path / "points.csv"
        write_points_csv(points, path)
        back = read_points_csv(path)
        assert back == points

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_points_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_points_csv(path)
