"""Fidelity tests: overlap formula, set averages, classical benchmarks.

Independent oracles used here: a Wigner-function grid integral for the
two-state overlap, a brute-force 2-d quadrature for the set averages
(``average_fidelity_grid``), and a golden-section search for the gain
optimum.  ``average_fidelity_scalar`` is the one-channel quadrature
written with scalars, which the batched one must match byte for byte.
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from qmemsim import fidelity
from qmemsim._solvers import i0e
from qmemsim.fidelity import (
    CoherentSet,
    average_fidelity,
    classical_fidelity,
    classical_variance_bound,
    optimize_classical_gain,
    overlap,
)
from qmemsim.protocol import ChannelSummary


def wigner_overlap_oracle(x1, p1, x2, p2, var_x, var_p, half_width=10.0, n=801):
    """Grid integral of 2 pi W1 W2 for a coherent state against a Gaussian."""
    xs = np.linspace(-half_width, half_width, n)
    dx = xs[1] - xs[0]
    xg, pg = np.meshgrid(xs, xs, indexing="ij")

    def wigner(mx, mp, vx, vp):
        norm = 1.0 / (2 * np.pi * np.sqrt(vx * vp))
        return norm * np.exp(
            -((xg - mx) ** 2) / (2 * vx) - (pg - mp) ** 2 / (2 * vp)
        )

    w1 = wigner(x1, p1, 0.5, 0.5)
    w2 = wigner(x2, p2, var_x, var_p)
    return 2 * np.pi * np.sum(w1 * w2) * dx * dx


def average_fidelity_grid(cset, channel, tol=1e-10):
    """Full 2-d product-quadrature fidelity (independent of the reduction).

    Radial Gauss-Legendre times a uniform (periodic-trapezoid) angular
    grid, both doubled from 32 nodes until two successive estimates
    agree within ``tol``.
    """
    u, v, pref = fidelity._channel_exponents(
        channel.gain_x, channel.gain_p, channel.var_x, channel.var_p
    )
    s1, s2 = 2.0 * cset.n_min, 2.0 * cset.n_max

    def estimate(n):
        xg, wg = leggauss(n)
        s = 0.5 * (s2 - s1) * xg + 0.5 * (s2 + s1)
        w = 0.5 * (s2 - s1) * wg
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
        grid = np.exp(-np.outer(s, u * cos2 + v * sin2))
        return pref * np.dot(w, grid.mean(axis=1)) / (s2 - s1)

    n = 32
    previous = estimate(n)
    while n < 1024:
        n *= 2
        current = estimate(n)
        if abs(current - previous) < tol:
            return current
        previous = current
    raise AssertionError(f"2-d quadrature did not converge below {tol} by {n} nodes")


def classical_overlap_printed(gain, alpha_sq):
    """Measure-and-prepare overlap as a function of amplitude squared."""
    g = gain
    return np.exp(-0.5 * (1 - g) ** 2 * alpha_sq / (1 + g**2)) / (1 + g**2)


def classical_fidelity_quadrature(gain, n_min, n_max, n_rad=400, n_ang=64):
    """Independent 2-d set average of the printed overlap function."""
    a1sq, a2sq = 2.0 * n_min, 2.0 * n_max
    xg, wg = leggauss(n_rad)
    s = 0.5 * (a2sq - a1sq) * xg + 0.5 * (a2sq + a1sq)  # alpha^2
    w = 0.5 * (a2sq - a1sq) * wg
    phi_vals = classical_overlap_printed(gain, s)  # phase independent
    # F = (1/pi) (a2^2-a1^2)^-1 int dphi int O alpha dalpha
    radial = np.dot(w, phi_vals) / 2.0  # alpha dalpha = ds / 2
    return 2 * np.pi * radial / (np.pi * (a2sq - a1sq))


def golden_section_max(fn, lo, hi, tol=1e-10):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if fn(c) > fn(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    return 0.5 * (a + b)


IDEAL_CSS = ChannelSummary(gain_x=1.0, gain_p=1.0, var_x=1.0, var_p=0.5)


class TestOverlap:
    def test_matched_coherent_states(self):
        assert overlap(0.3, -0.7, 0.3, -0.7, 0.5, 0.5) == pytest.approx(1.0)

    def test_ideal_css_value(self):
        # vars (1, 1/2) with matched means: 2/sqrt(6)
        assert overlap(0, 0, 0, 0, 1.0, 0.5) == pytest.approx(
            2.0 / np.sqrt(6.0), abs=1e-15
        )

    def test_unit_displacement(self):
        assert overlap(1.0, 0, 0, 0, 0.5, 0.5) == pytest.approx(
            np.exp(-0.5), abs=1e-15
        )

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 0.0, 0.0, 0.0, 1.0, 0.5),
            (1.0, 0.0, 0.0, 0.0, 0.5, 0.5),
            (0.5, -1.0, -0.2, 0.7, 0.9, 1.3),
        ],
    )
    def test_against_wigner_grid(self, args):
        assert overlap(*args) == pytest.approx(
            wigner_overlap_oracle(*args), abs=1e-6
        )

    def test_symmetric_under_mean_swap(self):
        a = overlap(0.4, -0.2, -1.0, 0.3, 0.8, 0.6)
        b = overlap(-1.0, 0.3, 0.4, -0.2, 0.8, 0.6)
        assert a == pytest.approx(b, rel=1e-14)

    def test_rotation_invariant_for_equal_variances(self):
        theta = 0.83
        c, s = np.cos(theta), np.sin(theta)
        m1, m2 = np.array([0.7, -0.4]), np.array([0.1, 1.1])
        r1 = (c * m1[0] + s * m1[1], -s * m1[0] + c * m1[1])
        r2 = (c * m2[0] + s * m2[1], -s * m2[0] + c * m2[1])
        a = overlap(*m1, *m2, 0.9, 0.9)
        b = overlap(*r1, *r2, 0.9, 0.9)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            overlap(0, 0, 0, 0, 0.0, 0.5)


def average_fidelity_scalar(cset, channel, tol=1e-10):
    """The radial quadrature of one channel, with scalar exponents.

    The same arithmetic as :func:`average_fidelity`, in the order a
    single channel evaluates it: Python-float exponents (``**`` is C
    pow), 1-d node arrays and one ``np.dot`` per estimate.
    """
    ax, ap = 1.0 + 2.0 * channel.var_p, 1.0 + 2.0 * channel.var_x
    u = (1.0 - channel.gain_p) ** 2 / ax
    v = (1.0 - channel.gain_x) ** 2 / ap
    pref = 2.0 / np.sqrt(ax * ap)
    s1, s2 = 2.0 * cset.n_min, 2.0 * cset.n_max

    def estimate(nodes):
        xg, wg = leggauss(nodes)
        s = 0.5 * (s2 - s1) * xg + 0.5 * (s2 + s1)
        w = 0.5 * (s2 - s1) * wg
        half_sum = 0.5 * (u + v) * s
        half_diff = 0.5 * (u - v) * s
        values = np.exp(-half_sum + np.abs(half_diff)) * i0e(half_diff)
        return pref * np.dot(w, values) / (s2 - s1)

    nodes = fidelity.START_NODES
    previous = estimate(nodes)
    while 2 * nodes <= fidelity.MAX_NODES:
        nodes *= 2
        current = estimate(nodes)
        if abs(current - previous) < tol:
            return current
        previous = current
    raise AssertionError(f"did not converge below {tol} by {nodes} nodes")


class TestAverageFidelity:
    def test_identity_channel(self):
        ch = ChannelSummary(1.0, 1.0, 0.5, 0.5)
        assert average_fidelity(CoherentSet(0, 8), ch) == pytest.approx(1.0)

    def test_ideal_css_protocol(self):
        f = average_fidelity(CoherentSet(0, 8), IDEAL_CSS)
        assert f == pytest.approx(2.0 / np.sqrt(6.0), abs=1e-12)

    def test_ideal_css_is_set_independent(self):
        values = [
            average_fidelity(CoherentSet(*ns), IDEAL_CSS)
            for ns in ((0, 1), (0, 8), (2, 10), (0, 50))
        ]
        assert_allclose(values, 2.0 / np.sqrt(6.0), atol=1e-12)

    @pytest.mark.parametrize(
        "channel",
        [
            ChannelSummary(0.9, 0.9, 0.8, 0.6),
            ChannelSummary(0.8, 0.8, 1.0, 1.0),
            ChannelSummary(0.84, 0.80, 0.77, 0.77),
            ChannelSummary(1.1, 0.7, 0.55, 2.0),
        ],
    )
    def test_angular_reduction_matches_grid(self, channel):
        cset = CoherentSet(0, 8)
        a = average_fidelity(cset, channel)
        b = average_fidelity_grid(cset, channel)
        assert a == pytest.approx(b, abs=1e-8)

    def test_matches_scalar_quadrature_bytes(self):
        # the one-channel case of the batched quadrature changes no byte
        rng = np.random.default_rng(13)
        for _ in range(300):
            cset = CoherentSet(rng.uniform(0.0, 5.0), rng.uniform(6.0, 300.0))
            gains, variances = rng.uniform(0.0, 1.5, 2), rng.uniform(0.3, 3.0, 2)
            channel = ChannelSummary(*gains, *variances)
            expected = average_fidelity_scalar(cset, channel)
            assert average_fidelity(cset, channel).tobytes() == expected.tobytes()

    def test_batch_values_match_one_channel_calls(self):
        rng = np.random.default_rng(14)
        gains = rng.uniform(0.0, 1.5, (2, 50))
        variances = rng.uniform(0.3, 3.0, (2, 50))
        cset = CoherentSet(0, 100)
        batch = fidelity.average_fidelities(cset, *gains, *variances)
        single = [
            average_fidelity(cset, ChannelSummary(*g, *var))
            for g, var in zip(gains.T, variances.T)
        ]
        assert batch.tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("gains", [(1e200, 1.0), (1.0, -1e160)])
    def test_overflowing_exponent_names_gains(self, gains):
        with pytest.raises(FloatingPointError, match="gain_x or gain_p"):
            average_fidelity(CoherentSet(0, 8), ChannelSummary(*gains, 1.0, 1.0))

    def test_nonconvergence_raises_with_node_counts(self, monkeypatch):
        monkeypatch.setattr(fidelity, "START_NODES", 2)
        monkeypatch.setattr(fidelity, "MAX_NODES", 8)  # stops it after 2 doublings
        with pytest.raises(RuntimeError, match="below 1e-30 by 8 nodes"):
            average_fidelity(
                CoherentSet(0, 1000), ChannelSummary(0.9, 0.9, 0.8, 0.6), tol=1e-30
            )

    def test_doubling_stops_at_node_cap(self, monkeypatch):
        monkeypatch.setattr(fidelity, "MAX_NODES", 64)
        cset, channel = CoherentSet(0, 1000), ChannelSummary(0.9, 0.9, 0.8, 0.6)
        with pytest.raises(RuntimeError, match="by 64 nodes"):
            average_fidelity(cset, channel, tol=1e-300)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tolerance_rejected(self, tol):
        # a NaN tolerance would double the nodes to the cap, never converging
        with pytest.raises(ValueError, match="tolerance"):
            average_fidelity(CoherentSet(0, 8), IDEAL_CSS, tol=tol)


class TestClassicalFidelity:
    def test_unit_gain_limit(self):
        for n_max in (1.0, 4.0, 8.0, 100.0):
            assert classical_fidelity(1.0, 0, n_max) == pytest.approx(
                0.5, abs=1e-12
            )
        # approaching the limit smoothly
        assert classical_fidelity(1 - 1e-9, 0, 8) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_printed_anchor_gain_0809(self):
        assert classical_fidelity(0.809, 0, 8) == pytest.approx(
            0.554, abs=5e-4
        )

    @pytest.mark.parametrize("gain", [0.5, 0.7, 0.809, 0.95])
    def test_closed_form_matches_quadrature(self, gain):
        # arbitration for the printed-formula exponent factor: the closed
        # form must integrate the printed overlap function exactly
        for n_min, n_max in ((0, 8), (0, 4), (1, 6)):
            assert classical_fidelity(gain, n_min, n_max) == pytest.approx(
                classical_fidelity_quadrature(gain, n_min, n_max), abs=1e-6
            )

    def test_single_amplitude_limit(self):
        g, n = 0.7, 3.0
        eps = 1e-7
        value = classical_fidelity(g, n - eps, n + eps)
        assert value == pytest.approx(
            classical_overlap_printed(g, 2.0 * n), rel=1e-6
        )

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            classical_fidelity(0.8, 4, 4)
        with pytest.raises(ValueError):
            classical_fidelity(0.8, -1, 4)


class TestGainOptimization:
    def test_set_zero_to_eight(self):
        g_opt, f_max = optimize_classical_gain(0, 8)
        assert g_opt == pytest.approx(0.809, abs=0.005)
        assert f_max == pytest.approx(0.554, abs=0.002)

    def test_set_zero_to_four(self):
        g_opt, f_max = optimize_classical_gain(0, 4)
        assert f_max == pytest.approx(0.596, abs=0.002)
        assert g_opt == pytest.approx(0.70, abs=0.02)

    @pytest.mark.parametrize("n_max", [2.0, 8.0, 20.0])
    def test_against_golden_section(self, n_max):
        g_opt, _ = optimize_classical_gain(0, n_max)
        oracle = golden_section_max(
            lambda g: classical_fidelity(g, 0, n_max), 1e-9, 1.0
        )
        assert g_opt == pytest.approx(oracle, abs=1e-6)

    def test_maximum_decreases_with_set_size(self):
        values = [
            optimize_classical_gain(0, n_max)[1]
            for n_max in (1, 2, 4, 8, 16, 64, 256)
        ]
        assert np.all(np.diff(values) < 0)
        assert values[-1] > 0.5  # approaches 1/2 from above
        assert optimize_classical_gain(0, 4000)[1] == pytest.approx(
            0.5, abs=0.01
        )

    def test_overflowing_set_raises_naming_it(self, recwarn):
        # the closed form overflows from n_max about 4263; the minimiser once
        # returned inf here, with numpy warnings on the way
        with pytest.raises(FloatingPointError, match=r"photon numbers \[0, 4300\]"):
            optimize_classical_gain(0, 4300)
        assert not recwarn.list


class TestVarianceBound:
    def test_unit_gain_three_noise_units(self):
        assert 2.0 * classical_variance_bound(1.0) == 3.0

    def test_vacuum_resend_at_zero_gain(self):
        assert classical_variance_bound(0.0) == 0.5

    def test_anchor_gain_values(self):
        pn = 2.0 * classical_variance_bound(0.809)
        assert pn == pytest.approx(2.309, abs=5e-4)
        assert 0.67 * pn == pytest.approx(1.547, abs=5e-4)
