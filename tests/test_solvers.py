"""The numpy ports in ``qmemsim._solvers`` equal their scipy originals bit for bit.

scipy is a test-only dependency that serves as the oracle; every
comparison is of ``tobytes()``, so a one-ulp difference fails.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from qmemsim import _solvers
from qmemsim.decoherence import DecayParams, decay_channel
from qmemsim.fidelity import (
    CoherentSet,
    _channel_exponents,
    _gauss_legendre,
    average_fidelity,
    classical_fidelity,
    optimize_classical_gain,
)
from qmemsim.protocol import StorageParams, store_channel


def same_bytes(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestNdtri:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                              exclude_max=True), min_size=1, max_size=64))
    def test_matches_scipy(self, values):
        y = np.array(values)
        assert same_bytes(_solvers.ndtri(y), special.ndtri(y))

    def test_sampler_uniforms(self):
        # the inputs rng.trial_normals feeds it: [0, 1) lifted by half an ulp
        y = np.random.default_rng(12).random(1_000_000) + 2.0**-54
        assert same_bytes(_solvers.ndtri(y), special.ndtri(y))

    def test_deep_tails(self):
        # past x = 8 (y < exp(-32)) down to 1e-300, and the upper tail
        rng = np.random.default_rng(13)
        y = np.exp(-rng.uniform(0.0, 690.0, 200_000))
        assert same_bytes(_solvers.ndtri(y), special.ndtri(y))
        assert same_bytes(_solvers.ndtri(1.0 - y), special.ndtri(1.0 - y))

    def test_branch_edge_and_special_values(self):
        # both neighbours of each branch point: the centre's two ends and
        # exp(-32), where x crosses 8
        points = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
                  1.0 - math.exp(-32.0)]
        neighbours = [np.nextafter(p, to) for p in points for to in (0.0, 1.0)]
        y = np.array([5e-324, 1e-300, 2.0**-54, 0.5, 1.0 - 2.0**-53, 0.0, -0.0,
                      1.0, -5e-324, np.nextafter(1.0, 2.0), -np.inf, np.inf,
                      np.nan, -np.nan, *points, *neighbours])
        assert same_bytes(_solvers.ndtri(y), special.ndtri(y))
        for value in y:  # a scalar gives a scalar, as from the ufunc
            assert same_bytes(_solvers.ndtri(value), special.ndtri(value))
            assert np.ndim(_solvers.ndtri(value)) == 0

    def test_shape_kept(self):
        y = np.random.default_rng(14).random((1000, 3)) + 2.0**-54
        assert _solvers.ndtri(y).shape == (1000, 3)
        assert same_bytes(_solvers.ndtri(y), special.ndtri(y))
        assert _solvers.ndtri(np.empty((0, 2))).shape == (0, 2)


class TestI0e:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=64))
    def test_matches_scipy(self, values):
        x = np.array(values)
        assert same_bytes(_solvers.i0e(x), special.i0e(x))

    def test_branch_edge_and_special_values(self):
        edges = [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]
        x = np.array([0.0, -0.0, 5e-324, 1e-300, 1e6, 1e300, np.inf, -np.inf,
                      np.nan, *edges, *np.negative(edges)])
        assert same_bytes(_solvers.i0e(x), special.i0e(x))
        for value in x:  # a scalar gives a scalar, as from the ufunc
            assert same_bytes(_solvers.i0e(value), special.i0e(value))
            assert np.ndim(_solvers.i0e(value)) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 1.5), st.floats(0.0, 1.5),
        st.floats(0.5, 3.0), st.floats(0.5, 3.0),
        st.floats(1.0, 1000.0), st.sampled_from([32, 64, 128, 256]),
    )
    def test_quadrature_arguments(self, gain_x, gain_p, var_x, var_p, n_max, nodes):
        # the half_diff array _radial_estimates builds, on both series ranges
        u, v, _ = _channel_exponents(gain_x, gain_p, var_x, var_p)
        xg, _ = _gauss_legendre(nodes)
        s = 0.5 * (2.0 * n_max) * xg + 0.5 * (2.0 * n_max)
        half_diff = 0.5 * (u - v) * s
        assert same_bytes(_solvers.i0e(half_diff), special.i0e(half_diff))


class TestMinimizeBounded:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.0, 50.0), st.floats(0.0, 1.0), st.floats(-12.0, -6.0),
    )
    def test_classical_gain_matches_scipy(self, n_min, fraction, log_xatol):
        n_max = n_min + fraction * (50.0 - n_min)
        if not n_max > n_min:
            n_max = np.nextafter(n_min, np.inf)
        xatol = 10.0**log_xatol

        def f(g):
            return -classical_fidelity(g, n_min, n_max)

        x, fun = _solvers.minimize_bounded(f, 1e-9, 1.0, xatol)
        result = optimize.minimize_scalar(
            f, bounds=(1e-9, 1.0), method="bounded", options={"xatol": xatol}
        )
        assert same_bytes(x, result.x)
        assert same_bytes(fun, result.fun)

    def test_nan_objective_matches_scipy(self):
        # an overflowing set makes the objective NaN at most gains
        def f(g):
            return -classical_fidelity(g, 0.0, 1e12)

        x, fun = _solvers.minimize_bounded(f, 1e-9, 1.0, 1e-9)
        result = optimize.minimize_scalar(
            f, bounds=(1e-9, 1.0), method="bounded", options={"xatol": 1e-9}
        )
        assert same_bytes(x, result.x)
        assert same_bytes(fun, result.fun)


class TestBrentq:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.01, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
        st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
    )
    def test_monotone_cubic_matches_scipy(self, root, c1, c2, c3, left, right):
        def f(x):
            d = x - root
            return c1 * d + c2 * d * abs(d) + c3 * d**3

        lo, hi = root - left, root + right
        assume(f(lo) < 0 < f(hi))  # the bracket may round onto the root
        ours = _solvers.brentq(f, lo, hi, 1e-12, 1e-12)
        theirs = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)
        assert same_bytes(ours, theirs)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-5.0, 5.0), st.floats(0.1, 20.0), st.floats(0.01, 3.0),
        st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
    )
    def test_steep_exponential_matches_scipy(self, root, rate, slope, left, right):
        # convex and steep, so extrapolated steps often overshoot and the
        # step-length guard decides between them and bisection
        def f(x):
            return math.expm1(rate * (x - root)) + slope * (x - root)

        lo, hi = root - left, root + right
        assume(f(lo) < 0 < f(hi))
        ours = _solvers.brentq(f, lo, hi, 1e-12, 1e-12)
        theirs = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)
        assert same_bytes(ours, theirs)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(2e-3, 6e-3), st.floats(0.0, 1.0))
    def test_calibrate_tau_gap_matches_scipy(self, crossing, excess):
        cset = CoherentSet(0.0, 10.0)
        base = store_channel(StorageParams())
        _, f_class = optimize_classical_gain(cset.n_min, cset.n_max)

        def gap(tau):
            channel = decay_channel(base, crossing, DecayParams(tau, excess))
            return average_fidelity(cset, channel) - f_class

        ours = _solvers.brentq(gap, 1e-5, 1.0, 1e-12, 1e-12)
        theirs = optimize.brentq(gap, 1e-5, 1.0, xtol=1e-12, rtol=1e-12)
        assert same_bytes(ours, theirs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, bad):
        def f(x):  # finite at the ends, so the first step meets ``bad``
            return bad if 0.1 < x < 0.9 else x - 0.5

        with pytest.raises(FloatingPointError):
            _solvers.brentq(f, 0.0, 1.0, 1e-12, 1e-12)

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _solvers.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)
