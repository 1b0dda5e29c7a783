"""Decay-model tests: semigroup, fixed point, lifetime calibration."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmemsim.decoherence import (
    DecayParams,
    apply_decay,
    calibrate_tau,
    crossing_time,
    decay_channel,
    fidelity_vs_time,
)
from qmemsim.fidelity import CoherentSet, optimize_classical_gain
from qmemsim.gaussian import assert_physical, single_mode
from qmemsim.protocol import StorageParams, store_channel

DECAY = DecayParams(tau=2e-3, excess_noise_rate=0.3)


def stored_state():
    return single_mode("atoms", x=1.2, p=-0.7, var_x=1.0, var_p=0.5)


class TestApplyDecay:
    def test_zero_time_is_identity(self):
        state = stored_state()
        out = apply_decay(state, 0.0, DECAY)
        assert_allclose(out.mean, state.mean)
        assert_allclose(out.cov, state.cov)

    def test_long_time_fixed_point(self):
        out = apply_decay(stored_state(), 1e3 * DECAY.tau, DECAY)
        assert_allclose(out.mean, [0.0, 0.0], atol=1e-200)
        assert_allclose(out.cov, (0.5 + 0.3) * np.eye(2), atol=1e-12)

    def test_semigroup_property(self):
        state = stored_state()
        t1, t2 = 0.7e-3, 1.9e-3
        a = apply_decay(apply_decay(state, t1, DECAY), t2, DECAY)
        b = apply_decay(state, t1 + t2, DECAY)
        assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-15)
        assert_allclose(a.cov, b.cov, rtol=1e-12, atol=1e-15)

    def test_uncertainty_preserved(self):
        state = stored_state()
        for t in np.linspace(0, 10e-3, 20):
            assert_physical(apply_decay(state, t, DECAY))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            apply_decay(stored_state(), -1e-3, DECAY)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecayParams(tau=0.0)
        with pytest.raises(ValueError):
            DecayParams(tau=1.0, excess_noise_rate=-0.1)


class TestDecayChannel:
    def test_gains_scale_uniformly(self):
        base = store_channel(StorageParams(coupling=0.84, gain=0.80))
        t = 1.3e-3
        decayed = decay_channel(base, t, DECAY)
        beta = np.exp(-t / DECAY.tau)
        assert decayed.gain_x / base.gain_x == pytest.approx(beta, rel=1e-12)
        assert decayed.gain_p / base.gain_p == pytest.approx(beta, rel=1e-12)

    def test_matches_state_decay(self):
        base = store_channel(StorageParams())
        t = 0.9e-3
        decayed = decay_channel(base, t, DECAY)
        state = single_mode("atoms", var_x=base.var_x, var_p=base.var_p)
        out = apply_decay(state, t, DECAY)
        assert decayed.var_x == pytest.approx(out.quad_var("atoms", "x"))
        assert decayed.var_p == pytest.approx(out.quad_var("atoms", "p"))


class TestLifetimeCurve:
    def test_zero_time_reproduces_undecayed_fidelity(self):
        cset = CoherentSet(0, 10)
        fids = fidelity_vs_time(
            cset, StorageParams(), DecayParams(1e-3, 0.5), [0.0]
        )
        assert fids[0] == pytest.approx(2 / np.sqrt(6), abs=1e-10)

    def test_monotone_when_fixed_point_noisier_than_memory(self):
        cset = CoherentSet(0, 10)
        times = np.linspace(0, 8e-3, 81)
        fids = fidelity_vs_time(
            cset, StorageParams(), DecayParams(3e-3, 0.5), times
        )
        assert np.all(np.diff(fids) <= 1e-12)

    def test_calibrated_curve_crosses_at_requested_time(self):
        cset = CoherentSet(0, 10)
        params = StorageParams()
        decay = calibrate_tau(cset, params, 4e-3, excess_noise_rate=0.5)
        times = np.arange(0.0, 6.0001e-3, 1e-4)
        fids = fidelity_vs_time(cset, params, decay, times)
        _, f_class = optimize_classical_gain(0, 10)
        crossing = crossing_time(times, fids, f_class)
        assert crossing == pytest.approx(4e-3, abs=1e-4)
        # above the classical optimum before, below after
        assert np.all(fids[times < crossing - 1e-4] > f_class)
        assert np.all(fids[times > crossing + 1e-4] < f_class)

    def test_uncalibratable_channel_raises(self):
        weak = StorageParams(coupling=0.2, gain=0.2)
        with pytest.raises(RuntimeError, match="classical"):
            calibrate_tau(CoherentSet(0, 10), weak, 4e-3)

    def test_crossing_below_tau_bracket_raises(self):
        # at tau = 1e-5 s a 1 ns crossing leaves the fidelity above the
        # classical optimum, so the bracket holds no sign change
        with pytest.raises(ValueError, match="too short"):
            calibrate_tau(CoherentSet(0, 10), StorageParams(), 1e-9)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            fidelity_vs_time(
                CoherentSet(0, 10), StorageParams(), DECAY, [1e-3, 0.5e-3]
            )

    def test_crossing_time_edge_cases(self):
        times = np.array([0.0, 1.0, 2.0])
        assert crossing_time(times, [3.0, 2.0, 1.0], 0.5) is None
        assert crossing_time(times, [3.0, 2.0, 1.0], 1.5) == pytest.approx(1.5)
