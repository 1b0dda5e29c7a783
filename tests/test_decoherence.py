"""Decay-model tests: semigroup, fixed point, lifetime calibration.

The batched lifetime curve is checked byte for byte against the curve
built one time point at a time (``per_point``).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmemsim.decoherence import (
    DecayParams,
    calibrate_tau,
    crossing_time,
    decay_channel,
    fidelity_vs_time,
)
from qmemsim import fidelity
from qmemsim.fidelity import CoherentSet, average_fidelity, optimize_classical_gain
from qmemsim.gaussian import GaussianState, assert_physical, single_mode
from qmemsim.protocol import StorageParams, store_channel

DECAY = DecayParams(tau=2e-3, excess_noise_rate=0.3)


def apply_decay(atomic_state, t, params):
    """Stored state after a storage delay of ``t`` seconds."""
    if t < 0:
        raise ValueError("storage time must be nonnegative")
    beta = np.exp(-t / params.tau)
    floor = (1.0 - beta**2) * (0.5 + params.excess_noise_rate)
    cov = beta**2 * atomic_state.cov + floor * np.eye(atomic_state.mean.size)
    return GaussianState(atomic_state.mode_names, beta * atomic_state.mean, cov)


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
            cset, store_channel(StorageParams()), DecayParams(1e-3, 0.5), [0.0]
        )
        assert fids[0] == pytest.approx(2 / np.sqrt(6), abs=1e-10)

    def test_monotone_when_fixed_point_noisier_than_memory(self):
        cset = CoherentSet(0, 10)
        times = np.linspace(0, 8e-3, 81)
        fids = fidelity_vs_time(
            cset, store_channel(StorageParams()), DecayParams(3e-3, 0.5), times
        )
        assert np.all(np.diff(fids) <= 1e-12)

    def test_calibrated_curve_crosses_at_requested_time(self):
        cset = CoherentSet(0, 10)
        channel = store_channel(StorageParams())
        _, f_class = optimize_classical_gain(cset)
        decay = calibrate_tau(cset, channel, 4e-3, excess_noise_rate=0.5, f_class=f_class)
        times = np.arange(0.0, 6.0001e-3, 1e-4)
        fids = fidelity_vs_time(cset, channel, decay, times)
        crossing = crossing_time(times, fids, f_class)
        assert crossing == pytest.approx(4e-3, abs=1e-4)
        # above the classical optimum before, below after
        assert np.all(fids[times < crossing - 1e-4] > f_class)
        assert np.all(fids[times > crossing + 1e-4] < f_class)

    def test_uncalibratable_channel_raises(self):
        weak = store_channel(StorageParams(coupling=0.2, gain=0.2))
        _, f_class = optimize_classical_gain(CoherentSet(0, 10))
        with pytest.raises(RuntimeError, match="never beats the classical benchmark"):
            calibrate_tau(CoherentSet(0, 10), weak, 4e-3, f_class=f_class)

    def test_crossing_beyond_tau_bracket_raises(self):
        # the undecayed channel beats the classical optimum, but at
        # tau = 1 s the fidelity has fallen below it by 0.4 s
        _, f_class = optimize_classical_gain(CoherentSet(0, 10))
        with pytest.raises(RuntimeError, match="0.4 s is too long.*tau = 1.0 s"):
            calibrate_tau(CoherentSet(0, 10), store_channel(StorageParams()), 0.4,
                          excess_noise_rate=0.5, f_class=f_class)

    def test_overflowing_set_raises_from_the_classical_optimum(self):
        # the optimum that calibrate_tau is given cannot be computed
        with pytest.raises(FloatingPointError, match=r"photon numbers \[0, 4300\]"):
            _, f_class = optimize_classical_gain(CoherentSet(0, 4300))
            calibrate_tau(CoherentSet(0, 4300), store_channel(StorageParams()), 4e-3,
                          f_class=f_class)

    def test_crossing_below_tau_bracket_raises(self):
        # at tau = 1e-5 s a 1 ns crossing leaves the fidelity above the
        # classical optimum, so the bracket holds no sign change
        _, f_class = optimize_classical_gain(CoherentSet(0, 10))
        with pytest.raises(ValueError, match="too short"):
            calibrate_tau(CoherentSet(0, 10), store_channel(StorageParams()), 1e-9,
                          f_class=f_class)

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            fidelity_vs_time(
                CoherentSet(0, 10), store_channel(StorageParams()), DECAY, [1e-3, 0.5e-3]
            )

    def test_crossing_time_edge_cases(self):
        times = np.array([0.0, 1.0, 2.0])
        assert crossing_time(times, [3.0, 2.0, 1.0], 0.5) is None
        assert crossing_time(times, [3.0, 2.0, 1.0], 1.5) == pytest.approx(1.5)


def per_point(cset, channel, decay, times):
    """The lifetime curve one time point at a time."""
    return np.array(
        [average_fidelity(cset, decay_channel(channel, t, decay)) for t in times]
    )


def lifetime_inputs(crossing_ms=4.0, excess=0.5, t_max_ms=6.0, t_step_ms=0.1):
    """Arguments of ``fidelity_vs_time`` as ``qmemsim lifetime`` builds them."""
    cset, channel = CoherentSet(0, 10), store_channel(StorageParams())
    _, f_class = optimize_classical_gain(cset)
    decay = calibrate_tau(
        cset, channel, crossing_ms * 1e-3, excess_noise_rate=excess, f_class=f_class
    )
    times = np.arange(0.0, t_max_ms * 1e-3 + 1e-12, t_step_ms * 1e-3)
    return cset, channel, decay, times


#: random curves of the byte-equality sweep, 301 points each
SWEEP_CURVES = 20
#: points of this curve converge at 64, 128, 256 and 512 radial nodes
MIXED = (CoherentSet(0, 1e4), store_channel(StorageParams(coupling=1.0)),
         DecayParams(4e-3, 0.5))


class TestBatchedCurve:
    @pytest.mark.parametrize(
        "config",
        [
            {},  # the lifetime defaults
            {"crossing_ms": 3.0, "excess": 0.5, "t_step_ms": 0.01},  # perfbench's
            {"crossing_ms": 5.0, "excess": 0.8, "t_step_ms": 0.01},  # range ends
            {"t_step_ms": 0.001, "t_max_ms": 10.0},
        ],
    )
    def test_lifetime_configs_match_per_point_bytes(self, config):
        args = lifetime_inputs(**config)
        assert fidelity_vs_time(*args).tobytes() == per_point(*args).tobytes()

    def test_mixed_node_counts_match_per_point_bytes(self):
        times = np.arange(0.0, 6e-3 + 1e-12, 1e-5)
        assert (
            fidelity_vs_time(*MIXED, times).tobytes()
            == per_point(*MIXED, times).tobytes()
        )

    def test_random_params_match_per_point_bytes(self):
        rng = np.random.default_rng(2024)
        times = np.arange(0.0, 6e-3 + 1e-12, 2e-5)
        for _ in range(SWEEP_CURVES):
            cset = CoherentSet(0.0, rng.uniform(1.0, 200.0))
            channel = store_channel(StorageParams(
                coupling=rng.uniform(0.5, 1.5),
                gain=rng.uniform(0.5, 1.5),
                atom_var_x=rng.uniform(0.5, 1.0),
                atom_var_p=rng.uniform(0.5, 1.0),
            ))
            decay = DecayParams(rng.uniform(1e-3, 1e-2), rng.uniform(0.0, 1.0))
            curve = fidelity_vs_time(cset, channel, decay, times)
            assert curve.tobytes() == per_point(cset, channel, decay, times).tobytes()

    def test_blocks_do_not_change_bytes(self, monkeypatch):
        times = np.arange(0.0, 6e-3 + 1e-12, 1e-5)  # 601 points, 97 does not divide
        whole = fidelity_vs_time(*MIXED, times)
        monkeypatch.setattr(fidelity, "BLOCK_POINTS", 97)
        blocked = fidelity_vs_time(*MIXED, times)
        monkeypatch.setattr(fidelity, "BLOCK_POINTS", times.size)
        assert blocked.tobytes() == whole.tobytes()
        assert fidelity_vs_time(*MIXED, times).tobytes() == whole.tobytes()

    def test_unconverged_point_raises_at_node_cap(self, monkeypatch):
        # only the last of these four times needs more than 256 nodes
        monkeypatch.setattr(fidelity, "MAX_NODES", 256)
        times = np.array([0.0, 1e-3, 3e-3, 6e-3])
        per_point(*MIXED, times[:3])
        with pytest.raises(RuntimeError) as single:
            per_point(*MIXED, times[3:])
        with pytest.raises(RuntimeError) as batch:
            fidelity_vs_time(*MIXED, times)
        assert str(batch.value) == str(single.value)
        assert str(batch.value).endswith("below 1e-10 by 256 nodes")

    def test_nan_time_names_the_gain(self):
        with pytest.raises(ValueError, match="gain_x must be finite, got nan"):
            fidelity_vs_time(*MIXED, [0.0, np.nan])

    def test_empty_times(self):
        curve = fidelity_vs_time(*MIXED, [])
        assert curve.shape == (0,) and curve.dtype == float
