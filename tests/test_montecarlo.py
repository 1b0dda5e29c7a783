"""Monte Carlo series tests: determinism, reconstruction, histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmemsim.gaussian import coherent_state, homodyne_measure
from qmemsim.montecarlo import (
    _ARM_TAGS,
    ARM_P,
    ARM_X,
    TrialSeries,
    estimate_channel,
    ideal_reference,
    make_histogram,
    run_series,
)
from qmemsim.protocol import (
    VERIFY,
    StorageParams,
    pi_half_pulse,
    readout_map,
    store_channel,
    store_conditional,
)
from qmemsim.rng import stream_key, trial_normals


def series(arm, verification):
    """A series with the given verification column and zero feedback."""
    verification = np.asarray(verification, dtype=float)
    return TrialSeries(arm, np.zeros_like(verification), verification)


class BlockRandomSource:
    """Drop-in ``rng`` facade replaying one trial's normals in order."""

    def __init__(self, normals):
        self._normals = np.atleast_1d(np.asarray(normals, dtype=float))
        self._next = 0

    def standard_normal(self):
        if self._next >= self._normals.size:
            raise RuntimeError("trial consumed more normals than budgeted")
        z = self._normals[self._next]
        self._next += 1
        return z


def run_series_reference(input_mean, params, arm, n_trials, seed):
    """Per-trial replay through the full Gaussian pipeline (slow path).

    Consumes the same counter-based normals as :func:`run_series`, so the
    affine sampler must reproduce the literal sequence of operations.
    """
    key = stream_key(seed, _ARM_TAGS[arm])
    z = trial_normals(key, 0, n_trials, width=2)
    light = coherent_state(*input_mean, mode="light")
    series = TrialSeries(arm, np.empty(n_trials), np.empty(n_trials))
    for i in range(n_trials):
        rng = BlockRandomSource(z[i])
        series.feedback[i], atoms = store_conditional(light, params, rng=rng)
        if arm == ARM_X:
            atoms = pi_half_pulse(atoms)
        verified = readout_map(atoms, params.readout_coupling)
        series.verification[i], _ = homodyne_measure(
            verified, VERIFY, "x", rng=rng
        )
    return series


class TestBlockRandomSource:
    def test_replays_in_order(self):
        src = BlockRandomSource([1.5, -2.5])
        assert src.standard_normal() == 1.5
        assert src.standard_normal() == -2.5

    def test_exhaustion_raises(self):
        src = BlockRandomSource([0.0])
        src.standard_normal()
        with pytest.raises(RuntimeError, match="budget"):
            src.standard_normal()


class TestRunSeries:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chunking_does_not_change_records(self, data):
        n = data.draw(st.integers(1, 2000), label="n_trials")
        chunk = data.draw(st.integers(1, n), label="chunk_size")
        params = StorageParams()
        whole = run_series((1.0, 2.0), params, ARM_P, n, seed=3, chunk_size=n)
        split = run_series((1.0, 2.0), params, ARM_P, n, seed=3, chunk_size=chunk)
        assert len(split) == n
        assert np.array_equal(split.feedback, whole.feedback)
        assert np.array_equal(split.verification, whole.verification)

    def test_seeds_and_arms_are_independent_streams(self):
        params = StorageParams()
        a = run_series((0.0, 0.0), params, ARM_P, 50, seed=1)
        b = run_series((0.0, 0.0), params, ARM_P, 50, seed=2)
        c = run_series((0.0, 0.0), params, ARM_X, 50, seed=1)
        assert not np.array_equal(a.verification, b.verification)
        assert not np.array_equal(a.feedback, c.feedback)

    def test_single_trial_reproduces_conditional_pipeline(self):
        params = StorageParams(coupling=0.9, gain=0.8)
        fast = run_series((1.5, -0.5), params, ARM_X, 1, seed=11)
        slow = run_series_reference((1.5, -0.5), params, ARM_X, 1, seed=11)
        assert fast.arm == slow.arm == ARM_X
        assert fast.feedback[0] == pytest.approx(slow.feedback[0], abs=1e-12)
        assert fast.verification[0] == pytest.approx(
            slow.verification[0], abs=1e-12
        )

    def test_matches_reference_path_on_batch(self):
        params = StorageParams(coupling=1.2, gain=0.7, readout_coupling=0.8)
        fast = run_series((0.5, 1.0), params, ARM_P, 300, seed=21)
        slow = run_series_reference((0.5, 1.0), params, ARM_P, 300, seed=21)
        assert len(fast) == len(slow) == 300
        np.testing.assert_allclose(fast.feedback, slow.feedback, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            fast.verification, slow.verification, rtol=0, atol=1e-12
        )

    def test_histogram_centers_for_displaced_input(self):
        # input (0, -4): the P readout centers at 0, the X readout
        # (scaled by -1/k_r) at gain * -4
        params = StorageParams()
        n = 20_000
        rp = run_series((0.0, -4.0), params, ARM_P, n, seed=5)
        rx = run_series((0.0, -4.0), params, ARM_X, n, seed=5)
        vp = rp.verification
        vx = -rx.verification
        assert abs(vp.mean()) < 4 * vp.std(ddof=1) / np.sqrt(n)
        assert abs(vx.mean() - (-4.0)) < 4 * vx.std(ddof=1) / np.sqrt(n)

    def test_bad_arm_and_trial_count(self):
        with pytest.raises(ValueError, match="arm"):
            run_series((0, 0), StorageParams(), "z", 10, seed=0)
        with pytest.raises(ValueError, match="trial"):
            run_series((0, 0), StorageParams(), ARM_P, 0, seed=0)


class TestEstimateChannel:
    def test_ensemble_matches_analytic_channel(self):
        params = StorageParams(coupling=1.0, gain=0.8)
        channel = store_channel(params)
        n = 30_000
        rp = run_series((2.0, -1.0), params, ARM_P, n, seed=17)
        rx = run_series((2.0, -1.0), params, ARM_X, n, seed=17)
        est = estimate_channel(rp, rx, params.readout_coupling)
        assert abs(est.mean_p - (-channel.gain_p * 2.0)) < 4 * est.se_mean_p
        assert abs(est.mean_x - channel.gain_x * (-1.0)) < 4 * est.se_mean_x
        assert abs(est.var_p - channel.var_p) < 4 * est.se_var_p
        assert abs(est.var_x - channel.var_x) < 4 * est.se_var_x

    def test_paper_gain_pair_round_trip(self):
        # configure the channel with the observed gains and read them back
        params = StorageParams(coupling=0.84, gain=0.80)
        n = 30_000
        rp = run_series((3.0, 0.0), params, ARM_P, n, seed=23)
        rx = run_series((0.0, 3.0), params, ARM_X, n, seed=23)
        est = estimate_channel(rp, rx, params.readout_coupling)
        gain_p = -est.mean_p / 3.0
        gain_x = est.mean_x / 3.0
        assert gain_p == pytest.approx(0.80, abs=4 * est.se_mean_p / 3.0)
        assert gain_x == pytest.approx(0.84, abs=4 * est.se_mean_x / 3.0)

    def test_degenerate_records_flag_negative_variance(self):
        rp = series(ARM_P, np.full(200, 1.3))
        rx = series(ARM_X, np.full(200, -0.4))
        with pytest.warns(UserWarning, match="negative"):
            est = estimate_channel(rp, rx, 1.0)
        assert est.var_p == pytest.approx(-0.5)
        assert est.var_x == pytest.approx(-0.5)
        assert est.mean_p == pytest.approx(1.3)
        assert est.mean_x == pytest.approx(0.4)

    def test_insufficient_trials_rejected(self):
        rp = series(ARM_P, np.zeros(99))
        rx = series(ARM_X, np.zeros(200))
        with pytest.raises(ValueError, match="at least"):
            estimate_channel(rp, rx, 1.0)
        with pytest.raises(ValueError, match="at least"):
            estimate_channel(series(ARM_P, []), rx, 1.0)

    def test_mixed_arms_rejected(self):
        rp = series(ARM_P, np.zeros(200))
        with pytest.raises(ValueError, match="arm"):
            estimate_channel(rp, rp, 1.0)  # second argument is x-arm
        # passing the arms swapped is caught too
        with pytest.raises(ValueError, match="arm"):
            estimate_channel(series(ARM_X, np.zeros(200)), rp, 1.0)


class TestHistogram:
    def test_constant_samples_single_bin(self):
        hist = make_histogram(series(ARM_P, np.full(50, 2.5)), bins=7)
        assert hist.counts.sum() == 50
        assert (hist.counts > 0).sum() == 1

    def test_counts_cover_all_samples(self):
        params = StorageParams()
        trials = run_series((0.0, 0.0), params, ARM_P, 5_000, seed=2)
        hist = make_histogram(trials, bins=40, scale=1.0)
        assert hist.counts.sum() == 5_000
        assert hist.bin_edges.shape == (41,)

    def test_gaussian_chi_squared_sanity(self):
        rng = np.random.default_rng(314)
        samples = rng.standard_normal(10_000)
        hist = make_histogram(series(ARM_P, samples), bins=50)
        edges = hist.bin_edges
        expected = 10_000 * np.diff(stats.norm.cdf(edges))
        # merge sparse tails for a valid chi-squared comparison
        keep = expected > 5
        chi2 = np.sum(
            (hist.counts[keep] - expected[keep]) ** 2 / expected[keep]
        )
        p = stats.chi2.sf(chi2, keep.sum() - 1)
        assert p > 0.001

    def test_validation(self):
        with pytest.raises(ValueError, match="bins"):
            make_histogram(series(ARM_P, np.zeros(10)), bins=4)
        with pytest.raises(ValueError, match="records"):
            make_histogram(series(ARM_P, []), bins=10)
        # outcomes that overflowed have no finite, resolvable range
        for bad in ([0.0, np.nan], [-np.inf, 1.0], [5e307, 5e307]):
            with pytest.raises(FloatingPointError, match="cannot bin"):
                make_histogram(series(ARM_P, bad), bins=10)

    def test_scaled_variance_reconstruction_identity(self):
        # histogram sample variance of the scaled readout minus the scaled
        # shot term equals the reconstructed variance, on the same records
        params = StorageParams(readout_coupling=0.8)
        k_r = params.readout_coupling
        rp = run_series((1.0, 0.0), params, ARM_P, 5_000, seed=9)
        rx = run_series((1.0, 0.0), params, ARM_X, 5_000, seed=9)
        est = estimate_channel(rp, rx, k_r)
        scaled = rp.verification / k_r
        assert scaled.var(ddof=1) - 0.5 / k_r**2 == pytest.approx(
            est.var_p, rel=1e-12
        )

    def test_ideal_reference_values(self):
        params = StorageParams()
        mean_p, sd = ideal_reference(params, ARM_P, (1.0, -4.0))
        mean_x, _ = ideal_reference(params, ARM_X, (1.0, -4.0))
        assert mean_p == -1.0  # stored P is -x_in for a perfect memory
        assert mean_x == -4.0  # stored X is p_in
        assert sd == pytest.approx(1.0)  # 1/2 shot + 1/2 ideal at k_r = 1
