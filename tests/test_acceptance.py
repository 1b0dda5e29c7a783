"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints ``criterion NN PASS`` after its assertions
(pytest reports FAILED otherwise), and enforces the stated runtime
budget where one exists.
"""

import json
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qmemsim.calibration import fit_pnl, synthesize_series
from qmemsim.cli import main as cli_main
from qmemsim.decoherence import (
    DecayParams,
    calibrate_tau,
    crossing_time,
    fidelity_vs_time,
)
from qmemsim.fidelity import (
    CoherentSet,
    average_fidelity,
    classical_fidelity,
    classical_variance_bound,
    optimize_classical_gain,
)
from qmemsim.gaussian import (
    SymplecticMap,
    apply_symplectic,
    homodyne_measure,
    single_mode,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
)
from qmemsim.microscopic import (
    demodulate,
    omega_t_sweep,
    pinned_phase_omega_t,
    propagate_binned,
    theoretical_coupling,
    tuned_params,
)
from qmemsim.montecarlo import ARM_P, ARM_X, estimate_channel, run_series
from qmemsim.protocol import ChannelSummary, StorageParams, store_channel
from test_decoherence import apply_decay


def report(number, detail):
    print(f"criterion {number:02d} PASS -- {detail}")


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds {self.budget}s budget"
            )


def test_criterion_01_ideal_css_fidelity():
    with Stopwatch(1.0) as clock:
        channel = ChannelSummary(gain_x=1.0, gain_p=1.0, var_x=1.0, var_p=0.5)
        value = average_fidelity(CoherentSet(0, 8), channel)
    assert value == pytest.approx(2.0 / np.sqrt(6.0), abs=1e-12)
    assert value == pytest.approx(0.81650, abs=0.0005)
    report(1, f"ideal-protocol fidelity {value:.5f} in {clock.elapsed:.2f}s")


def test_criterion_02_classical_benchmark_zero_to_eight():
    with Stopwatch(5.0) as clock:
        g_opt, f_max = optimize_classical_gain(0, 8)
        assert g_opt == pytest.approx(0.809, abs=0.005)
        assert f_max == pytest.approx(0.554, abs=0.002)
        # arbitration: the closed form integrates the printed overlap
        for gain in (0.5, 0.7, 0.809, 0.95):
            for n_min, n_max in ((0, 8), (0, 4)):
                a1sq, a2sq = 2.0 * n_min, 2.0 * n_max
                xg, wg = leggauss(600)
                s = 0.5 * (a2sq - a1sq) * xg + 0.5 * (a2sq + a1sq)
                w = 0.5 * (a2sq - a1sq) * wg
                o_vals = np.exp(
                    -0.5 * (1 - gain) ** 2 * s / (1 + gain**2)
                ) / (1 + gain**2)
                quadrature = 2 * np.pi * np.dot(w, o_vals) / 2.0
                quadrature /= np.pi * (a2sq - a1sq)
                assert classical_fidelity(gain, n_min, n_max) == pytest.approx(
                    quadrature, abs=1e-6
                )
    report(2, f"g_opt={g_opt:.4f}, F_max={f_max:.4f} in {clock.elapsed:.2f}s")


def test_criterion_03_classical_benchmark_zero_to_four():
    _, f_max = optimize_classical_gain(0, 4)
    assert f_max == pytest.approx(0.596, abs=0.002)
    report(3, f"F_max(0..4) = {f_max:.4f}")


def test_criterion_04_unit_gain_limit():
    for n_max in (2.0, 8.0, 50.0):
        assert classical_fidelity(1.0, 0, n_max) == pytest.approx(
            0.5, abs=1e-6
        )
    near = classical_fidelity(1.0 - 1e-10, 0, 8)
    assert near == pytest.approx(0.5, abs=1e-6)
    report(4, "classical fidelity -> 0.500 at unit gain")


def test_criterion_05_squeezed_ancilla_limit():
    cset = CoherentSet(0, 8)
    params = StorageParams(atom_var_x=0.005, atom_var_p=50.0)
    value = average_fidelity(cset, store_channel(params))
    assert value >= 0.99
    variances = (0.1, 0.02, 0.005, 0.001, 1e-4)
    fids = [
        average_fidelity(
            cset,
            store_channel(
                StorageParams(atom_var_x=v, atom_var_p=0.25 / v)
            ),
        )
        for v in variances
    ]
    assert np.all(np.diff(fids) > 0)  # monotone toward unity
    assert fids[-1] > 0.9999
    report(5, f"F = {value:.5f} at squeezed variance 0.005, monotone to 1")


def test_criterion_06_ensemble_average_theorem():
    with Stopwatch(30.0) as clock:
        n = 100_000
        input_mean = (2.0, -1.0)
        for setup, seed in (
            (StorageParams(coupling=1.0, gain=1.0), 1001),
            (StorageParams(coupling=1.0, gain=0.8), 1002),
        ):
            channel = store_channel(setup)
            rp = run_series(input_mean, setup, ARM_P, n, seed=seed)
            rx = run_series(input_mean, setup, ARM_X, n, seed=seed)
            est = estimate_channel(rp, rx, setup.readout_coupling)
            gain_p = -est.mean_p / input_mean[0]
            gain_x = est.mean_x / input_mean[1]
            assert abs(gain_p - channel.gain_p) < 4 * est.se_mean_p / abs(
                input_mean[0]
            )
            assert abs(gain_x - channel.gain_x) < 4 * est.se_mean_x / abs(
                input_mean[1]
            )
            assert abs(est.var_p - channel.var_p) < 4 * est.se_var_p
            assert abs(est.var_x - channel.var_x) < 4 * est.se_var_x
    report(6, f"10^5-trial estimates within 4 SE in {clock.elapsed:.1f}s")


def test_criterion_07_microscopic_reduction():
    with Stopwatch(60.0) as clock:
        params = tuned_params(1.0)  # 2*pi*322 kHz, 1 ms, 10^4 bins
        couplings = demodulate(propagate_binned(params))
        k_theory = theoretical_coupling(params)
        assert k_theory == pytest.approx(1.0, rel=1e-12)
        assert abs(couplings.coupling - 1.0) < 0.01
        assert couplings.max_spurious < 0.01
        rows = omega_t_sweep(pinned_phase_omega_t(), bins=4096)
        slope = np.polyfit(
            np.log([r["omega_t"] for r in rows]),
            np.log([r["sine_leakage"] for r in rows]),
            1,
        )[0]
        assert slope == pytest.approx(-1.0, abs=0.15)
    report(
        7,
        f"coupling {couplings.coupling:.6f}, max spurious "
        f"{couplings.max_spurious:.2e}, leakage slope {slope:.3f} "
        f"in {clock.elapsed:.1f}s",
    )


def test_criterion_08_calibration_closure():
    jx = np.linspace(0.1, 2.0, 10)
    truth = 0.5
    fit = fit_pnl(synthesize_series(truth, 0.0, jx, 10_000, seed=41))
    assert abs(fit.slope - truth) < 2 * fit.slope_se
    # reproducibility pair: same design for both series, cycle count high
    # enough that 2.5% is a > 2.5-sigma band on the difference (at 1e4
    # cycles the single-fit error is ~4% of the slope, so the stability
    # figure is a statement about well-averaged calibrations)
    pair = [
        fit_pnl(synthesize_series(truth, 0.0, jx, 400_000, seed=s))
        for s in (41, 42)
    ]
    diff = abs(pair[0].slope - pair[1].slope)
    assert diff / truth < 0.025
    assert diff < 4 * np.hypot(pair[0].slope_se, pair[1].slope_se)
    report(
        8,
        f"slope {fit.slope:.4f} +/- {fit.slope_se:.4f}; reseeded agreement "
        f"{diff / truth:.2%}",
    )


def test_criterion_09_variance_boundary_numbers(tmp_path):
    assert 2.0 * classical_variance_bound(1.0) == 3.0  # exact
    pn_anchor = 2.0 * classical_variance_bound(0.809)
    assert pn_anchor == pytest.approx(2.309, abs=5e-4)
    assert 0.67 * pn_anchor == pytest.approx(1.547, abs=5e-4)
    # emitted by the fidelity command
    code = cli_main(["fidelity", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    bounds = json.loads((tmp_path / "fidelity.json").read_text())["boundaries"]
    assert bounds["arbitrary_input_bound_pn"] == 3.0
    assert bounds["set_bound_pn"] == pytest.approx(2.309, abs=1e-3)
    assert bounds["set_bound_33pct_below_pn"] == pytest.approx(1.547, abs=1e-3)
    report(9, "PN boundaries 3.000 / 2.309 / 1.547 emitted")


def test_criterion_10_experimental_consistency_band():
    pn_bound = 2.0 * classical_variance_bound(0.809)
    var = 0.67 * pn_bound / 2.0  # 33% below, back to canonical units
    channel = ChannelSummary(gain_x=0.84, gain_p=0.80, var_x=var, var_p=var)
    value = average_fidelity(CoherentSet(0, 8), channel)
    assert value == pytest.approx(0.667, abs=0.05)
    report(10, f"consistency fidelity {value:.4f} within 0.667 +/- 0.05")


def test_criterion_11_lifetime_crossing():
    cset = CoherentSet(0, 10)
    params = StorageParams()
    _, f_class = optimize_classical_gain(cset.n_min, cset.n_max)
    decay = calibrate_tau(cset, params, 4e-3, excess_noise_rate=0.5, f_class=f_class)
    step = 1e-4
    times = np.arange(0.0, 6e-3 + step / 2, step)
    fids = fidelity_vs_time(cset, params, decay, times)
    crossing = crossing_time(times, fids, f_class)
    assert crossing == pytest.approx(4e-3, abs=step)
    assert np.all(np.diff(fids) <= 1e-12)
    report(
        11,
        f"tau {decay.tau * 1e3:.2f} ms, crossing {crossing * 1e3:.3f} ms, "
        "monotone",
    )


def test_criterion_12_invariant_suite():
    rng = np.random.default_rng(2024)

    # states produced by a random pipeline stay symmetric and physical
    def random_symplectic(n_modes):
        h = rng.normal(size=(2 * n_modes, 2 * n_modes))
        return SymplecticMap(expm(symplectic_form(n_modes) @ (h + h.T) / 2))

    for _ in range(25):
        state = vacuum_state(["a", "b", "c"])
        state = apply_symplectic(state, random_symplectic(3))
        _, state = homodyne_measure(state, "b", "p", rng=rng)
        scale = max(1.0, np.abs(state.cov).max())
        assert np.abs(state.cov - state.cov.T).max() < 1e-12 * scale
        assert symplectic_eigenvalues(state.cov).min() > 0.5 - 1e-9

    # every symplectic map construction enforces the form to 1e-10;
    # verify explicitly for the maps the protocol uses
    from qmemsim.protocol import interaction_map

    omega = symplectic_form(2)
    for k in (0.5, 1.0, 2.0):
        s = interaction_map(k).matrix
        assert np.abs(s.T @ omega @ s - omega).max() < 1e-10

    # homodyne law of total covariance to 1e-10
    for _ in range(10):
        state = apply_symplectic(
            vacuum_state(["a", "b"]), random_symplectic(2)
        )
        q = state.quad_index("a", "x")
        rest = [2, 3]
        _, cond = homodyne_measure(state, "a", "x", fixed_outcome=0.0)
        spread = np.outer(state.cov[rest, q], state.cov[rest, q])
        spread /= state.cov[q, q]
        assert_allclose(
            cond.cov + spread, state.cov[np.ix_(rest, rest)], atol=1e-10
        )

    # decay semigroup to 1e-12
    decay = DecayParams(tau=1.7e-3, excess_noise_rate=0.2)
    state = single_mode("atoms", x=0.9, p=-1.1, var_x=1.3, var_p=0.4)
    one = apply_decay(apply_decay(state, 0.4e-3, decay), 1.1e-3, decay)
    two = apply_decay(state, 1.5e-3, decay)
    assert np.abs(one.mean - two.mean).max() < 1e-12
    assert np.abs(one.cov - two.cov).max() < 1e-12

    report(12, "symmetry, uncertainty, symplectic, total-covariance, semigroup")
