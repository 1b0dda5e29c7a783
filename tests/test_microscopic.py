"""Binned-propagation tests: symplectic form, conservation, demodulation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmemsim.cli import MAX_TIME_BINS
from qmemsim.gaussian import SymplecticMap, symplectic_form
from qmemsim.microscopic import (
    ATOM_X2,
    ATOM_P2,
    SIN_P,
    SIN_X,
    PhysicalParams,
    _unit_weights,
    demodulate,
    omega_t_sweep,
    pinned_phase_omega_t,
    propagate_binned,
    theoretical_coupling,
    tuned_params,
)


def dense_matrix(prop):
    """The whole binned map as a matrix: the images of the unit vectors."""
    return prop.apply_to(np.eye(prop.n_vars))


def small_params(**overrides):
    defaults = dict(
        bins=64,
        larmor_frequency=2 * np.pi * 5e3,
        pulse_duration=1e-3,
    )
    defaults.update(overrides)
    return tuned_params(1.0, **defaults)


class TestParams:
    def test_bin_resolution_enforced(self):
        with pytest.raises(ValueError, match="bins"):
            PhysicalParams(coupling_per_atom=1e-12, bins=10,
                           larmor_frequency=2 * np.pi * 322e3)
        with pytest.raises(ValueError, match="10 bins"):
            PhysicalParams(coupling_per_atom=1e-12, bins=5,
                           larmor_frequency=1.0)

    def test_coarse_bins_message_has_three_digits(self):
        with pytest.raises(ValueError, match=r"= 3\.22e\+301 cycles per bin"):
            PhysicalParams(coupling_per_atom=1e-12, larmor_frequency=2 * np.pi * 322e3,
                           pulse_duration=1e300)

    def test_negative_flux_rejected(self):
        with pytest.raises(ValueError, match="photon_flux"):
            PhysicalParams(coupling_per_atom=1e-12, photon_flux=-1.0)

    def test_demodulation_weights_unit_norm(self):
        w_cos, w_sin = _unit_weights(propagate_binned(small_params()))
        assert np.sum(w_cos**2) == pytest.approx(1.0, rel=1e-12)
        assert np.sum(w_sin**2) == pytest.approx(1.0, rel=1e-12)


def reference_grid(params):
    """The bin grid as a light field of bin times and per-bin amplitudes,
    the form the package once kept: the oracle of the grid's bytes."""
    dt = params.pulse_duration / params.bins
    times = (np.arange(params.bins) + 0.5) * dt
    amplitudes = np.full(times.shape, np.sqrt(params.photon_flux * dt))
    kappa = params.coupling_per_atom * np.sqrt(params.collective_spin) * amplitudes
    phase = params.larmor_frequency * times
    cos, sin = np.cos(phase), np.sin(phase)
    photons = float(np.sum(amplitudes**2))
    return {
        "kappa_cos": kappa * np.cos(phase),
        "kappa_sin": kappa * np.sin(phase),
        "w_cos": cos / np.linalg.norm(cos),
        "w_sin": sin / np.linalg.norm(sin),
        "coupling": params.coupling_per_atom * np.sqrt(
            0.5 * params.collective_spin * photons
        ),
    }


def seeded_grids(count=24):
    """The grid at the CLI's cap on bins, then random valid grids."""
    rng = np.random.default_rng(15)
    grids = [tuned_params(1.0, bins=MAX_TIME_BINS)]
    for _ in range(count):
        pulse_duration = 10 ** rng.uniform(-5, -1)
        cycles = 10 ** rng.uniform(-1, 3)  # precession cycles over the pulse
        fewest = max(10, int(cycles / 0.1) + 1)
        grids.append(tuned_params(
            10 ** rng.uniform(-2, 1),
            bins=int(rng.integers(fewest, min(MAX_TIME_BINS, 40 * fewest))),
            larmor_frequency=2 * np.pi * cycles / pulse_duration,
            pulse_duration=pulse_duration,
            collective_spin=10 ** rng.uniform(6, 14),
            photon_flux=10 ** rng.uniform(10, 18),
        ))
    return grids


def test_grid_matches_the_light_field_reference_bytes():
    mismatches = []
    for n, params in enumerate(seeded_grids()):
        prop = propagate_binned(params)
        w_cos, w_sin = _unit_weights(prop)
        got = {"kappa_cos": prop.kappa_cos, "kappa_sin": prop.kappa_sin,
               "w_cos": w_cos, "w_sin": w_sin,
               "coupling": theoretical_coupling(params)}
        for name, expected in reference_grid(params).items():
            if np.asarray(got[name]).tobytes() != np.asarray(expected).tobytes():
                mismatches.append((n, params.bins, name))
    assert not mismatches


class TestTheoreticalCoupling:
    def test_zero_coupling(self):
        params = PhysicalParams(coupling_per_atom=0.0)
        assert theoretical_coupling(params) == 0.0

    def test_flux_scaling_square_root(self):
        a = theoretical_coupling(small_params())
        doubled = small_params()
        from dataclasses import replace

        doubled = replace(doubled, photon_flux=2.0 * doubled.photon_flux)
        b = theoretical_coupling(doubled)
        assert b / a == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_tuned_params_hit_target(self):
        for target in (0.5, 1.0, 2.0):
            params = tuned_params(target, bins=256,
                                  larmor_frequency=2 * np.pi * 20e3)
            assert theoretical_coupling(params) == pytest.approx(
                target, rel=1e-12
            )


class TestPropagation:
    def test_zero_coupling_is_identity(self):
        from dataclasses import replace

        params = replace(small_params(), coupling_per_atom=0.0)
        prop = propagate_binned(params)
        assert_allclose(dense_matrix(prop), np.eye(prop.n_vars))

    def test_zero_spin_leaves_light_unchanged(self):
        from dataclasses import replace

        params = replace(small_params(), collective_spin=0.0)
        prop = propagate_binned(params)
        assert_allclose(dense_matrix(prop), np.eye(prop.n_vars))

    @pytest.mark.parametrize(
        "bins,frequency",
        [(16, 2 * np.pi * 1e3), (64, 2 * np.pi * 5e3), (257, 2 * np.pi * 20e3)],
    )
    def test_composite_map_is_symplectic(self, bins, frequency):
        params = small_params(bins=bins, larmor_frequency=frequency)
        prop = propagate_binned(params)
        smap = SymplecticMap(dense_matrix(prop))  # construction enforces the form
        omega = symplectic_form(prop.n_vars // 2)
        defect = np.abs(
            smap.matrix.T @ omega @ smap.matrix - omega
        ).max()
        assert defect < 1e-10

    def test_symplectic_identity_probabilistic_at_large_bins(self):
        # u^T Omega v is preserved by the map; checked without
        # materializing the dense matrix
        prop = propagate_binned(tuned_params(1.0, bins=10_000))
        rng = np.random.default_rng(8)
        u = rng.normal(size=(prop.n_vars, 4))
        v = rng.normal(size=(prop.n_vars, 4))
        mu = prop.apply_to(u.copy())
        mv = prop.apply_to(v.copy())

        def omega_dot(a, b):
            # sum_i (a_x b_p - a_p b_x) over modes in XP ordering
            ax, ap = a[0::2], a[1::2]
            bx, bp = b[0::2], b[1::2]
            return np.einsum("im,im->m", ax, bp) - np.einsum(
                "im,im->m", ap, bx
            )

        assert_allclose(omega_dot(mu, mv), omega_dot(u, v), rtol=1e-10)

    def test_two_cell_sums_and_light_p_conserved(self):
        prop = propagate_binned(small_params())
        m = dense_matrix(prop)
        base = 2 * prop.bins  # the atomic rows X_A, P_A, X_B, P_B follow the light
        pa, xb = base + 1, base + 2
        eye = np.eye(prop.n_vars)
        assert_allclose(m[pa], eye[pa], atol=1e-10)  # (J_z1 + J_z2) sum
        assert_allclose(m[xb], eye[xb], atol=1e-10)  # (J_y1 + J_y2) sum
        for i in range(prop.bins):  # every S3 sample unchanged
            assert_allclose(m[2 * i + 1], eye[2 * i + 1], atol=1e-10)

    def test_wrong_row_count_rejected(self):
        prop = propagate_binned(small_params())
        with pytest.raises(ValueError, match="rows"):
            prop.apply_to(np.zeros((3, 2)))


class TestDemodulation:
    def test_identity_map_has_zero_couplings(self):
        from dataclasses import replace

        params = replace(small_params(), coupling_per_atom=0.0)
        couplings = demodulate(propagate_binned(params))
        assert couplings.coupling == 0.0
        assert couplings.max_spurious < 1e-14

    def test_default_parameters_reduce_to_single_mode_form(self):
        params = tuned_params(1.0)  # defaults: 322 kHz, 1 ms, 1e4 bins
        couplings = demodulate(propagate_binned(params))
        k_theory = theoretical_coupling(params)
        assert abs(couplings.coupling - k_theory) / k_theory < 0.01
        assert couplings.max_spurious < 0.01 * couplings.coupling
        assert couplings.coupling_write == pytest.approx(
            couplings.coupling_read, rel=1e-6
        )

    def test_sine_pair_forms_parallel_memory(self):
        params = tuned_params(1.0)
        m = demodulate(propagate_binned(params)).matrix
        # the sine-mode pair stores with the same strength, up to the
        # unitarity sign convention on its readout
        assert m[ATOM_P2, SIN_P] == pytest.approx(1.0, abs=1e-3)
        assert abs(m[SIN_X, ATOM_X2]) == pytest.approx(1.0, abs=1e-3)

    def test_coupling_converges_in_bin_count(self):
        base = dict(larmor_frequency=2 * np.pi * 50e3, pulse_duration=1e-3)
        k1 = demodulate(
            propagate_binned(tuned_params(1.0, bins=2000, **base))
        ).coupling
        k2 = demodulate(
            propagate_binned(tuned_params(1.0, bins=4000, **base))
        ).coupling
        assert abs(k2 - k1) / k1 < 1e-3

    def test_leakage_scales_inversely_with_phase(self):
        sweep = omega_t_sweep(pinned_phase_omega_t(), bins=2048)
        logs = np.log(sweep["sine_leakage"])
        logw = np.log(sweep["omega_t"])
        slope = np.polyfit(logw, logs, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)
        # the effective coupling stays pinned to the target meanwhile
        assert np.all(np.abs(sweep["coupling_effective"] - 1.0) < 0.05)
