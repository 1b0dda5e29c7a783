"""Protocol tests: storage, readout, verification, reverse retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from qmemsim import protocol
from qmemsim.gaussian import (
    apply_symplectic,
    coherent_state,
    displace,
    homodyne_measure,
    partial_trace,
    single_mode,
    symplectic_form,
    tensor,
    vacuum_state,
)
from qmemsim.protocol import (
    ATOMS,
    VERIFY,
    ChannelSummary,
    StorageParams,
    initial_atoms,
    interaction_map,
    optimal_feedback_gain,
    pi_half_pulse,
    readout_map,
    reconstruct_atomic_variance,
    reverse_readout,
    store_average,
    store_channel,
    store_conditional,
)


class TestStorageParams:
    def test_defaults_are_css(self):
        p = StorageParams()
        assert p.atom_var_x == p.atom_var_p == 0.5

    def test_uncertainty_product_enforced(self):
        with pytest.raises(ValueError, match="uncertainty"):
            StorageParams(atom_var_x=0.1, atom_var_p=0.1)
        StorageParams(atom_var_x=0.005, atom_var_p=50.0)  # fine

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            StorageParams(coupling=-1.0)

    def test_channel_variances_positive(self):
        with pytest.raises(ValueError):
            ChannelSummary(1.0, 1.0, 0.0, 0.5)


class TestInteractionMap:
    def test_zero_coupling_is_identity(self):
        assert_allclose(interaction_map(0.0).matrix, np.eye(4))

    def test_mean_map_on_displaced_input(self):
        joint = tensor(coherent_state(0.0, -4.0), vacuum_state([ATOMS]))
        out = apply_symplectic(joint, interaction_map(1.0))
        assert_allclose(out.mean, [0.0, -4.0, -4.0, 0.0])

    def test_light_variance_gives_back_coupling(self):
        # k^2 = 2 var(X_out) - 1 for vacuum in, CSS atoms
        for k in (0.5, 1.0, 1.7):
            joint = tensor(vacuum_state(["light"]), vacuum_state([ATOMS]))
            out = apply_symplectic(joint, interaction_map(k))
            var_out = out.quad_var("light", "x")
            assert 2.0 * var_out - 1.0 == pytest.approx(k**2, rel=1e-12)

    def test_symplectic_for_any_coupling(self):
        omega = symplectic_form(2)
        for k in (-2.0, 0.3, 5.0):
            s = interaction_map(k).matrix
            assert_allclose(s.T @ omega @ s, omega, atol=1e-14)


class TestStoreConditional:
    def test_symmetric_case_zero_outcome(self):
        outcome, atoms = store_conditional(
            coherent_state(0, 0), StorageParams(), fixed_outcome=0.0
        )
        assert outcome == 0.0
        assert_allclose(atoms.mean, [0.0, 0.0])

    def test_averaged_mean_maps_x_onto_minus_p(self):
        avg = store_average(coherent_state(2.0, 0.0), StorageParams())
        assert avg.quad_mean(ATOMS, "p") == pytest.approx(-2.0)
        assert avg.quad_mean(ATOMS, "x") == pytest.approx(0.0)

    def test_averaged_moments_match_heisenberg_algebra(self):
        # P_mem = (1 - kg) P_a - g X_l, X_mem = X_a + k P_l
        params = StorageParams(coupling=0.8, gain=1.1)
        k, g = params.coupling, params.gain
        for x_in, p_in in ((1.0, 0.5), (-2.0, 3.0)):
            avg = store_average(coherent_state(x_in, p_in), params)
            assert avg.quad_mean(ATOMS, "p") == pytest.approx(-g * x_in)
            assert avg.quad_mean(ATOMS, "x") == pytest.approx(k * p_in)
            assert avg.quad_var(ATOMS, "p") == pytest.approx(
                (1 - k * g) ** 2 * 0.5 + g**2 * 0.5
            )
            assert avg.quad_var(ATOMS, "x") == pytest.approx(0.5 + k**2 * 0.5)

    def test_css_variances_at_unit_gain(self):
        avg = store_average(coherent_state(0.7, -0.3), StorageParams())
        assert avg.quad_var(ATOMS, "p") == pytest.approx(0.5)
        assert avg.quad_var(ATOMS, "x") == pytest.approx(1.0)

    def test_ensemble_average_theorem(self):
        # sampled conditional runs reproduce the averaged channel within
        # four standard errors (mean and covariance), 1e5 outcomes
        params = StorageParams(coupling=1.0, gain=0.8)
        light = coherent_state(1.0, -2.0)
        rng = np.random.default_rng(42)
        n = 100_000
        means = np.empty((n, 2))
        cond_cov = None
        for i in range(n):
            _, atoms = store_conditional(light, params, rng=rng)
            means[i] = atoms.mean
            cond_cov = atoms.cov
        avg = store_average(light, params)
        se_mean = np.sqrt(np.diag(avg.cov) / n)
        assert_allclose(means.mean(axis=0), avg.mean, atol=4 * se_mean.max())
        total_cov = np.cov(means.T) + cond_cov
        se_var = np.diag(avg.cov) * np.sqrt(2.0 / (n - 1))
        assert np.all(
            np.abs(np.diag(total_cov) - np.diag(avg.cov)) < 4 * se_var
        )


def reference_store(input_light, params, rng=None, fixed_outcome=None):
    """The literal storage sequence, one state per step, for comparison."""
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    light_name = input_light.mode_names[0]
    joint = tensor(input_light, initial_atoms(params))
    joint = apply_symplectic(joint, interaction_map(params.coupling))
    outcome, atoms = homodyne_measure(
        joint, light_name, "x", rng=rng, fixed_outcome=fixed_outcome
    )
    atoms = displace(atoms, ATOMS, 0.0, -params.gain * outcome)
    return outcome, atoms


def assert_same_bytes(got, want):
    (outcome, atoms), (ref_outcome, ref_atoms) = got, want
    assert np.float64(outcome).tobytes() == np.float64(ref_outcome).tobytes()
    assert atoms.mode_names == ref_atoms.mode_names
    assert atoms.mean.tobytes() == ref_atoms.mean.tobytes()
    assert atoms.cov.tobytes() == ref_atoms.cov.tobytes()


def signed(low, high):
    """Finite floats in [low, high], with both signed zeros drawn often."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(low, high))


class TestStoreConditionalCache:
    """The cached conditioning gives the bytes of the literal pipeline."""

    @settings(max_examples=200, deadline=None)
    @given(
        x=signed(-5.0, 5.0),
        p=signed(-5.0, 5.0),
        var_x=st.floats(0.05, 5.0),
        var_p=st.floats(0.05, 5.0),
        cov_xp=signed(-0.04, 0.04),
        coupling=signed(0.0, 2.0),
        gain=signed(-2.0, 2.0),
        atom_var_x=st.floats(0.05, 5.0),
        excess=st.floats(1.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
        fixed=signed(-10.0, 10.0),
    )
    def test_matches_reference_pipeline(
        self, x, p, var_x, var_p, cov_xp, coupling, gain, atom_var_x, excess,
        seed, fixed,
    ):
        light = single_mode("light", x, p, var_x, var_p, cov_xp)
        params = StorageParams(
            coupling=coupling, gain=gain, atom_var_x=atom_var_x,
            atom_var_p=excess * 0.25 / atom_var_x,
        )
        for _ in range(2):  # a miss, then a hit
            assert_same_bytes(
                store_conditional(light, params, rng=np.random.default_rng(seed)),
                reference_store(light, params, rng=np.random.default_rng(seed)),
            )
            assert_same_bytes(
                store_conditional(light, params, fixed_outcome=fixed),
                reference_store(light, params, fixed_outcome=fixed),
            )

    def test_more_inputs_than_the_cache_holds(self):
        size = protocol._store_conditioning.cache_info().maxsize
        inputs = [coherent_state(0.01 * i, -0.0) for i in range(2 * size + 3)]
        params = StorageParams(coupling=0.9, gain=1.1)
        for _ in range(2):
            for i, light in enumerate(inputs):
                assert_same_bytes(
                    store_conditional(light, params, fixed_outcome=0.1 * i),
                    reference_store(light, params, fixed_outcome=0.1 * i),
                )

    def test_signed_zeros_and_gains_key_the_cache(self):
        protocol._store_conditioning.cache_clear()
        for x, coupling, gain in [
            (0.0, 0.0, 1.0),
            (-0.0, 0.0, 1.0),  # new entry: the light mean's bytes differ
            (0.0, -0.0, 1.0),  # new entry: the coupling's bytes differ
            (0.0, 0.0, 0.5),  # same entry: the gain is not read
            (-0.0, 0.0, -2.0),
        ]:
            params = StorageParams(coupling=coupling, gain=gain)
            store_conditional(coherent_state(x, 1.0), params, fixed_outcome=0.3)
        info = protocol._store_conditioning.cache_info()
        assert (info.misses, info.hits) == (3, 2)

    def test_errors_repeat_on_every_call(self):
        params = StorageParams()
        light = coherent_state(0.3, -0.2)
        store_conditional(light, params, fixed_outcome=0.0)  # cached input
        flat = single_mode("light", var_x=0.0, var_p=1.0)
        no_coupling = StorageParams(coupling=0.0)
        cases = [
            (coherent_state(0.0, 0.0, mode=ATOMS), params, "both sides"),
            (vacuum_state(["a", "b"]), params, "single mode"),
            (light, params, "provide rng"),
            (flat, no_coupling, "zero-variance"),
        ]
        for bad_light, bad_params, message in cases:
            for _ in range(3):
                with pytest.raises(ValueError, match=message):
                    store_conditional(bad_light, bad_params)
                with pytest.raises(ValueError, match=message):
                    reference_store(bad_light, bad_params)
        assert_same_bytes(
            store_conditional(flat, no_coupling, fixed_outcome=0.4),
            reference_store(flat, no_coupling, fixed_outcome=0.4),
        )

    def test_returned_arrays_are_read_only(self):
        light = coherent_state(1.0, 2.0)
        rng = np.random.default_rng(3)
        _, first = store_conditional(light, StorageParams(), rng=rng)
        _, second = store_conditional(light, StorageParams(), rng=rng)
        for array in (first.mean, first.cov, second.mean, second.cov):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert first.mean.tobytes() != second.mean.tobytes()


class TestStoreChannel:
    def test_unit_gain_css(self):
        ch = store_channel(StorageParams())
        assert (ch.gain_x, ch.gain_p) == (1.0, 1.0)
        assert (ch.var_x, ch.var_p) == (1.0, 0.5)

    def test_no_feedback(self):
        ch = store_channel(StorageParams(gain=0.0))
        assert ch.gain_p == 0.0
        assert ch.var_p == 0.5  # initial atomic variance survives

    def test_squeezed_ancilla_limit(self):
        for vx in (0.1, 0.01, 0.001):
            p = StorageParams(atom_var_x=vx, atom_var_p=0.25 / vx)
            ch = store_channel(p)
            assert ch.var_x == pytest.approx(0.5 + vx)
            assert ch.var_p == 0.5

    def test_matches_averaged_state(self):
        params = StorageParams(coupling=1.3, gain=0.7, atom_var_x=0.8,
                               atom_var_p=0.9)
        ch = store_channel(params)
        avg = store_average(coherent_state(1.0, 1.0), params)
        assert avg.quad_var(ATOMS, "x") == pytest.approx(ch.var_x)
        assert avg.quad_var(ATOMS, "p") == pytest.approx(ch.var_p)

    def test_gain_minimizing_stored_p_variance(self):
        for k, vp in ((1.0, 0.5), (0.7, 1.2), (1.5, 0.25)):
            stored_p_var = lambda g: (1 - k * g) ** 2 * vp + g**2 * 0.5
            res = minimize_scalar(stored_p_var, bounds=(0, 3), method="bounded",
                                  options={"xatol": 1e-12})
            assert optimal_feedback_gain(k, vp) == pytest.approx(
                res.x, abs=1e-9
            )

    def test_var_x_strictly_increasing_in_coupling(self):
        couplings = np.linspace(0.0, 3.0, 10)
        vxs = [store_channel(StorageParams(coupling=k)).var_x
               for k in couplings]
        assert np.all(np.diff(vxs) > 0)

    def test_var_p_independent_of_initial_p_at_unit_product(self):
        values = [
            store_channel(
                StorageParams(atom_var_x=0.5, atom_var_p=vp)
            ).var_p
            for vp in (0.5, 5.0, 50.0)
        ]
        assert_allclose(values, 0.5)


class TestReadout:
    def test_mean_readout_of_stored_p(self):
        atoms = single_mode(ATOMS, x=0.0, p=-4.0)
        joint = readout_map(atoms, 1.0)
        assert joint.quad_mean(VERIFY, "x") == pytest.approx(-4.0)

    def test_zero_coupling_light_unchanged(self):
        atoms = single_mode(ATOMS, x=1.0, p=2.0, var_x=3.0, var_p=1.0)
        joint = readout_map(atoms, 0.0)
        light = partial_trace(joint, [VERIFY])
        assert_allclose(light.mean, [0, 0])
        assert_allclose(light.cov, 0.5 * np.eye(2))

    def test_variance_additivity(self):
        for k_r, var_p in ((1.0, 0.5), (0.8, 1.7)):
            atoms = single_mode(ATOMS, var_x=2.0, var_p=var_p)
            joint = readout_map(atoms, k_r)
            assert joint.quad_var(VERIFY, "x") == pytest.approx(
                0.5 + k_r**2 * var_p
            )


class TestPiHalf:
    def test_mean_rotation(self):
        atoms = single_mode(ATOMS, x=3.0, p=0.0)
        assert_allclose(pi_half_pulse(atoms).mean, [0.0, -3.0], atol=1e-15)

    def test_twice_is_parity(self):
        atoms = single_mode(ATOMS, x=1.0, p=2.0)
        out = pi_half_pulse(pi_half_pulse(atoms))
        assert_allclose(out.mean, [-1.0, -2.0], atol=1e-15)

    def test_readout_after_rotation_sees_former_x(self):
        atoms = single_mode(ATOMS, x=0.5, p=0.0, var_x=1.4, var_p=0.6)
        joint = readout_map(pi_half_pulse(atoms), 1.0)
        # rotated P carries -X, so the readout mean flips sign
        assert joint.quad_mean(VERIFY, "x") == pytest.approx(-0.5)
        assert joint.quad_var(VERIFY, "x") == pytest.approx(0.5 + 1.4)


class TestReconstruction:
    def test_css_round_trip(self):
        assert reconstruct_atomic_variance(1.0, 1.0) == pytest.approx(0.5)

    def test_noiseless_memory_limit(self):
        for k_r in (0.5, 1.0, 2.0):
            assert reconstruct_atomic_variance(0.5, k_r) == 0.0

    def test_round_trip_through_channel(self):
        for params in (
            StorageParams(),
            StorageParams(coupling=0.8, gain=0.84, readout_coupling=0.9),
        ):
            ch = store_channel(params)
            atoms = single_mode(ATOMS, var_x=ch.var_x, var_p=ch.var_p)
            joint = readout_map(atoms, params.readout_coupling)
            recovered = reconstruct_atomic_variance(
                joint.quad_var(VERIFY, "x"), params.readout_coupling
            )
            assert recovered == pytest.approx(ch.var_p, abs=1e-12)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_atomic_variance(1.0, 0.0)

    def test_negative_value_reported_with_warning(self):
        with pytest.warns(UserWarning, match="negative"):
            value = reconstruct_atomic_variance(0.4, 1.0)
        assert value == pytest.approx(-0.1)


class TestReverseReadout:
    def test_round_trip_preserves_means(self):
        params = StorageParams(atom_var_x=0.005, atom_var_p=50.0)
        squeezed_aux = single_mode("aux", var_x=0.005, var_p=50.0)
        for x_in, p_in in ((2.0, -1.0), (0.0, -4.0)):
            stored = store_average(coherent_state(x_in, p_in), params)
            light = reverse_readout(stored, params, aux_light=squeezed_aux)
            assert light.quad_mean("readout", "x") == pytest.approx(x_in)
            assert light.quad_mean("readout", "p") == pytest.approx(p_in)

    def test_zero_reverse_gain_leaves_p_mean(self):
        atoms = single_mode(ATOMS, x=1.0, p=0.5)
        out = reverse_readout(atoms, StorageParams(), reverse_gain=0.0)
        # without feedback the outgoing P mean is just the (rotated)
        # readout vacuum: zero
        assert out.quad_mean("readout", "p") == pytest.approx(0.0)

    def test_css_output_variances(self):
        # exact chain: X carries the stored P plus shot noise (1/2 + 1/2);
        # P keeps (1-kg)^2 of its own noise plus the stored X and the
        # auxiliary readout noise (0 + 1/2 + 1/2 at unit couplings)
        out = reverse_readout(vacuum_state([ATOMS]), StorageParams())
        assert out.quad_var("readout", "x") == pytest.approx(1.0)
        assert out.quad_var("readout", "p") == pytest.approx(1.0)

    def test_css_output_variances_monte_carlo(self):
        # independent oracle: sample the literal conditional sequence
        from qmemsim.gaussian import SymplecticMap, displace

        rng = np.random.default_rng(13)
        params = StorageParams()
        n = 40_000
        means = np.empty((n, 2))
        cond_cov = None
        quarter = SymplecticMap.rotation(np.pi / 2).embed([1], 2)
        aux_step = interaction_map(1.0).embed([2, 1], 3)
        for i in range(n):
            joint = tensor(vacuum_state(["readout"]), vacuum_state([ATOMS]))
            joint = apply_symplectic(joint, interaction_map(params.coupling))
            joint = apply_symplectic(joint, quarter)
            joint = tensor(joint, vacuum_state(["aux"]))
            joint = apply_symplectic(joint, aux_step)
            y, cond = homodyne_measure(joint, "aux", "x", rng=rng)
            cond = displace(cond, "readout", 0.0, params.gain * y)
            light_out = partial_trace(cond, ["readout"])
            light_out = apply_symplectic(
                light_out, SymplecticMap.rotation(np.pi)
            )
            means[i] = light_out.mean
            cond_cov = light_out.cov
        total = np.cov(means.T) + cond_cov
        se = np.sqrt(2.0 / (n - 1))
        assert abs(total[0, 0] - 1.0) < 4 * se * 1.0
        assert abs(total[1, 1] - 1.0) < 4 * se * 1.0

    def test_initial_atoms_has_requested_moments(self):
        p = StorageParams(atom_var_x=0.3, atom_var_p=2.0)
        atoms = initial_atoms(p)
        assert atoms.quad_var(ATOMS, "x") == 0.3
        assert atoms.quad_var(ATOMS, "p") == 2.0
