"""Protocol tests: storage, readout, verification, reverse retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from qmemsim import protocol
from qmemsim.decoherence import DecayParams
from qmemsim.gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    assert_physical,
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
    interaction_map,
    pi_half_pulse,
    readout_map,
    reconstruct_atomic_variance,
    reverse_readout,
    store_average,
    store_channel,
    store_conditional,
    store_update,
)
from test_decoherence import apply_decay


def initial_atoms(params):
    """Fresh atomic mode with the configured initial variances."""
    return single_mode(ATOMS, var_x=params.atom_var_x, var_p=params.atom_var_p)


def optimal_feedback_gain(coupling, atom_var_p):
    """Gain minimizing the stored P variance for coherent inputs."""
    k, v = coupling, atom_var_p
    return 2.0 * k * v / (1.0 + 2.0 * k**2 * v)


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

    def test_nan_fixed_outcome_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            store_conditional(
                coherent_state(1.0, 2.0), StorageParams(), fixed_outcome=float("nan")
            )

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
        joint = apply_symplectic(
            tensor(light, initial_atoms(params)), interaction_map(coupling)
        )
        marginal = np.array(
            [joint.quad_mean("light", "x"), joint.quad_var("light", "x")]
        )
        for _ in range(2):  # a miss, then a hit
            update = store_update(light, params)
            assert np.array([update.mu_q, update.var_q]).tobytes() == marginal.tobytes()
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


def fresh_interaction(coupling):
    """``interaction_map`` written out on its own, as an oracle of its bytes."""
    k = float(coupling)
    if not np.isfinite(k):
        raise ValueError("coupling must be finite")
    s = np.eye(4)
    s[0, 3] = s[2, 1] = k
    return SymplecticMap(s)


def reference_feedback(joint, measured_mode, targets):
    """Measure X of one mode, feed it back to the targets and average."""
    q = joint.quad_index(measured_mode, "x")
    lin = np.eye(joint.mean.size)
    for mode, quad, gain in targets:
        lin[joint.quad_index(mode, quad), q] += gain
    reduced = GaussianState(
        joint.mode_names, lin @ joint.mean, lin @ joint.cov @ lin.T, copy=False
    )
    measured = joint.mode_names[joint.mode_index(measured_mode)]
    return partial_trace(reduced, [n for n in joint.mode_names if n != measured])


def reference_average(input_light, params):
    """The literal averaged storage sequence, one state per step."""
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    joint = tensor(input_light, initial_atoms(params))
    joint = apply_symplectic(joint, fresh_interaction(params.coupling))
    return reference_feedback(
        joint, input_light.mode_names[0], [(ATOMS, "p", -params.gain)]
    )


def reference_readout(
    atomic_state, params, reverse_gain=1.0, aux_coupling=1.0, aux_light=None
):
    """The literal retrieval sequence, one state per step."""
    if atomic_state.n_modes != 1:
        raise ValueError("expected a single atomic mode")
    if aux_coupling <= 0:
        raise ValueError("auxiliary coupling must be positive")
    joint = tensor(vacuum_state(["readout"]), atomic_state)
    joint = apply_symplectic(joint, fresh_interaction(params.coupling))
    joint = apply_symplectic(joint, SymplecticMap.rotation(np.pi / 2).embed([1], 2))
    joint = tensor(joint, vacuum_state(["aux"]) if aux_light is None else aux_light)
    joint = apply_symplectic(joint, fresh_interaction(aux_coupling).embed([2, 1], 3))
    retrieved = reference_feedback(
        joint, "aux", [("readout", "p", reverse_gain / aux_coupling)]
    )
    retrieved = partial_trace(retrieved, ["readout"])
    return apply_symplectic(retrieved, SymplecticMap.rotation(np.pi))


def outcome_bytes(fn, *args, **kwargs):
    """A returned state's names and bytes, or the type and text of its error."""
    try:
        state = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return state.mode_names, state.mean.tobytes(), state.cov.tobytes()


def assert_same_outcome(fn, reference, *args, **kwargs):
    got = outcome_bytes(fn, *args, **kwargs)
    assert got == outcome_bytes(reference, *args, **kwargs)
    return got


def unit_product(var_x, excess):
    """The P variance that gives an uncertainty product of ``excess / 4``."""
    return excess * 0.25 / var_x


class TestAveragedCaches:
    """The cached halves of store_average and reverse_readout give the
    bytes of the literal pipeline, on a miss and on a hit."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["light", "in", "readout", "aux"]),
        means=st.lists(signed(-5.0, 5.0), min_size=4, max_size=4),
        var_x=st.floats(0.05, 5.0),
        excess=st.floats(1.0, 4.0),
        cov_xp=signed(-0.04, 0.04),
        coupling=signed(0.0, 2.0),
        gain=signed(-2.0, 2.0),
        atom_var_x=st.floats(0.05, 5.0),
        atom_excess=st.floats(1.0, 4.0),
    )
    def test_average_matches_reference(
        self, name, means, var_x, excess, cov_xp, coupling, gain, atom_var_x,
        atom_excess,
    ):
        params = StorageParams(
            coupling=coupling, gain=gain, atom_var_x=atom_var_x,
            atom_var_p=unit_product(atom_var_x, atom_excess),
        )
        var_p = unit_product(var_x, excess)
        for x, p in (means[:2], means[2:]):  # a miss, then a hit at another mean
            light = single_mode(name, x, p, var_x, var_p, cov_xp)
            assert_same_outcome(store_average, reference_average, light, params)

    @settings(max_examples=200, deadline=None)
    @given(
        atom_name=st.sampled_from([ATOMS, "mem", "light"]),
        means=st.lists(signed(-5.0, 5.0), min_size=4, max_size=4),
        var_x=st.floats(0.05, 5.0),
        excess=st.floats(1.0, 4.0),
        cov_xp=signed(-0.04, 0.04),
        coupling=signed(0.0, 2.0),
        reverse_gain=signed(-3.0, 3.0),
        aux_coupling=signed(0.05, 3.0),
        aux=st.none() | st.tuples(
            st.lists(signed(-2.0, 2.0), min_size=4, max_size=4),
            st.sampled_from([0.005, 0.5, 2.0]) | st.floats(0.005, 3.0),
            st.floats(1.0, 3.0),
            signed(-0.01, 0.01),
        ),
    )
    def test_readout_matches_reference(
        self, atom_name, means, var_x, excess, cov_xp, coupling, reverse_gain,
        aux_coupling, aux,
    ):
        params = StorageParams(coupling=coupling)
        var_p = unit_product(var_x, excess)
        for i in (0, 2):  # a miss, then a hit at other means
            atoms = single_mode(atom_name, means[i], means[i + 1], var_x, var_p, cov_xp)
            aux_light = None
            if aux is not None:  # displaced, and squeezed at small aux_x
                aux_means, aux_x, aux_excess, aux_xp = aux
                aux_light = single_mode(
                    "aux", aux_means[i], aux_means[i + 1], aux_x,
                    unit_product(aux_x, aux_excess), aux_xp,
                )
            assert_same_outcome(
                reverse_readout, reference_readout, atoms, params,
                reverse_gain=reverse_gain, aux_coupling=aux_coupling,
                aux_light=aux_light,
            )

    def test_errors_repeat_on_every_call(self):
        params = StorageParams()
        atoms = single_mode(ATOMS, 0.3, -0.2)
        for aux_light in (None, single_mode("aux")):  # cached inputs
            reverse_readout(atoms, params, aux_light=aux_light)
        store_average(coherent_state(0.3, -0.2), params)
        average = (store_average, reference_average)
        readout = (reverse_readout, reference_readout)
        cases = [
            (average, coherent_state(0.0, 0.0, mode=ATOMS), {}, "both sides"),
            (average, vacuum_state(["a", "b"]), {}, "single mode"),
            (readout, single_mode("readout"), {}, "both sides"),
            (readout, atoms, {"aux_light": single_mode(ATOMS)}, "both sides"),
            (readout, atoms, {"aux_light": single_mode("other")}, "unknown mode 'aux'"),
            (readout, vacuum_state([ATOMS, "b"]), {}, "single atomic mode"),
            (readout, atoms, {"aux_light": vacuum_state(["aux", "b"])}, "state has 4"),
            (readout, atoms, {"aux_coupling": 0.0}, "must be positive"),
            (readout, atoms, {"aux_coupling": -0.0}, "must be positive"),
            (readout, atoms, {"aux_coupling": -1.0}, "must be positive"),
        ]
        for fns, state, kwargs, message in cases:
            for _ in range(3):
                for fn in fns:
                    with pytest.raises(ValueError, match=message):
                        fn(state, params, **kwargs)
        assert_same_outcome(reverse_readout, reference_readout, atoms, params)

    def test_more_inputs_than_the_caches_hold(self):
        size = protocol._readout_steps.cache_info().maxsize
        assert protocol._average_steps.cache_info().maxsize == size
        params = StorageParams(coupling=0.9, gain=1.1)
        lights = [
            single_mode("light", 0.01 * i, -0.0, var_x=0.5 + 0.01 * i)
            for i in range(2 * size + 3)
        ]
        for _ in range(2):
            for i, light in enumerate(lights):
                _, mean, cov = assert_same_outcome(
                    store_average, reference_average, light, params
                )
                stored = GaussianState(
                    [ATOMS], np.frombuffer(mean), np.frombuffer(cov).reshape(2, 2)
                )
                assert_same_outcome(
                    reverse_readout, reference_readout, stored, params,
                    reverse_gain=0.1 * i - 3.0,
                )

    def test_signed_zeros_key_the_caches(self):
        protocol._average_steps.cache_clear()
        for x, coupling, gain in [
            (0.0, 0.0, 0.0),
            (-0.0, 0.0, 0.0),  # same entry: the input mean is not read
            (0.0, -0.0, 0.0),  # new entry: the coupling's bytes differ
            (0.0, 0.0, -0.0),  # new entry: the gain's bytes differ
            (5.0, -0.0, 0.0),
        ]:
            params = StorageParams(coupling=coupling, gain=gain)
            assert_same_outcome(
                store_average, reference_average, coherent_state(x, -0.0), params
            )
        info = protocol._average_steps.cache_info()
        assert (info.misses, info.hits) == (3, 2)

        protocol._readout_steps.cache_clear()
        for x, coupling, reverse_gain in [
            (0.0, 0.0, 0.0),
            (-0.0, 0.0, 0.0),  # same entry: the atomic mean is not read
            (0.0, -0.0, 0.0),  # new entry: the coupling's bytes differ
            (0.0, 0.0, -0.0),  # new entry: the feedback gain's bytes differ
            (2.0, 0.0, -0.0),
        ]:
            assert_same_outcome(
                reverse_readout, reference_readout, single_mode(ATOMS, x, -0.0),
                StorageParams(coupling=coupling), reverse_gain=reverse_gain,
            )
        info = protocol._readout_steps.cache_info()
        assert (info.misses, info.hits) == (3, 2)

        for k in (0.0, -0.0, 0.0):
            want = fresh_interaction(k).matrix.tobytes()
            assert interaction_map(k).matrix.tobytes() == want

    def test_results_share_only_the_read_only_covariance(self):
        params = StorageParams()
        calls = [
            lambda x: store_conditional(
                coherent_state(1.0, 2.0), params, fixed_outcome=x
            )[1],
            lambda x: store_average(coherent_state(x, 1.0), params),
            lambda x: reverse_readout(single_mode(ATOMS, x, 1.0, 0.7, 0.9), params),
        ]
        for call in calls:
            first, second = call(1.5), call(-2.5)
            assert first.cov is second.cov
            assert not np.shares_memory(first.mean, second.mean)
            for array in (first.mean, first.cov, second.mean, second.cov):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
        matrix = interaction_map(0.7).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0


class TestOverflowIsRefused:
    """A finite input whose mean overflows on the way raises ``ValueError``,
    as the literal pipeline does, on a miss and on a hit."""

    CASES = {
        "store_average": (
            store_average, reference_average,
            (single_mode("light", 1e308, -1e308), StorageParams(coupling=2.0)), {},
        ),
        "reverse_readout": (
            reverse_readout, reference_readout,
            (single_mode(ATOMS, 1e308, 1e308), StorageParams(coupling=2.0)), {},
        ),
        "store_conditional": (
            store_conditional, reference_store,
            (coherent_state(0.0, 0.0), StorageParams(gain=1e300)), {"fixed_outcome": 1e10},
        ),
    }

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered")
    @pytest.mark.parametrize("case", CASES)
    def test_overflow_raises(self, case):
        fn, reference, args, kwargs = self.CASES[case]
        for _ in range(2):  # a miss, then a hit
            for call in (fn, reference):
                with pytest.raises(ValueError, match="finite"):
                    call(*args, **kwargs)


class TestWorkCount:
    """Maps are built and covariances checked once per distinct input,
    not once per call: a count of both over a conditional-pipeline loop."""

    CACHES = ("_store_conditioning", "_average_steps", "_readout_steps")

    def test_pipeline_loop_builds_and_checks_a_fixed_amount(self, monkeypatch):
        light = coherent_state(1.2, -0.7)
        params = StorageParams(coupling=0.95, gain=1.05)
        unit = StorageParams()
        inputs = [
            coherent_state(x, p)
            for x, p in np.random.default_rng(1).uniform(-3.0, 3.0, size=(200, 2))
        ]
        for name in self.CACHES:
            getattr(protocol, name).cache_clear()
        counts = {"maps": 0, "states": 0}

        def counting(key, original):
            def counted(self, *args, **kwargs):
                counts[key] += 1
                return original(self, *args, **kwargs)
            return counted

        # every SymplecticMap is checked in __post_init__, and every
        # covariance check of a GaussianState runs in __init__
        monkeypatch.setattr(
            SymplecticMap, "__post_init__", counting("maps", SymplecticMap.__post_init__)
        )
        monkeypatch.setattr(
            GaussianState, "__init__", counting("states", GaussianState.__init__)
        )

        def loop():
            rng = np.random.default_rng(0)
            for _ in range(1000):
                store_conditional(light, params, rng=rng)
            for stored in inputs:
                reverse_readout(store_average(stored, unit), unit)

        loop()
        cold = dict(counts)
        assert cold["maps"] <= 8
        assert cold["states"] <= 32
        loop()
        assert counts == cold  # a warm loop builds no map and checks no covariance


class TestPhysicalOutputs:
    """Storage, decay and retrieval keep every state physical."""

    @settings(max_examples=300, deadline=None)
    @given(
        x=signed(-5.0, 5.0),
        p=signed(-5.0, 5.0),
        light_var_x=st.floats(0.05, 5.0),
        light_excess=st.floats(1.0, 4.0),
        coupling=signed(0.0, 3.0),
        gain=signed(-3.0, 3.0),
        readout_coupling=st.floats(0.05, 3.0),
        atom_var_x=st.floats(0.05, 5.0),
        atom_excess=st.floats(1.0, 4.0),
        t=st.floats(0.0, 0.05),
        tau=st.floats(1e-5, 1.0),
        excess_noise_rate=st.floats(0.0, 2.0),
        reverse_gain=signed(-3.0, 3.0),
        aux_coupling=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outputs_pass_assert_physical(
        self, x, p, light_var_x, light_excess, coupling, gain, readout_coupling,
        atom_var_x, atom_excess, t, tau, excess_noise_rate, reverse_gain,
        aux_coupling, seed,
    ):
        # variance products of at least 1/4: a physical input and memory
        light_var_p = light_excess * 0.25 / light_var_x
        light = single_mode("light", x, p, light_var_x, light_var_p)
        params = StorageParams(
            coupling=coupling, gain=gain, readout_coupling=readout_coupling,
            atom_var_x=atom_var_x, atom_var_p=atom_excess * 0.25 / atom_var_x,
        )
        decay = DecayParams(tau, excess_noise_rate)
        rng = np.random.default_rng(seed)
        _, conditional = store_conditional(light, params, rng=rng)
        for stored in (conditional, store_average(light, params)):
            decayed = apply_decay(stored, t, decay)
            for state in (stored, decayed, reverse_readout(
                decayed, params, reverse_gain=reverse_gain, aux_coupling=aux_coupling
            )):
                assert_physical(state)


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
        # the sequence up to the aux measurement does not depend on an outcome
        joint = tensor(vacuum_state(["readout"]), vacuum_state([ATOMS]))
        joint = apply_symplectic(joint, interaction_map(params.coupling))
        joint = apply_symplectic(joint, quarter)
        joint = tensor(joint, vacuum_state(["aux"]))
        joint = apply_symplectic(joint, aux_step)
        half_turn = SymplecticMap.rotation(np.pi)
        for i in range(n):
            y, cond = homodyne_measure(joint, "aux", "x", rng=rng)
            cond = displace(cond, "readout", 0.0, params.gain * y)
            light_out = partial_trace(cond, ["readout"])
            light_out = apply_symplectic(light_out, half_turn)
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
