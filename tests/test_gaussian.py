"""Gaussian-core unit tests: constructors, maps, measurement conditioning."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

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
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum_state,
)


def mean_photon_number(state, mode):
    """Mean of ``(X^2 + P^2 - 1) / 2`` in the given mode."""
    ix, ip = state.quad_indices(mode)
    mx, mp = state.mean[ix], state.mean[ip]
    vx = state.quad_var(mode, "x")
    vp = state.quad_var(mode, "p")
    return 0.5 * (mx**2 + mp**2 + vx + vp - 1.0)


def random_symplectic(rng, n_modes):
    h = rng.normal(size=(2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T)
    return SymplecticMap(expm(symplectic_form(n_modes) @ h))


def random_physical_state(rng, n_modes, mixed=True):
    nus = np.full(n_modes, 0.5)
    if mixed:
        nus = nus + rng.uniform(0.0, 1.0, n_modes)
    diag = np.repeat(nus, 2)
    s = random_symplectic(rng, n_modes).matrix
    cov = s @ np.diag(diag) @ s.T
    cov = 0.5 * (cov + cov.T)
    mean = rng.normal(size=2 * n_modes)
    return GaussianState([f"m{i}" for i in range(n_modes)], mean, cov)


class TestConstructors:
    def test_vacuum_single_mode(self):
        state = vacuum_state(["light"])
        assert_allclose(state.mean, [0.0, 0.0])
        assert_allclose(state.cov, 0.5 * np.eye(2))

    def test_vacuum_two_modes(self):
        state = vacuum_state(["a", "b"])
        assert state.mean.shape == (4,)
        assert_allclose(state.mean, 0.0)
        assert_allclose(state.cov, 0.5 * np.eye(4))

    def test_vacuum_empty_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state([])

    def test_duplicate_mode_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            vacuum_state(["a", "a"])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(["a"], [0, 0], cov)

    def test_states_are_immutable(self):
        state = vacuum_state(["a"])
        with pytest.raises(AttributeError):
            state.mean = np.zeros(2)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 9.0


class TestPhotonNumber:
    def test_vacuum_is_empty(self):
        assert mean_photon_number(vacuum_state(["a"]), "a") == pytest.approx(0.0)

    def test_paper_example_eight_photons(self):
        state = coherent_state(0.0, -4.0)
        assert mean_photon_number(state, "light") == pytest.approx(8.0)

    def test_three_four_displacement(self):
        assert mean_photon_number(coherent_state(3.0, 4.0), "light") == pytest.approx(12.5)

    def test_thermal_like_half_photon(self):
        state = single_mode("a", var_x=1.0, var_p=1.0)
        assert mean_photon_number(state, "a") == pytest.approx(0.5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            mean_photon_number(vacuum_state(["a"]), "b")


#: inputs that once gave a state or map holding NaN or infinity
NON_FINITE = {
    "nan-covariance": lambda: GaussianState(["a"], [0, 0], [[np.nan, 1], [5, np.nan]]),
    "infinite-mean": lambda: GaussianState(["a"], [np.inf, 0], 0.5 * np.eye(2)),
    "nan-map": lambda: SymplecticMap(np.full((2, 2), np.nan)),
    "infinite-map-entry": lambda: SymplecticMap(np.array([[1.0, np.inf], [0.0, 1.0]])),
    "nan-coherent-state": lambda: coherent_state(np.nan, 0),
    "nan-variance": lambda: single_mode("a", var_x=np.nan),
    "nan-shift": lambda: displace(coherent_state(1.0, 2.0), "light", np.nan, 0),
    "infinite-shift": lambda: displace(coherent_state(1.0, 2.0), "light", 0, -np.inf),
    "nan-fixed-outcome": lambda: homodyne_measure(
        vacuum_state(["a", "b"]), "a", fixed_outcome=np.nan
    ),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_rejected(case):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE[case]()


class TestSymplecticMap:
    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(1)
        state = random_physical_state(rng, 2)
        out = apply_symplectic(state, SymplecticMap(np.eye(4)))
        assert_allclose(out.mean, state.mean)
        assert_allclose(out.cov, state.cov)

    def test_quarter_rotation_convention(self):
        # X -> P, P -> -X on the mean: (a, b) -> (b, -a)
        state = single_mode("a", x=3.0, p=0.0)
        out = apply_symplectic(state, SymplecticMap.rotation(np.pi / 2))
        assert_allclose(out.mean, [0.0, -3.0], atol=1e-15)
        state2 = single_mode("a", x=1.5, p=-2.5)
        out2 = apply_symplectic(state2, SymplecticMap.rotation(np.pi / 2))
        assert_allclose(out2.mean, [-2.5, -1.5], atol=1e-15)

    def test_shear_reproduces_interaction_mean_map(self):
        # hand-built matrix on (X_l, P_l, X_a, P_a) for coupling 0.7
        k = 0.7
        s = np.array(
            [
                [1, 0, 0, k],
                [0, 1, 0, 0],
                [0, k, 1, 0],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        state = GaussianState(
            ["l", "a"], [0.3, -1.2, 2.0, 0.5], 0.5 * np.eye(4)
        )
        out = apply_symplectic(state, SymplecticMap(s))
        assert_allclose(out.mean, s @ state.mean)
        assert_allclose(out.cov, s @ state.cov @ s.T)

    def test_negative_zero_mean_becomes_positive_zero(self):
        state = single_mode("a", x=-0.0, p=-0.0)
        out = apply_symplectic(state, SymplecticMap(np.eye(2)))
        assert np.all(np.signbit(state.mean))
        assert not np.any(np.signbit(out.mean))

    def test_non_symplectic_matrix_rejected(self):
        bad = np.eye(2)
        bad[0, 0] = 2.0  # squeeze without the conjugate stretch
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticMap(bad)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            apply_symplectic(vacuum_state(["a"]), SymplecticMap(np.eye(4)))

    def test_embed_acts_on_selected_modes(self):
        rng = np.random.default_rng(2)
        small = random_symplectic(rng, 1)
        big = small.embed([1], 3)
        state = random_physical_state(rng, 3)
        out = apply_symplectic(state, big)
        # mode 1 transformed, modes 0 and 2 untouched
        kept = partial_trace(out, ["m0", "m2"])
        orig = partial_trace(state, ["m0", "m2"])
        assert_allclose(kept.cov, orig.cov, atol=1e-12)
        assert_allclose(kept.mean, orig.mean, atol=1e-12)


class TestDisplace:
    def test_displaced_vacuum_is_coherent(self):
        out = displace(vacuum_state(["light"]), "light", 0.0, -4.0)
        ref = coherent_state(0.0, -4.0)
        assert_allclose(out.mean, ref.mean)
        assert_allclose(out.cov, ref.cov)

    def test_displacements_add(self):
        state = vacuum_state(["a"])
        one = displace(displace(state, "a", 1.0, -2.0), "a", 0.25, 0.5)
        two = displace(state, "a", 1.25, -1.5)
        assert_allclose(one.mean, two.mean)

    def test_covariance_bit_identical(self):
        rng = np.random.default_rng(3)
        state = random_physical_state(rng, 2)
        out = displace(state, "m0", 0.7, -0.1)
        assert np.array_equal(out.cov, state.cov)

    def test_commutes_with_partial_trace_on_disjoint_modes(self):
        rng = np.random.default_rng(4)
        state = random_physical_state(rng, 3)
        a = partial_trace(displace(state, "m1", 0.3, 0.4), ["m1", "m2"])
        b = displace(partial_trace(state, ["m1", "m2"]), "m1", 0.3, 0.4)
        assert_allclose(a.mean, b.mean)
        assert_allclose(a.cov, b.cov)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        state = random_physical_state(rng, 2)
        out = partial_trace(state, ["m0", "m1"])
        assert_allclose(out.mean, state.mean)
        assert_allclose(out.cov, state.cov)

    def test_uncorrelated_vacuum_reduces_to_vacuum(self):
        out = partial_trace(vacuum_state(["a", "b"]), ["b"])
        assert_allclose(out.mean, [0, 0])
        assert_allclose(out.cov, 0.5 * np.eye(2))

    def test_interaction_output_atomic_block(self):
        # after the shear with coupling k on vacuum x CSS, the atomic
        # covariance restricts to diag(1/2 + k^2/2, 1/2)
        k = 1.3
        s = np.eye(4)
        s[0, 3] = k
        s[2, 1] = k
        joint = apply_symplectic(vacuum_state(["l", "a"]), SymplecticMap(s))
        atoms = partial_trace(joint, ["a"])
        assert_allclose(
            atoms.cov, np.diag([0.5 + k**2 / 2, 0.5]), atol=1e-14
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            partial_trace(vacuum_state(["a"]), ["z"])

    def test_tensor_rejects_name_collision(self):
        with pytest.raises(ValueError, match="both sides"):
            tensor(vacuum_state(["a"]), vacuum_state(["a"]))


class TestHomodyne:
    def test_uncorrelated_mode_unchanged(self):
        rng = np.random.default_rng(6)
        state = vacuum_state(["a", "b"])
        _, cond = homodyne_measure(state, "a", "x", rng=rng)
        assert cond.mode_names == ("b",)
        assert_allclose(cond.cov, 0.5 * np.eye(2))
        assert_allclose(cond.mean, [0, 0])

    def test_vacuum_outcome_distribution(self):
        rng = np.random.default_rng(7)
        outcomes = np.array(
            [
                homodyne_measure(vacuum_state(["a", "b"]), "a", "x", rng=rng)[0]
                for _ in range(20_000)
            ]
        )
        assert abs(outcomes.mean()) < 4 * np.sqrt(0.5 / outcomes.size)
        se_var = 0.5 * np.sqrt(2.0 / (outcomes.size - 1))
        assert abs(outcomes.var(ddof=1) - 0.5) < 4 * se_var

    def test_conditional_variance_after_interaction(self):
        # cov of (X_l, P_a) after unit-coupling interaction on vacuum x CSS
        # is [[1, 1/2], [1/2, 1/2]]; conditioning on X_l leaves P_a at 1/4.
        s = np.eye(4)
        s[0, 3] = 1.0
        s[2, 1] = 1.0
        joint = apply_symplectic(vacuum_state(["l", "a"]), SymplecticMap(s))
        _, cond = homodyne_measure(joint, "l", "x", fixed_outcome=0.2)
        assert cond.quad_var("a", "p") == pytest.approx(0.25, abs=1e-14)

        # Monte Carlo cross-check: regression residual of 1e6 joint samples
        rng = np.random.default_rng(8)
        cov = np.array([[1.0, 0.5], [0.5, 0.5]])
        samples = rng.multivariate_normal([0, 0], cov, size=1_000_000)
        beta = cov[0, 1] / cov[0, 0]
        residual = samples[:, 1] - beta * samples[:, 0]
        assert residual.var(ddof=1) == pytest.approx(0.25, rel=0.01)

    def test_total_covariance_law(self):
        # Cov_outcomes(conditional mean) + conditional cov = marginal cov
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = random_physical_state(rng, 3)
            q = state.quad_index("m1", "x")
            rest = [i for i in range(6) if i not in (2, 3)]
            sigma_rq = state.cov[rest, q]
            var_q = state.cov[q, q]
            _, cond = homodyne_measure(state, "m1", "x", fixed_outcome=0.0)
            mean_spread = np.outer(sigma_rq, sigma_rq) / var_q
            total = cond.cov + mean_spread
            assert_allclose(
                total, state.cov[np.ix_(rest, rest)], atol=1e-10
            )
            # conditional mean at the marginal mean reproduces mu_r
            _, cond0 = homodyne_measure(
                state, "m1", "x", fixed_outcome=state.mean[q]
            )
            assert_allclose(cond0.mean, state.mean[rest], atol=1e-12)

    def test_zero_variance_requires_fixed_outcome(self):
        squeezed = single_mode("s", var_x=0.0, var_p=1e6)
        state = tensor(squeezed, vacuum_state(["b"]))
        with pytest.raises(ValueError, match="zero-variance"):
            homodyne_measure(state, "s", "x", rng=np.random.default_rng(0))
        outcome, cond = homodyne_measure(state, "s", "x", fixed_outcome=0.0)
        assert outcome == 0.0
        assert_allclose(cond.cov, 0.5 * np.eye(2))

    def test_measuring_last_mode_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            homodyne_measure(vacuum_state(["a"]), "a", "x", fixed_outcome=0.0)


class TestInvariants:
    def test_symplectic_spectrum_preserved(self):
        rng = np.random.default_rng(10)
        for n_modes in (1, 2, 3):
            state = random_physical_state(rng, n_modes)
            nus = symplectic_eigenvalues(state.cov)
            out = apply_symplectic(state, random_symplectic(rng, n_modes))
            assert_allclose(
                symplectic_eigenvalues(out.cov), nus, rtol=1e-8
            )
            assert_physical(out)

    def test_operations_preserve_physicality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = random_physical_state(rng, 3)
            state = displace(state, "m0", 1.0, -1.0)
            _, state = homodyne_measure(state, "m2", "p", rng=rng)
            state = partial_trace(state, ["m1"])
            assert_physical(state)
            scale = max(1.0, np.abs(state.cov).max())
            assert np.abs(state.cov - state.cov.T).max() < 1e-12 * scale

    def test_pure_states_sit_on_the_heisenberg_floor(self):
        rng = np.random.default_rng(12)
        state = random_physical_state(rng, 2, mixed=False)
        assert_allclose(symplectic_eigenvalues(state.cov), 0.5, rtol=1e-9)
