"""Gaussian states over named modes, linear symplectic maps, homodyne conditioning.

Conventions used throughout the package:

* canonical commutator ``[X, P] = i`` (hbar = 1), so vacuum and coherent
  states have quadrature variance 1/2;
* quadratures are ordered ``(X1, P1, X2, P2, ...)`` in means and covariances;
* the symplectic form is block diagonal with ``[[0, 1], [-1, 0]]`` per mode.

States are immutable value objects; every operation returns a new state.
Maps are linear: displacements go through :func:`displace` or a feedback
step, never through a :class:`SymplecticMap`.  Measurement sampling takes
the random source explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "SymplecticMap",
    "symplectic_form",
    "symplectic_eigenvalues",
    "assert_physical",
    "vacuum_state",
    "coherent_state",
    "single_mode",
    "apply_symplectic",
    "displace",
    "HomodyneUpdate",
    "homodyne_update",
    "homodyne_measure",
    "partial_trace",
    "tensor",
]

#: elementwise tolerance for S^T Omega S = Omega
SYMPLECTIC_TOL = 1e-10
#: relative tolerance for covariance symmetry
SYMMETRY_TOL = 1e-12
#: slack allowed below the Heisenberg floor of 1/2
UNCERTAINTY_TOL = 1e-9

VACUUM_VAR = 0.5


def symplectic_form(n_modes):
    """The 2n x 2n symplectic form in XP ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def symplectic_eigenvalues(cov):
    """Symplectic spectrum of a covariance matrix (one value per mode).

    The eigenvalues of ``Omega @ cov`` come in pairs ``+/- i nu``; the
    returned ``nu`` values are >= 1/2 for any physical state.
    """
    cov = np.asarray(cov, dtype=float)
    n_modes = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n_modes) @ cov)
    return np.sort(np.abs(ev))[::2][:n_modes] if n_modes else np.array([])


class GaussianState:
    """Finite mean vector and symmetric covariance over an ordered tuple of mode names."""

    __slots__ = ("mode_names", "mean", "cov")

    def __init__(self, modes, mean, cov, copy=True):
        names = tuple(map(str, modes))
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate mode name in {names}")
        if not names:
            raise ValueError("a state needs at least one mode")

        mean = np.array(mean, dtype=float, copy=copy).reshape(-1)
        cov = np.array(cov, dtype=float, copy=copy)
        dim = 2 * len(names)
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise ValueError(
                f"moments of shape {mean.shape}/{cov.shape} do not match "
                f"{len(names)} modes"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        scale = max(1.0, np.abs(cov).max())
        if not (np.abs(cov - cov.T).max() <= SYMMETRY_TOL * scale):
            raise ValueError("covariance matrix is not symmetric")

        object.__setattr__(self, "mode_names", names)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        mean.flags.writeable = False
        cov.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError("GaussianState is immutable")

    def _with_mean(self, mean):
        """This state's modes and covariance with a new mean.

        ``mean`` must be a fresh float64 array of this state's mean shape;
        it is made read-only and taken over without a copy.  The checks of
        ``__init__`` are skipped: the covariance already passed them and
        cannot change.
        """
        state = object.__new__(GaussianState)
        object.__setattr__(state, "mode_names", self.mode_names)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", self.cov)
        mean.flags.writeable = False
        return state

    # -- mode bookkeeping ---------------------------------------------------

    @property
    def n_modes(self):
        return len(self.mode_names)

    def mode_index(self, mode):
        name = str(mode)
        if name not in self.mode_names:
            raise ValueError(f"unknown mode {name!r}")
        return self.mode_names.index(name)

    def quad_indices(self, mode):
        """(index of X, index of P) for a mode."""
        i = self.mode_index(mode)
        return 2 * i, 2 * i + 1

    def quad_index(self, mode, quadrature):
        ix, ip = self.quad_indices(mode)
        q = str(quadrature).lower()
        if q == "x":
            return ix
        if q == "p":
            return ip
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")

    # -- moment accessors ---------------------------------------------------

    def quad_mean(self, mode, quadrature):
        return float(self.mean[self.quad_index(mode, quadrature)])

    def quad_var(self, mode, quadrature):
        i = self.quad_index(mode, quadrature)
        return float(self.cov[i, i])

    def __repr__(self):
        names = ", ".join(self.mode_names)
        return f"GaussianState([{names}], mean={self.mean!r})"


def assert_physical(state, tol=UNCERTAINTY_TOL):
    """Raise if the covariance violates the uncertainty relation."""
    nu_min = symplectic_eigenvalues(state.cov).min()
    if nu_min < VACUUM_VAR - tol:
        raise ValueError(
            f"state violates the uncertainty relation: min symplectic "
            f"eigenvalue {nu_min} < 1/2"
        )
    return nu_min


@dataclass(frozen=True)
class SymplecticMap:
    """Linear phase-space map ``v -> S v`` with finite symplectic ``S`` (read-only)."""

    matrix: np.ndarray

    def __post_init__(self):
        s = np.array(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"matrix shape {s.shape} is not 2M x 2M")
        if not np.isfinite(s).all():
            raise ValueError("matrix must be finite")
        omega = symplectic_form(s.shape[0] // 2)
        defect = np.abs(s.T @ omega @ s - omega).max()
        if not (defect <= SYMPLECTIC_TOL):
            raise ValueError(
                f"matrix is not symplectic (defect {defect:.3e} > "
                f"{SYMPLECTIC_TOL})"
            )
        object.__setattr__(self, "matrix", s)
        s.flags.writeable = False

    @property
    def n_modes(self):
        return self.matrix.shape[0] // 2

    @classmethod
    def rotation(cls, theta):
        """Single-mode phase rotation ``X -> X cos + P sin, P -> -X sin + P cos``."""
        c, s = np.cos(theta), np.sin(theta)
        return cls(np.array([[c, s], [-s, c]]))

    def embed(self, positions, n_modes):
        """Lift this map to ``n_modes`` modes, acting on the given positions.

        ``positions[i]`` is the mode slot (in the larger state) played by
        mode ``i`` of this map; all other modes are untouched.
        """
        if len(positions) != self.n_modes:
            raise ValueError("one position per map mode required")
        big = np.eye(2 * n_modes)
        for i, pi in enumerate(positions):
            for j, pj in enumerate(positions):
                big[2 * pi : 2 * pi + 2, 2 * pj : 2 * pj + 2] = self.matrix[
                    2 * i : 2 * i + 2, 2 * j : 2 * j + 2
                ]
        return SymplecticMap(big)


# -- state constructors -----------------------------------------------------


def vacuum_state(mode_labels):
    """Vacuum over the given modes: zero mean, covariance diag(1/2)."""
    labels = list(mode_labels)
    if not labels:
        raise ValueError("at least one mode label required")
    dim = 2 * len(labels)
    return GaussianState(labels, np.zeros(dim), VACUUM_VAR * np.eye(dim), copy=False)


def coherent_state(x, p, mode="light"):
    """Single-mode coherent state with mean (x, p) and vacuum covariance."""
    return GaussianState(
        [mode], np.array([x, p], dtype=float), VACUUM_VAR * np.eye(2), copy=False
    )


def single_mode(name, x=0.0, p=0.0, var_x=VACUUM_VAR, var_p=VACUUM_VAR, cov_xp=0.0):
    """General single-mode Gaussian state from its four moments."""
    cov = np.array([[var_x, cov_xp], [cov_xp, var_p]], dtype=float)
    return GaussianState([name], np.array([x, p], dtype=float), cov, copy=False)


# -- operations ---------------------------------------------------------------


def _quads(indices):
    """Positions ``(2i, 2i + 1)`` of the X and P quadratures of each mode index."""
    return [q for i in indices for q in (2 * i, 2 * i + 1)]


def apply_symplectic(state, smap):
    """Evolve the state: mean -> S mean, cov -> S cov S^T."""
    if smap.n_modes != state.n_modes:
        raise ValueError(
            f"map acts on {smap.n_modes} modes, state has {state.n_modes}"
        )
    s = smap.matrix
    # + 0.0 turns a -0.0 into +0.0, so no mean leaves a map holding -0.0,
    # whichever way the numpy build's matmul accumulates
    return GaussianState(
        state.mode_names,
        s @ state.mean + 0.0,
        s @ state.cov @ s.T,
        copy=False,
    )


def displace(state, mode, dx, dp):
    """Shift one mode's mean by finite (dx, dp); the covariance is untouched."""
    if not (np.isfinite(dx) and np.isfinite(dp)):
        raise ValueError(f"shifts must be finite, got ({dx}, {dp})")
    ix, ip = state.quad_indices(mode)
    mean = state.mean.copy()
    mean[ix] += dx
    mean[ip] += dp
    return state._with_mean(mean)


def partial_trace(state, keep):
    """Restrict the state to the listed modes (in the order given)."""
    keep = list(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    indices = [state.mode_index(m) for m in keep]
    quads = _quads(indices)
    names = [state.mode_names[i] for i in indices]
    return GaussianState(
        names, state.mean[quads], state.cov[np.ix_(quads, quads)], copy=False
    )


def tensor(a, b):
    """Product state of two independent states (modes of ``a`` first)."""
    overlap = set(a.mode_names) & set(b.mode_names)
    if overlap:
        raise ValueError(f"mode names appear on both sides: {sorted(overlap)}")
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    na = a.mean.size
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(a.mode_names + b.mode_names, mean, cov, copy=False)


@dataclass(frozen=True)
class HomodyneUpdate:
    """Outcome-independent half of a homodyne measurement.

    For a Gaussian state the conditional covariance and the conditioning
    vector ``cov_rq`` do not depend on the outcome; only the mean moves,
    linearly in the record.  The arrays are read-only, so one update can
    serve any number of outcomes.
    """

    mode_names: tuple  # the modes left after the measured one
    mu_q: float  # marginal mean of the measured quadrature
    var_q: float  # marginal variance of the measured quadrature
    mean_r: np.ndarray
    cov_rq: np.ndarray
    cov: np.ndarray  # conditional covariance of the remaining modes

    def condition(self, rng=None, fixed_outcome=None):
        """Return ``(outcome, conditional mean)`` for one measurement run.

        The outcome is drawn from the Gaussian marginal of the measured
        quadrature (consuming exactly one standard normal from ``rng``),
        or taken as ``fixed_outcome``, which must be finite.  A
        zero-variance quadrature can only be "measured" with a fixed
        outcome.  The mean is a new, writable array.
        """
        degenerate = self.var_q <= 0.0
        if fixed_outcome is not None:
            outcome = float(fixed_outcome)
            if not np.isfinite(outcome):
                raise ValueError(f"fixed_outcome must be finite, got {outcome}")
        else:
            if degenerate:
                raise ValueError(
                    "cannot sample a zero-variance quadrature; pass fixed_outcome"
                )
            if rng is None:
                raise ValueError("provide rng to sample or fixed_outcome")
            outcome = self.mu_q + np.sqrt(self.var_q) * rng.standard_normal()
        if degenerate:
            return outcome, self.mean_r.copy()
        shift = (outcome - self.mu_q) / self.var_q
        return outcome, self.mean_r + self.cov_rq * shift


def homodyne_update(state, mode, quadrature="x"):
    """Prepare the Schur-complement update for measuring one quadrature."""
    if state.n_modes < 2:
        raise ValueError("measuring the only mode would leave an empty state")
    q = state.quad_index(mode, quadrature)
    mu_q = state.mean[q]
    var_q = state.cov[q, q]

    drop = state.mode_index(mode)
    rest = [i for i in range(state.n_modes) if i != drop]
    quads = _quads(rest)
    mean_r = state.mean[quads]
    cov_rr = state.cov[np.ix_(quads, quads)]
    cov_rq = state.cov[quads, q]
    cov_c = cov_rr if var_q <= 0.0 else cov_rr - np.outer(cov_rq, cov_rq) / var_q
    for array in (mean_r, cov_rq, cov_c):
        array.flags.writeable = False
    names = tuple(state.mode_names[i] for i in rest)
    return HomodyneUpdate(names, mu_q, var_q, mean_r, cov_rq, cov_c)


def homodyne_measure(state, mode, quadrature="x", rng=None, fixed_outcome=None):
    """Measure one quadrature; return (outcome, conditional state).

    The outcome is drawn from the Gaussian marginal of the measured
    quadrature (consuming exactly one standard normal from ``rng``), or
    taken as ``fixed_outcome``. The conditional state of the remaining
    modes follows the Schur-complement update and the measured mode is
    removed.

    A zero-variance quadrature can only be "measured" with a fixed
    outcome; sampling from it is rejected.
    """
    update = homodyne_update(state, mode, quadrature)
    outcome, mean = update.condition(rng, fixed_outcome)
    return outcome, GaussianState(update.mode_names, mean, update.cov, copy=False)
