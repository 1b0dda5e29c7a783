"""Time-binned reduction of the two-cell spin-light dynamics.

The storage interaction is derived from the polarization-rotation
dynamics of light crossing two oppositely pumped cells in a bias field:
per time bin, the light's linear-polarization quadrature reads out the
conserved two-cell spin sums (Faraday rotation) while its circular
component kicks the spin differences (back action), both modulated at
the precession frequency.  Projecting the binned input-output map onto
the cosine temporal mode must reproduce the single-mode QND relations
with the coupling predicted by ``theoretical_coupling``; everything else
(sine-mode leakage, cross-quadrature terms) is a finite
frequency-time-product artifact that falls off as 1/(Omega T).

Variable layout of the binned map: light quadratures
``(x_0, p_0, ..., x_{N-1}, p_{N-1})`` followed by four atomic variables,
the cosine-mode pair ``(X_A, P_A)`` then the sine-mode pair
``(X_B, P_B)``.  One sign choice is fixed by unitarity: the sine-mode
readout enters the light with a minus sign so that every per-bin kick is
exactly symplectic (the equivalent relabeling X_B -> -X_B restores the
plus sign without changing any observable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels

__all__ = [
    "PhysicalParams",
    "BinnedPropagation",
    "ModeCouplings",
    "propagate_binned",
    "demodulate",
    "theoretical_coupling",
    "tuned_params",
    "omega_t_sweep",
    "pinned_phase_omega_t",
]

# indices into the 8 x 8 demodulated coupling matrix
COS_X, COS_P, SIN_X, SIN_P, ATOM_X, ATOM_P, ATOM_X2, ATOM_P2 = range(8)


@dataclass(frozen=True)
class PhysicalParams:
    """Microscopic knobs of the light-atoms propagation.

    ``photon_flux`` is a constant rate (photons/s); ``coupling_per_atom``
    absorbs the atomic-physics prefactor so that
    ``coupling_per_atom**2 * collective_spin * (photon number)`` is
    dimensionless.
    """

    coupling_per_atom: float
    collective_spin: float = 1.2e12
    photon_flux: float = 1e15
    larmor_frequency: float = 2 * np.pi * 322e3
    pulse_duration: float = 1e-3
    bins: int = 10_000

    def __post_init__(self):
        for name in ("coupling_per_atom", "collective_spin", "photon_flux",
                     "larmor_frequency", "pulse_duration"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.pulse_duration <= 0:
            raise ValueError("pulse_duration must be positive")
        if self.collective_spin < 0:
            raise ValueError("collective_spin must be nonnegative")
        if self.photon_flux < 0:
            raise ValueError("photon_flux must be nonnegative")
        if self.bins < 10:
            raise ValueError("need at least 10 bins")
        phase_per_bin = self.larmor_frequency * self.pulse_duration / (
            2 * np.pi * self.bins
        )
        if phase_per_bin >= 0.1:
            raise ValueError(
                "bins too coarse: larmor_frequency * pulse_duration / (2 pi "
                f"bins) = {phase_per_bin:.3g} cycles per bin (need < 0.1)"
            )


def _bin_grid(params):
    """Bin width ``dt`` and the light amplitude ``sqrt(photon_flux * dt)`` of every bin."""
    dt = params.pulse_duration / params.bins
    return dt, np.sqrt(params.photon_flux * dt)


class BinnedPropagation:
    """Composed per-bin kicks, kept in banded (per-bin) form.

    ``cos`` and ``sin`` sample the precession phase at the bin midpoints,
    and the kicks are ``kappa_cos = kappa * cos`` and ``kappa_sin = kappa *
    sin``.  The full map acts on ``2 * bins + 4`` variables and is never
    materialized; applying it to a batch of phase-space vectors costs
    O(bins * batch).
    """

    def __init__(self, params, cos, sin, kappa):
        self.params = params
        self.cos, self.sin = cos, sin
        self.kappa_cos = kappa * cos
        self.kappa_sin = kappa * sin

    @property
    def bins(self):
        return self.kappa_cos.size

    @property
    def n_vars(self):
        return 2 * self.bins + 4

    def apply_to(self, vectors):
        """Propagate stacked column vectors (rows = variables) in place."""
        vectors = np.ascontiguousarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        if vectors.shape[0] != self.n_vars:
            raise ValueError(f"vectors must have {self.n_vars} rows")
        return kernels.bin_sweep(self.kappa_cos, self.kappa_sin, vectors)


def propagate_binned(params):
    """Binned propagation of light through both cells.

    Per bin the light x reads the conserved atomic combinations and the
    atomic quadratures absorb the light p, with cosine/sine factors at
    the bin midpoint; each kick is exactly symplectic.
    """
    dt, amplitude = _bin_grid(params)
    phase = params.larmor_frequency * ((np.arange(params.bins) + 0.5) * dt)
    kappa = params.coupling_per_atom * np.sqrt(params.collective_spin) * amplitude
    return BinnedPropagation(params, np.cos(phase), np.sin(phase), kappa)


@dataclass(frozen=True)
class ModeCouplings:
    """Demodulated couplings between temporal light modes and atom pairs.

    ``matrix[a, b]`` is the coefficient of input direction ``b`` in
    output direction ``a``, with directions indexed by ``COS_X`` ...
    ``ATOM_P2``.  The write/read couplings should match the theoretical
    coupling; every entry listed by :meth:`spurious` should vanish as
    1/(Omega T).
    """

    matrix: np.ndarray

    @property
    def coupling_write(self):
        """Atomic X picked up per unit of cosine-mode light P."""
        return self.matrix[ATOM_X, COS_P]

    @property
    def coupling_read(self):
        """Cosine-mode light X picked up per unit of atomic P."""
        return self.matrix[COS_X, ATOM_P]

    @property
    def coupling(self):
        return 0.5 * (self.coupling_write + self.coupling_read)

    @property
    def sine_write_leakage(self):
        """Sine-mode light P leaking into the cosine-pair atomic X."""
        return abs(self.matrix[ATOM_X, SIN_P])

    @property
    def sine_read_leakage(self):
        """Atomic P leaking into the sine-mode light X."""
        return abs(self.matrix[SIN_X, ATOM_P])

    def spurious(self):
        """Named couplings that the single-mode reduction says vanish."""
        m = self.matrix
        return {
            "sine_write_leakage": self.sine_write_leakage,
            "sine_read_leakage": self.sine_read_leakage,
            "cross_write_xx": abs(m[ATOM_X, COS_X]),
            "cross_read_xx": abs(m[COS_X, ATOM_X]),
            "cross_write_sin_xx": abs(m[ATOM_X, SIN_X]),
            "atom_p_nonconservation": float(
                np.abs(m[ATOM_P] - np.eye(8)[ATOM_P]).max()
            ),
            "light_p_nonconservation": float(
                np.abs(m[COS_P] - np.eye(8)[COS_P]).max()
            ),
            "pair_mixing": max(
                abs(m[ATOM_X, ATOM_X2]), abs(m[ATOM_X, ATOM_P2])
            ),
        }

    @property
    def max_spurious(self):
        return max(self.spurious().values())


def _unit_weights(propagation):
    """Unit-norm cosine and sine mode weights; ``ValueError`` if the sine's norm is 0."""
    sin_norm = np.linalg.norm(propagation.sin)
    if sin_norm == 0:
        raise ValueError(
            f"larmor_frequency {propagation.params.larmor_frequency} precesses too "
            "little over the pulse_duration: the sine demodulation weight has zero norm"
        )
    return propagation.cos / np.linalg.norm(propagation.cos), propagation.sin / sin_norm


def demodulate(propagation):
    """Project the binned map onto the demodulation modes.

    The mode weights are the unit-norm sampled cos/sin of the precession
    phase, i.e. the lock-in reference.
    """
    n = propagation.bins
    w_cos, w_sin = _unit_weights(propagation)

    directions = np.zeros((propagation.n_vars, 8))
    x_rows = slice(0, 2 * n, 2)
    p_rows = slice(1, 2 * n, 2)
    directions[x_rows, COS_X] = w_cos
    directions[p_rows, COS_P] = w_cos
    directions[x_rows, SIN_X] = w_sin
    directions[p_rows, SIN_P] = w_sin
    for offset, column in enumerate((ATOM_X, ATOM_P, ATOM_X2, ATOM_P2)):
        directions[2 * n + offset, column] = 1.0

    images = propagation.apply_to(directions.copy())
    return ModeCouplings(matrix=directions.T @ images)


def theoretical_coupling(params):
    """Predicted single-mode coupling: sqrt(a^2 J_x (photon number) / 2).

    The photon number is the pairwise sum of the per-bin photon numbers of
    the propagation's grid; ``bins * amplitude**2`` would round otherwise.
    """
    _, amplitude = _bin_grid(params)
    photons = float(np.sum(np.full(params.bins, amplitude * amplitude)))
    return params.coupling_per_atom * np.sqrt(
        0.5 * params.collective_spin * photons
    )


def tuned_params(target_coupling=1.0, **overrides):
    """Parameters whose theoretical coupling equals ``target_coupling``."""
    if not (np.isfinite(target_coupling) and target_coupling > 0):
        raise ValueError("target_coupling must be finite and > 0")
    probe = PhysicalParams(coupling_per_atom=1.0, **overrides)
    k_unit = theoretical_coupling(probe)
    if k_unit == 0:
        raise ValueError("cannot tune with zero collective_spin or photon_flux")
    return replace(probe, coupling_per_atom=target_coupling / k_unit)


def pinned_phase_omega_t(count=6, smallest=3, largest=33):
    """Frequency-time products with a fixed oscillation phase.

    The residual couplings oscillate with the total precession phase; a
    geometric grid of ``2 pi (m + 1/4)`` pins that phase so the 1/(Omega
    T) envelope shows up as a clean log-log slope.
    """
    m = np.unique(
        np.round(np.geomspace(smallest, largest, count)).astype(int)
    )
    return 2 * np.pi * (m + 0.25)


def omega_t_sweep(
    omega_t_values, bins=4096, target_coupling=1.0, pulse_duration=1e-3, **overrides
):
    """Demodulated couplings across a range of frequency-time products.

    Returns one dict per value with the effective and theoretical
    couplings and the worst residual coupling; the pulse duration is held
    fixed while the precession frequency is varied.
    """
    rows = []
    for omega_t in omega_t_values:
        params = tuned_params(
            target_coupling,
            bins=bins,
            pulse_duration=pulse_duration,
            larmor_frequency=float(omega_t) / pulse_duration,
            **overrides,
        )
        couplings = demodulate(propagate_binned(params))
        k_theory = theoretical_coupling(params)
        rows.append(
            {
                "omega_t": float(omega_t),
                "coupling_effective": float(couplings.coupling),
                "coupling_theory": float(k_theory),
                "sine_leakage": float(couplings.sine_write_leakage),
                "max_spurious": float(couplings.max_spurious),
            }
        )
    return rows
