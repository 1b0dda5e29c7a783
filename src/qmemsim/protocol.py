"""The three-step storage protocol and its verification maps.

Storage of a traveling light mode onto an atomic mode proceeds as
(1) a QND interaction that entangles light and atoms, (2) a homodyne
measurement of the transmitted light's X quadrature, and (3) a feedback
displacement of the atomic P conditioned on the outcome.  With coupling
``k`` and feedback gain ``g`` the stored quadratures obey::

    P_mem = (1 - k g) P_atom - g X_light
    X_mem = X_atom + k P_light

so for ``k = g = 1`` the light X maps perfectly onto -P_mem and the light
P rides onto X_mem through the interaction itself.

Readout reverses the roles: a fresh verification pulse picks up
``k_r * P_mem`` on its X quadrature; a magnetic quarter-cycle rotation
first swaps the atomic quadratures when the other component is wanted.
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    VACUUM_VAR,
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    homodyne_update,
    partial_trace,
    single_mode,
    tensor,
    vacuum_state,
)

__all__ = [
    "StorageParams",
    "ChannelSummary",
    "interaction_map",
    "initial_atoms",
    "store_conditional",
    "store_average",
    "store_channel",
    "readout_map",
    "pi_half_pulse",
    "reconstruct_atomic_variance",
    "optimal_feedback_gain",
    "reverse_readout",
]

ATOMS = "atoms"
VERIFY = "verify"
AUX = "aux"


@dataclass(frozen=True)
class StorageParams:
    """Knobs for one storage/readout run.

    ``coupling`` is the write interaction strength, ``gain`` the feedback
    gain, ``readout_coupling`` the verification interaction strength.
    The initial atomic variances default to the coherent-spin-state value
    1/2; a squeezed/entangled initial state is expressed by shrinking
    ``atom_var_x`` while keeping the uncertainty product >= 1/4.
    """

    coupling: float = 1.0
    gain: float = 1.0
    readout_coupling: float = 1.0
    atom_var_x: float = VACUUM_VAR
    atom_var_p: float = VACUUM_VAR

    def __post_init__(self):
        if not np.isfinite(self.coupling) or self.coupling < 0:
            raise ValueError("coupling must be finite and >= 0")
        if not np.isfinite(self.gain):
            raise ValueError("gain must be finite")
        if not (np.isfinite(self.readout_coupling) and self.readout_coupling > 0):
            raise ValueError("readout_coupling must be finite and > 0")
        for name in ("atom_var_x", "atom_var_p"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.atom_var_x * self.atom_var_p < 0.25 - 1e-9:
            raise ValueError(
                "initial atomic variances violate the uncertainty relation"
            )


@dataclass(frozen=True)
class ChannelSummary:
    """Gains and added-noise variances of the averaged storage channel.

    Gains are defined with signs absorbed so ideal storage reports
    ``gain_x = gain_p = 1``: ``gain_x = <X_mem>/<P_light>`` and
    ``gain_p = -<P_mem>/<X_light>``.
    """

    gain_x: float
    gain_p: float
    var_x: float
    var_p: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.var_x <= 0 or self.var_p <= 0:
            raise ValueError("channel variances must be positive")


def interaction_map(coupling):
    """QND interaction on (light, atoms): X_l += k P_a, X_a += k P_l."""
    k = float(coupling)
    if not np.isfinite(k):
        raise ValueError("coupling must be finite")
    s = np.eye(4)
    s[0, 3] = k  # X_light picks up k * P_atom
    s[2, 1] = k  # X_atom picks up k * P_light
    return SymplecticMap(s)


def initial_atoms(params, name=ATOMS):
    """Fresh atomic mode with the configured initial variances."""
    return single_mode(name, var_x=params.atom_var_x, var_p=params.atom_var_p)


def _feedback_average(joint, measured_mode, quadrature, targets):
    """Average of measure-and-displace over all outcomes.

    Equivalent to the Heisenberg-picture displacement of each target
    quadrature by ``gain`` times the measured quadrature, followed by
    tracing out the measured mode.  ``targets`` is a list of
    ``(mode, quadrature, gain)`` triples.
    """
    q = joint.quad_index(measured_mode, quadrature)
    lin = np.eye(joint.mean.size)
    for mode, quad, gain in targets:
        lin[joint.quad_index(mode, quad), q] += gain
    mean = lin @ joint.mean
    cov = lin @ joint.cov @ lin.T
    measured = joint.modes[joint.mode_index(measured_mode)].name
    keep = [name for name in joint.mode_names if name != measured]
    reduced = GaussianState(joint.mode_names, mean, cov, copy=False)
    return partial_trace(reduced, keep)


@functools.lru_cache(maxsize=64)
def _store_conditioning(light_name, light_mean, light_cov, knobs):
    """Outcome-independent half of :func:`store_conditional`.

    Keyed on the exact bytes of what it reads, so ``-0.0`` and ``0.0``
    get separate entries and the feedback gain is not part of the key.
    Every validation of the pipeline runs once per distinct input; an
    exception is raised again on the next call, since it is not cached.
    """
    coupling, atom_var_x, atom_var_p = struct.unpack("3d", knobs)
    light = GaussianState(
        [light_name], np.frombuffer(light_mean), np.frombuffer(light_cov).reshape(2, 2)
    )
    atoms = single_mode(ATOMS, var_x=atom_var_x, var_p=atom_var_p)
    joint = apply_symplectic(tensor(light, atoms), interaction_map(coupling))
    return homodyne_update(joint, light_name, "x")


def store_conditional(input_light, params, rng=None, fixed_outcome=None):
    """One conditional storage run: interact, measure, feed back.

    Returns ``(outcome, atomic_state)`` where ``outcome`` is the homodyne
    record of the transmitted light X and the atomic state is conditioned
    on it (feedback displacement already applied).  The conditional
    covariance does not depend on the outcome, so it is computed once per
    distinct input and shared, read-only, by the states returned.
    """
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    update = _store_conditioning(
        input_light.mode_names[0],
        input_light.mean.tobytes(),
        input_light.cov.tobytes(),
        struct.pack("3d", params.coupling, params.atom_var_x, params.atom_var_p),
    )
    outcome, mean = update.condition(rng, fixed_outcome)
    # feedback displaces the atomic P by -gain * outcome; adding 0.0 to X
    # turns a -0.0 into +0.0 exactly as displace(state, mode, 0.0, dp) does
    mean[0] += 0.0
    mean[1] += -params.gain * outcome
    return outcome, GaussianState(update.modes, mean, update.cov, copy=False)


def store_average(input_light, params):
    """Deterministic storage channel applied to a specific input state.

    The measurement-plus-feedback step is averaged over outcomes, which
    reproduces the ensemble statistics of :func:`store_conditional`.
    """
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    light_name = input_light.mode_names[0]
    joint = tensor(input_light, initial_atoms(params))
    joint = apply_symplectic(joint, interaction_map(params.coupling))
    return _feedback_average(
        joint, light_name, "x", [(ATOMS, "p", -params.gain)]
    )


def store_channel(params):
    """Closed-form summary of the averaged channel for coherent inputs."""
    k, g = params.coupling, params.gain
    return ChannelSummary(
        gain_x=k,
        gain_p=g,
        var_x=params.atom_var_x + k**2 * VACUUM_VAR,
        var_p=(1.0 - k * g) ** 2 * params.atom_var_p + g**2 * VACUUM_VAR,
    )


def readout_map(atomic_state, readout_coupling, fresh_light=None):
    """Joint (light, atoms) state after the verification interaction.

    The verification light's X quadrature carries
    ``X_in + readout_coupling * P_mem``.
    """
    if fresh_light is None:
        fresh_light = vacuum_state([VERIFY])
    if fresh_light.n_modes != 1:
        raise ValueError("verification light must be a single mode")
    joint = tensor(fresh_light, atomic_state)
    return apply_symplectic(joint, interaction_map(readout_coupling))


def pi_half_pulse(atomic_state):
    """Quarter-cycle magnetic rotation: X -> P, P -> -X."""
    if atomic_state.n_modes != 1:
        raise ValueError("expected a single atomic mode")
    return apply_symplectic(atomic_state, SymplecticMap.rotation(np.pi / 2))


def reconstruct_atomic_variance(readout_var, readout_coupling):
    """Invert the readout variance formula: (var - 1/2) / k_r**2.

    A result below zero is statistically legitimate for finite trial
    counts; it is reported with a warning rather than clamped.
    """
    if readout_coupling == 0:
        raise ValueError("readout coupling must be nonzero")
    value = (readout_var - VACUUM_VAR) / readout_coupling**2
    if value < 0:
        warnings.warn(
            f"reconstructed variance {value:.3e} is negative "
            "(readout variance below shot noise)",
            stacklevel=2,
        )
    return value


def optimal_feedback_gain(coupling, atom_var_p):
    """Gain minimizing the stored P variance for coherent inputs."""
    k, v = coupling, atom_var_p
    return 2.0 * k * v / (1.0 + 2.0 * k**2 * v)


def reverse_readout(
    atomic_state,
    params,
    reverse_gain=1.0,
    aux_coupling=1.0,
    readout_light=None,
    aux_light=None,
):
    """Retrieve the memory onto light: the storage steps with roles swapped.

    Sequence: a readout pulse interacts with the atoms (its X picks up the
    stored P), the atomic X is then measured through an auxiliary chain
    (quarter-cycle rotation, auxiliary pulse, homodyne), and the outcome is
    fed back as a displacement of the outgoing light's P.  Averaged over
    outcomes this is a deterministic Gaussian channel, which is what is
    returned.

    The auxiliary homodyne record is rescaled by ``-1/aux_coupling`` so
    that it estimates the atomic X directly, and the outgoing light is
    finally rotated by pi so that the store -> retrieve round trip
    preserves both mean quadratures rather than flipping their signs.
    """
    if atomic_state.n_modes != 1:
        raise ValueError("expected a single atomic mode")
    if aux_coupling <= 0:
        raise ValueError("auxiliary coupling must be positive")
    light = vacuum_state(["readout"]) if readout_light is None else readout_light
    if light.n_modes != 1:
        raise ValueError("readout light must be a single mode")
    light_name = light.mode_names[0]
    atoms_name = atomic_state.mode_names[0]

    joint = tensor(light, atomic_state)
    joint = apply_symplectic(joint, interaction_map(params.coupling))

    # auxiliary measurement of the (post-interaction) atomic X
    rot = SymplecticMap.rotation(np.pi / 2).embed([1], 2)
    joint = apply_symplectic(joint, rot)
    aux = vacuum_state([AUX]) if aux_light is None else aux_light
    joint = tensor(joint, aux)
    joint = apply_symplectic(
        joint, interaction_map(aux_coupling).embed([2, 1], 3)
    )
    # X_aux reads -aux_coupling * X_atom; feeding back -g times the
    # rescaled record means displacing P_light by +g/aux_coupling * X_aux.
    retrieved = _feedback_average(
        joint, AUX, "x", [(light_name, "p", reverse_gain / aux_coupling)]
    )
    retrieved = partial_trace(retrieved, [light_name])
    return apply_symplectic(retrieved, SymplecticMap.rotation(np.pi))
