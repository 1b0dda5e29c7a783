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
    "store_update",
    "store_conditional",
    "store_average",
    "store_channel",
    "readout_map",
    "pi_half_pulse",
    "reconstruct_atomic_variance",
    "reverse_readout",
]

ATOMS = "atoms"
VERIFY = "verify"
AUX = "aux"
READOUT = "readout"

_ZEROS = np.zeros(2)  # the mean of a fresh vacuum or atomic mode
_ZEROS.flags.writeable = False


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
                "atom_var_x * atom_var_p < 1/4 violates the uncertainty relation"
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


def _feedback_average(joint, measured_mode, quadrature, targets):
    """Average of measure-and-displace over all outcomes.

    Equivalent to the Heisenberg-picture displacement of each target
    quadrature by ``gain`` times the measured quadrature, followed by
    tracing out the measured mode.  ``targets`` is a list of
    ``(mode, quadrature, gain)`` triples.  Returns ``(lin, quads, state)``:
    the linear map of the joint moments, the quadrature indices that the
    trace keeps, and the reduced state.
    """
    q = joint.quad_index(measured_mode, quadrature)
    lin = np.eye(joint.mean.size)
    for mode, quad, gain in targets:
        lin[joint.quad_index(mode, quad), q] += gain
    mean = lin @ joint.mean
    cov = lin @ joint.cov @ lin.T
    measured = joint.mode_index(measured_mode)
    keep = [name for i, name in enumerate(joint.mode_names) if i != measured]
    quads = [i for i in range(mean.size) if i // 2 != measured]
    reduced = GaussianState(joint.mode_names, mean, cov, copy=False)
    lin.flags.writeable = False
    return lin, quads, partial_trace(reduced, keep)


# The three caches below hold the outcome-independent half of a storage or
# retrieval step.  Each is keyed on the exact bytes of what it reads, so
# ``-0.0`` and ``0.0`` get separate entries, and runs the object pipeline
# on a miss, so every check of it runs once per distinct input.  An
# exception is raised again on the next call, since it is not cached.


@functools.lru_cache(maxsize=64)
def _store_conditioning(light_name, light_mean, light_cov, knobs):
    """Outcome-independent half of :func:`store_conditional`.

    Returns the homodyne update and a state with the conditional
    covariance; the feedback gain is not part of the key.
    """
    coupling, atom_var_x, atom_var_p = struct.unpack("3d", knobs)
    light = GaussianState(
        [light_name], np.frombuffer(light_mean), np.frombuffer(light_cov).reshape(2, 2)
    )
    atoms = single_mode(ATOMS, var_x=atom_var_x, var_p=atom_var_p)
    joint = apply_symplectic(tensor(light, atoms), interaction_map(coupling))
    update = homodyne_update(joint, light_name, "x")
    return update, GaussianState(update.mode_names, update.mean_r, update.cov, copy=False)


def _conditioning(input_light, params):
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    return _store_conditioning(
        input_light.mode_names[0],
        input_light.mean.tobytes(),
        input_light.cov.tobytes(),
        struct.pack("3d", params.coupling, params.atom_var_x, params.atom_var_p),
    )


def store_update(input_light, params):
    """Cached outcome-independent half of storing ``input_light``.

    The :class:`~qmemsim.gaussian.HomodyneUpdate` of measuring the
    transmitted light X after the interaction: its ``mu_q`` and ``var_q``
    are the marginal of the feedback outcome.
    """
    return _conditioning(input_light, params)[0]


def store_conditional(input_light, params, rng=None, fixed_outcome=None):
    """One conditional storage run: interact, measure, feed back.

    Returns ``(outcome, atomic_state)`` where ``outcome`` is the homodyne
    record of the transmitted light X and the atomic state is conditioned
    on it (feedback displacement already applied).  The conditional
    covariance does not depend on the outcome, so it is computed once per
    distinct input and shared, read-only, by the states returned.
    """
    update, state = _conditioning(input_light, params)
    outcome, mean = update.condition(rng, fixed_outcome)
    # feedback displaces the atomic P by -gain * outcome; adding 0.0 to X
    # turns a -0.0 into +0.0 exactly as displace(state, mode, 0.0, dp) does
    mean[0] += 0.0
    mean[1] += -params.gain * outcome
    return outcome, state._with_mean(mean)


@functools.lru_cache(maxsize=64)
def _average_steps(light_name, light_cov, knobs):
    """Outcome-independent half of :func:`store_average`.

    Returns the interaction matrix, the feedback map and the quadratures
    it keeps, and the stored state of a zero-mean input.
    """
    coupling, gain, atom_var_x, atom_var_p = struct.unpack("4d", knobs)
    light = GaussianState([light_name], _ZEROS, np.frombuffer(light_cov).reshape(2, 2))
    atoms = single_mode(ATOMS, var_x=atom_var_x, var_p=atom_var_p)
    interaction = interaction_map(coupling)
    joint = apply_symplectic(tensor(light, atoms), interaction)
    lin, quads, stored = _feedback_average(joint, light_name, "x", [(ATOMS, "p", -gain)])
    return interaction.matrix, lin, quads, stored


def store_average(input_light, params):
    """Deterministic storage channel applied to a specific input state.

    The measurement-plus-feedback step is averaged over outcomes, which
    reproduces the ensemble statistics of :func:`store_conditional`.
    The covariance does not depend on the input mean, so it is computed
    and checked once per distinct input covariance, coupling, gain and
    atomic variances, and shared, read-only, by the states returned.
    Each call replays the mean through the same matrices, so the result
    is byte-identical to running the whole pipeline.
    """
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    interaction, lin, quads, stored = _average_steps(
        input_light.mode_names[0],
        input_light.cov.tobytes(),
        struct.pack(
            "4d", params.coupling, params.gain, params.atom_var_x, params.atom_var_p
        ),
    )
    # the atoms start at zero mean; + 0.0 as in apply_symplectic
    mean = interaction @ np.concatenate([input_light.mean, _ZEROS]) + 0.0
    return stored._with_mean((lin @ mean)[quads])


def store_channel(params):
    """Closed-form summary of the averaged channel for coherent inputs.

    Raises ``OverflowError`` naming the coupling and gain when a stored
    variance overflows.
    """
    k, g = params.coupling, params.gain
    try:
        var_x = params.atom_var_x + k**2 * VACUUM_VAR
        var_p = (1.0 - k * g) ** 2 * params.atom_var_p + g**2 * VACUUM_VAR
    except OverflowError:  # a Python float's ``**`` raises one naming only errno
        raise OverflowError(
            f"stored channel variance overflows at coupling {k} and gain {g}"
        ) from None
    return ChannelSummary(gain_x=k, gain_p=g, var_x=var_x, var_p=var_p)


def readout_map(atomic_state, readout_coupling):
    """Joint (light, atoms) state after the verification interaction.

    The verification light starts in vacuum and its X quadrature carries
    ``X_in + readout_coupling * P_mem``.
    """
    joint = tensor(vacuum_state([VERIFY]), atomic_state)
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


def reverse_readout(
    atomic_state,
    params,
    reverse_gain=1.0,
    aux_coupling=1.0,
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

    The covariance does not depend on the means, so it is computed and
    checked once per distinct atomic and auxiliary covariance (with their
    mode names) and knobs, and shared, read-only, by the states returned.
    Each call replays the means through the same matrices, so the result
    is byte-identical to running the whole pipeline.
    """
    if atomic_state.n_modes != 1:
        raise ValueError("expected a single atomic mode")
    if aux_coupling <= 0:
        raise ValueError("auxiliary coupling must be positive")
    aux = None if aux_light is None else (aux_light.mode_names, aux_light.cov.tobytes())
    # X_aux reads -aux_coupling * X_atom; feeding back -g times the
    # rescaled record means displacing P_light by +g/aux_coupling * X_aux.
    feedback = reverse_gain / aux_coupling
    interaction, quarter, aux_step, lin, quads, half, retrieved = _readout_steps(
        atomic_state.mode_names[0],
        atomic_state.cov.tobytes(),
        aux,
        struct.pack("3d", params.coupling, aux_coupling, feedback),
    )
    mean = interaction @ np.concatenate([_ZEROS, atomic_state.mean]) + 0.0
    mean = quarter @ mean + 0.0
    aux_mean = _ZEROS if aux_light is None else aux_light.mean
    mean = aux_step @ np.concatenate([mean, aux_mean]) + 0.0
    return retrieved._with_mean(half @ (lin @ mean)[quads] + 0.0)


@functools.lru_cache(maxsize=64)
def _readout_steps(atom_name, atom_cov, aux, knobs):
    """Outcome-independent half of :func:`reverse_readout`.

    ``aux`` is ``None`` for a vacuum auxiliary pulse, else its mode names
    and covariance bytes.  Returns the step matrices in the order they act
    on the means, the quadratures that the two traces keep, and the
    retrieved state of zero-mean inputs.
    """
    coupling, aux_coupling, feedback = struct.unpack("3d", knobs)
    atoms = GaussianState([atom_name], _ZEROS, np.frombuffer(atom_cov).reshape(2, 2))
    if aux is None:
        aux_light = vacuum_state([AUX])
    else:
        names, cov = aux
        dim = 2 * len(names)
        cov = np.frombuffer(cov).reshape(dim, dim)
        aux_light = GaussianState(names, np.zeros(dim), cov)
    interaction = interaction_map(coupling)
    joint = apply_symplectic(tensor(vacuum_state([READOUT]), atoms), interaction)

    # auxiliary measurement of the (post-interaction) atomic X
    quarter = SymplecticMap.rotation(np.pi / 2).embed([1], 2)
    joint = apply_symplectic(joint, quarter)
    joint = tensor(joint, aux_light)
    aux_step = interaction_map(aux_coupling).embed([2, 1], 3)
    joint = apply_symplectic(joint, aux_step)
    lin, keep, retrieved = _feedback_average(joint, AUX, "x", [(READOUT, "p", feedback)])
    light = [keep[i] for i in retrieved.quad_indices(READOUT)]
    half = SymplecticMap.rotation(np.pi)
    retrieved = apply_symplectic(partial_trace(retrieved, [READOUT]), half)
    return (
        interaction.matrix, quarter.matrix, aux_step.matrix, lin, light,
        half.matrix, retrieved,
    )
