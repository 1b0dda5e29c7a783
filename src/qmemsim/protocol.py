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

Averaged over outcomes, storage and retrieval are each one cached
:class:`GaussianChannel`, written once step by step, whose ``apply``
replays an input mean with the bytes of the step-by-step pipeline.
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
    "GaussianChannel",
    "StorageParams",
    "ChannelSummary",
    "check_uncertainty",
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
        check_uncertainty(self.atom_var_x, self.atom_var_p, ("atom_var_x", "atom_var_p"))


def check_uncertainty(var_x, var_p, names):
    """Raise ``ValueError`` when ``var_x * var_p`` is below 1/4 by more than a
    1e-9 slack; ``names`` are the two variances' names for the message."""
    if var_x * var_p < 0.25 - 1e-9:
        raise ValueError(f"{names[0]} * {names[1]} < 1/4 violates the uncertainty relation")


@dataclass(frozen=True)
class ChannelSummary:
    """Gains and added-noise variances of the averaged storage channel.

    Gains are defined with signs absorbed so ideal storage reports
    ``gain_x = gain_p = 1``: ``gain_x = <X_mem>/<P_light>`` and
    ``gain_p = -<P_mem>/<X_light>``.

    One channel holds four numbers; a batch holds four arrays of one
    shape, entry ``i`` of each being channel ``i``.  A failed check
    reports the first bad entry, and in it the first bad field.
    """

    gain_x: float
    gain_p: float
    var_x: float
    var_p: float

    def __post_init__(self):
        values = np.stack(list(vars(self).values()), axis=-1).reshape(-1, 4)
        finite = np.isfinite(values)
        if not finite.all():
            entry, field = divmod(int(np.argmin(finite)), 4)
            raise ValueError(f"{list(vars(self))[field]} must be finite, "
                             f"got {values[entry, field]}")
        if np.any(self.var_x <= 0) or np.any(self.var_p <= 0):
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


@dataclass(frozen=True)
class GaussianChannel:
    """A chain of protocol steps, built once and then replayed on means.

    ``GaussianChannel(state)`` starts from an input state, and each step
    returns a new channel.  A step builds its output ``state`` with the
    functions of :mod:`qmemsim.gaussian`, so every check of the pipeline
    runs once, when the channel is built, and records its action on the
    mean.  A linear Gaussian channel's covariance does not depend on the
    means, so :meth:`apply` replays only the means, with the same
    arithmetic in the same order (``S @ m + 0.0`` for a map,
    ``(L @ m)[kept]`` for a feedback, ``np.concatenate`` with the joined
    state's mean for a join).  So a channel built from a zero-mean input
    gives, for any input mean, the bytes of running the whole pipeline on
    it, and all it returns share its one read-only covariance.
    """

    state: GaussianState
    _steps: tuple = ()

    def _extended(self, state, replay):
        return GaussianChannel(state, self._steps + (replay,))

    def join(self, state, first=False):
        """Tensor on ``state``, after this channel's modes (before if ``first``)."""
        def replay(mean):
            return np.concatenate([state.mean, mean] if first else [mean, state.mean])
        joint = tensor(state, self.state) if first else tensor(self.state, state)
        return self._extended(joint, replay)

    def then(self, smap):
        """Apply a symplectic map to all the modes."""
        s = smap.matrix
        return self._extended(apply_symplectic(self.state, smap), lambda m: s @ m + 0.0)

    def feedback(self, measured, target, gain, keep):
        """Measure X of ``measured`` and shift P of ``target`` by ``gain`` times
        the outcome, averaged over outcomes; then keep the modes ``keep``."""
        joint = self.state
        lin = np.eye(joint.mean.size)
        lin[joint.quad_index(target, "p"), joint.quad_index(measured, "x")] += gain
        lin.flags.writeable = False  # shared by every replay of a cached channel
        quads = [i for name in keep for i in joint.quad_indices(name)]
        cov = lin @ joint.cov @ lin.T
        averaged = GaussianState(joint.mode_names, lin @ joint.mean, cov)
        return self._extended(partial_trace(averaged, keep), lambda m: (lin @ m)[quads])

    def apply(self, mean):
        """The output state for the input mean ``mean``."""
        for replay in self._steps:
            mean = replay(mean)
        return self.state._with_mean(mean)


def _interacted(light_name, light_mean, light_cov, coupling, atom_var_x, atom_var_p):
    """Storage's first step: light joined by fresh atoms, then the interaction."""
    light = GaussianState([light_name], light_mean, np.frombuffer(light_cov).reshape(2, 2))
    atoms = single_mode(ATOMS, var_x=atom_var_x, var_p=atom_var_p)
    return GaussianChannel(light).join(atoms).then(interaction_map(coupling))


# The three caches below hold the outcome-independent half of a storage or
# retrieval step, keyed on the exact bytes of what it reads (so -0.0 and 0.0
# get separate entries).  An exception is not cached: it is raised again.


@functools.lru_cache(maxsize=64)
def _store_conditioning(light_name, light_mean, light_cov, knobs):
    """The homodyne update of :func:`store_update`; the feedback gain is
    not part of the key."""
    joint = _interacted(
        light_name, np.frombuffer(light_mean), light_cov, *struct.unpack("3d", knobs)
    ).state
    return homodyne_update(joint, light_name, "x")


def store_update(input_light, params):
    """Cached outcome-independent half of storing ``input_light``.

    The :class:`~qmemsim.gaussian.HomodyneUpdate` of measuring the
    transmitted light X after the interaction: its ``mu_q`` and ``var_q``
    are the marginal of the feedback outcome, and its ``state`` the atoms
    with their conditional covariance.
    """
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    return _store_conditioning(
        input_light.mode_names[0],
        input_light.mean.tobytes(),
        input_light.cov.tobytes(),
        struct.pack("3d", params.coupling, params.atom_var_x, params.atom_var_p),
    )


def store_conditional(input_light, params, rng=None, fixed_outcome=None):
    """One conditional storage run: interact, measure, feed back.

    Returns ``(outcome, atomic_state)`` where ``outcome`` is the homodyne
    record of the transmitted light X and the atomic state is conditioned
    on it (feedback displacement already applied).  The conditional
    covariance does not depend on the outcome, so it is computed once per
    distinct input and shared, read-only, by the states returned.
    """
    update = store_update(input_light, params)
    outcome, mean = update.condition(rng, fixed_outcome)
    # feedback displaces the atomic P by -gain * outcome; adding 0.0 to X
    # turns a -0.0 into +0.0 exactly as displace(state, mode, 0.0, dp) does
    mean[0] += 0.0
    mean[1] += -params.gain * outcome
    return outcome, update.state._with_mean(mean)


@functools.lru_cache(maxsize=64)
def _average_steps(light_name, light_cov, knobs):
    """The :class:`GaussianChannel` of :func:`store_average`."""
    coupling, gain, atom_var_x, atom_var_p = struct.unpack("4d", knobs)
    stored = _interacted(light_name, _ZEROS, light_cov, coupling, atom_var_x, atom_var_p)
    return stored.feedback(light_name, ATOMS, -gain, keep=[ATOMS])


def store_average(input_light, params):
    """Deterministic storage channel applied to a specific input state.

    The measurement-plus-feedback step is averaged over outcomes, which
    reproduces the ensemble statistics of :func:`store_conditional`.
    """
    if input_light.n_modes != 1:
        raise ValueError("input light must be a single mode")
    return _average_steps(
        input_light.mode_names[0],
        input_light.cov.tobytes(),
        struct.pack(
            "4d", params.coupling, params.gain, params.atom_var_x, params.atom_var_p
        ),
    ).apply(input_light.mean)


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
    atomic_state, params, reverse_gain=1.0, aux_coupling=1.0, aux_light=None
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
    aux = None if aux_light is None else (
        aux_light.mode_names, aux_light.mean.tobytes(), aux_light.cov.tobytes()
    )
    # X_aux reads -aux_coupling * X_atom; feeding back -g times the
    # rescaled record means displacing P_light by +g/aux_coupling * X_aux.
    feedback = reverse_gain / aux_coupling
    return _readout_steps(
        atomic_state.mode_names[0],
        atomic_state.cov.tobytes(),
        aux,
        struct.pack("3d", params.coupling, aux_coupling, feedback),
    ).apply(atomic_state.mean)


@functools.lru_cache(maxsize=64)
def _readout_steps(atom_name, atom_cov, aux, knobs):
    """The :class:`GaussianChannel` of :func:`reverse_readout`; ``aux`` is ``None``
    for a vacuum auxiliary pulse, else its mode names, mean bytes and covariance bytes."""
    coupling, aux_coupling, feedback = struct.unpack("3d", knobs)
    atoms = GaussianState([atom_name], _ZEROS, np.frombuffer(atom_cov).reshape(2, 2))
    if aux is None:
        aux_light = vacuum_state([AUX])
    else:
        names, mean, cov = aux
        dim = 2 * len(names)
        aux_light = GaussianState(names, np.frombuffer(mean), np.frombuffer(cov).reshape(dim, dim))
    return (
        GaussianChannel(atoms)
        .join(vacuum_state([READOUT]), first=True)
        .then(interaction_map(coupling))
        # auxiliary measurement of the (post-interaction) atomic X
        .then(SymplecticMap.rotation(np.pi / 2).embed([1], 2))
        .join(aux_light)
        .then(interaction_map(aux_coupling).embed([2, 1], 3))
        .feedback(AUX, READOUT, feedback, keep=[READOUT])
        .then(SymplecticMap.rotation(np.pi))
    )
