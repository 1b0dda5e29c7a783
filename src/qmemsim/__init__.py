"""Gaussian simulation of a measurement-feedback quantum memory for light.

Modules by task:

* :mod:`qmemsim.gaussian` - Gaussian states, linear symplectic maps,
  homodyne conditioning;
* :mod:`qmemsim.protocol` - the store / verify / retrieve protocol maps;
* :mod:`qmemsim.microscopic` - time-binned two-cell dynamics and its
  reduction to the single-mode interaction;
* :mod:`qmemsim.fidelity` - set-averaged fidelities of one channel or
  a batch (:func:`~qmemsim.fidelity.average_fidelity`, whose one setting
  is its tolerance ``tol``) and classical benchmarks, each over a
  :class:`~qmemsim.fidelity.CoherentSet`;
* :mod:`qmemsim.montecarlo` - reproducible trial series, histograms,
  moment reconstruction;
* :mod:`qmemsim.calibration` - projection-noise calibration fits;
* :mod:`qmemsim.decoherence` - storage-time decay of a stored
  :class:`~qmemsim.protocol.ChannelSummary` and lifetime curves;
* :mod:`qmemsim.cli` - batch front end (``qmemsim --help``).

The package needs numpy alone: importing it and all five subcommands
load no scipy module.  ``import qmemsim`` loads no numpy either: the
names in ``__all__`` resolve on first access, and each subcommand imports
only the modules it runs (``tests/test_imports.py`` checks both).  The scipy
routines it once called are ported bit for bit in
:mod:`qmemsim._solvers`, and scipy is a test-only oracle for them.

Code that only tests use lives in the tests: the reference paths, such
as the 2-d product quadrature, and the small helpers that nothing in the
package calls (the README's Tests section lists both).
"""

import importlib

#: public name -> the submodule that defines it, imported at the name's
#: first access through the module ``__getattr__`` (PEP 562)
_HOMES = {
    **dict.fromkeys(
        ["CoherentSet", "average_fidelity", "classical_fidelity",
         "classical_variance_bound", "optimize_classical_gain", "overlap"],
        "fidelity",
    ),
    **dict.fromkeys(
        ["GaussianState", "SymplecticMap", "apply_symplectic", "coherent_state",
         "displace", "homodyne_measure", "partial_trace", "tensor", "vacuum_state"],
        "gaussian",
    ),
    **dict.fromkeys(
        ["ChannelSummary", "StorageParams", "interaction_map", "pi_half_pulse",
         "readout_map", "reconstruct_atomic_variance", "reverse_readout",
         "store_channel", "store_conditional"],
        "protocol",
    ),
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
