"""Counter-based random streams for reproducible parallel sampling.

Trials are assigned fixed blocks of a Philox counter stream, so the
normals consumed by trial ``i`` depend only on ``(key, i)`` and never on
how the work is chunked or scheduled.  One Philox counter block holds
four doubles, so each trial owns exactly one block (up to four normals),
and chunk boundaries stay block-aligned by construction.

Normals are produced by inverse-CDF transform of the block's uniforms,
which keeps the draw count per trial fixed (rejection samplers do not).
The inverse CDF is :func:`qmemsim._solvers.ndtri`, a numpy port of
Cephes' ``ndtri`` that returns the same bytes as ``scipy.special.ndtri``,
so sampling needs numpy alone.  It runs on blocks of ``_NDTRI_BLOCK_ROWS``
trials, so its temporaries stay a fixed size however many trials a call
draws; being elementwise, it gives the same bytes as on the whole range.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from ._solvers import ndtri

__all__ = ["stream_key", "trial_normals", "DRAWS_PER_TRIAL"]

#: doubles available per trial (one Philox counter block)
DRAWS_PER_TRIAL = 4
# trials per ndtri call; its temporaries are a few times this many doubles
_NDTRI_BLOCK_ROWS = 4096

# offset lifting Generator.random() output from [0, 1) to (0, 1) so the
# inverse normal CDF never sees an endpoint
_HALF_ULP = 2.0**-54


def stream_key(seed, *tags):
    """Derive an independent 128-bit Philox key from a seed and tags."""
    entropy = [int(seed) & 0xFFFFFFFF_FFFFFFFF]
    entropy.extend(int(t) & 0xFFFFFFFF_FFFFFFFF for t in tags)
    return SeedSequence(entropy).generate_state(2, dtype=np.uint64)


def trial_normals(key, start_trial, n_trials, width=2):
    """Standard normals for trials [start_trial, start_trial + n_trials).

    Returns an array of shape ``(n_trials, width)``; row ``i`` is the
    randomness of trial ``start_trial + i`` and is independent of how the
    overall range is split into calls.
    """
    if not 1 <= width <= DRAWS_PER_TRIAL:
        raise ValueError(f"width must be in 1..{DRAWS_PER_TRIAL}")
    if n_trials < 0 or start_trial < 0:
        raise ValueError("trial range must be nonnegative")
    if n_trials == 0:
        return np.empty((0, width))
    bg = Philox(key=key)
    bg.advance(int(start_trial))  # one counter block per trial
    u = Generator(bg).random(n_trials * DRAWS_PER_TRIAL)
    u = u.reshape(n_trials, DRAWS_PER_TRIAL)[:, :width]
    normals = np.empty((n_trials, width))
    for start in range(0, n_trials, _NDTRI_BLOCK_ROWS):
        rows = slice(start, start + _NDTRI_BLOCK_ROWS)
        normals[rows] = ndtri(u[rows] + _HALF_ULP)
    return normals

