"""Numpy hot kernels: the binned propagation sweep and the two-stage sampler."""

from __future__ import annotations

import numpy as np

BACKEND = "python"

# bins x columns per block of the sweep; bounds its temporaries
_BLOCK_CELLS = 16_384


def bin_sweep(kappa_cos, kappa_sin, vectors):
    """Propagate stacked phase-space vectors through the per-bin kicks.

    ``vectors`` has one row per variable: light quadratures
    ``(x_0, p_0, ..., x_{N-1}, p_{N-1})`` in rows ``0 .. 2N-1`` followed by
    the four atomic rows ``(X_A, P_A, X_B, P_B)``, and one column per
    vector.  Bin ``i`` applies, in the documented order (light kick from
    pre-bin atomic values, atomic kick from pre-bin light values)::

        x_i  += kc[i] * P_A - ks[i] * X_B
        X_A  += kc[i] * p_i
        P_B  += ks[i] * p_i

    No bin writes a row that any bin reads (``P_A``, ``X_B``, ``p_i``), so
    the light kicks are one broadcast and ``X_A``, ``P_B`` are running sums
    in bin order.  ``np.add.accumulate`` keeps that order, so the result is
    bit-identical to applying the bins one by one; ``np.add.reduce`` is
    not, since it sums pairwise along a contiguous axis.

    The array is modified in place and also returned.
    """
    n_bins = kappa_cos.shape[0]
    base = 2 * n_bins
    x, p = vectors[0:base:2], vectors[1:base:2]
    p_a, x_b = vectors[base + 1], vectors[base + 2]
    step = max(1, _BLOCK_CELLS // max(1, vectors.shape[1]))
    for start in range(0, n_bins, step):
        block = slice(start, start + step)
        kc = kappa_cos[block, None]
        ks = kappa_sin[block, None]
        x[block] += kc * p_a - ks * x_b
        for row, weight in ((base, kc), (base + 3, ks)):
            kicks = weight * p[block]
            kicks[0] += vectors[row]
            np.add.accumulate(kicks, axis=0, out=kicks)
            vectors[row] = kicks[-1]
    return vectors


def two_stage_outcomes(z1, z2, mean1, sd1, offset2, slope2, sd2, out1, out2):
    """Sample the storage and verification records of a batch of trials.

    Stage one draws the feedback outcome; stage two draws the verification
    outcome whose conditional mean is affine in the first::

        out1 = mean1 + sd1 * z1
        out2 = offset2 + slope2 * out1 + sd2 * z2
    """
    np.multiply(z1, sd1, out=out1)
    out1 += mean1
    np.multiply(out1, slope2, out=out2)
    out2 += offset2
    out2 += sd2 * z2
    return out1, out2
