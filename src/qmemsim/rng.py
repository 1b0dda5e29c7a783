"""Counter-based random streams for reproducible parallel sampling.

Trials are assigned fixed blocks of a Philox counter stream, so the
normals consumed by trial ``i`` depend only on ``(key, i)`` and never on
how the work is chunked or scheduled.  Each trial owns exactly one Philox
counter block, whose first two words give its two normals, so chunk
boundaries stay block-aligned by construction.

The stream is numpy's, computed here without ``numpy.random``, whose
import loads ``secrets``, ``hmac`` and OpenSSL for nothing this module
uses.  :func:`stream_key` is ``SeedSequence(entropy).generate_state(2,
np.uint64)`` and :func:`trial_normals` is ``Philox(key)`` advanced to the
first trial, read through ``Generator.random``, both bit for bit
(``tests/test_rng_kernels.py`` checks each against numpy):

* the generator is Philox4x64-10 (J. K. Salmon, M. A. Moraes, R. O. Dror
  and D. E. Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC11):
  ten rounds on a 256-bit counter of four 64-bit words under a 128-bit
  key, each round two 64x64 -> 128-bit multiplies, done here with uint64
  ufuncs on 32-bit limbs.  The ten rounds are one loop, the same code
  each time, from the counter to the output words;
* the counter of trial ``i`` is ``(i + 1, 0, 0, 0)``.  numpy's Philox
  raises its counter by one before it makes each block, and
  ``advance(start)`` sets the counter to ``start``, so trial ``i`` of any
  call reads the block of counter ``i + 1``.  A range must stay in the
  first word, so its trials end by ``2**64 - 1`` (``_COUNTER_END``);
* the four output words of a block are its four draws in order, of
  which a trial reads the first two, and a draw ``w`` is the uniform
  ``(w >> 11) * 2**-53`` of ``Generator.random``.

Normals are produced by inverse-CDF transform of the block's uniforms,
which keeps the draw count per trial fixed (rejection samplers do not).
The inverse CDF is :func:`qmemsim._solvers.ndtri`, a numpy port of
Cephes' ``ndtri`` that returns the same bytes as ``scipy.special.ndtri``,
so sampling needs numpy alone.  Both the rounds and ``ndtri`` run on
blocks of ``_NDTRI_BLOCK_ROWS`` trials, in buffers made once per call, so
the temporaries stay a fixed size however many trials a call draws; being
elementwise, the blocks give the bytes of one call on the whole range.

``SeedSequence`` and the Philox bit generator are numpy's code, under
numpy's notice:

    Copyright (c) 2005-2025, NumPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

        * Redistributions of source code must retain the above copyright
           notice, this list of conditions and the following disclaimer.

        * Redistributions in binary form must reproduce the above
           copyright notice, this list of conditions and the following
           disclaimer in the documentation and/or other materials provided
           with the distribution.

        * Neither the name of the NumPy Developers nor the names of any
           contributors may be used to endorse or promote products derived
           from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

and numpy's Philox is Random123's ``philox.h``, under its notice:

    Copyright 2010-2012, D. E. Shaw Research.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

    * Redistributions of source code must retain the above copyright
      notice, this list of conditions, and the following disclaimer.

    * Redistributions in binary form must reproduce the above copyright
      notice, this list of conditions, and the following disclaimer in the
      documentation and/or other materials provided with the distribution.

    * Neither the name of D. E. Shaw Research nor the names of its
      contributors may be used to endorse or promote products derived from
      this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import operator

import numpy as np

from ._solvers import ndtri

__all__ = ["stream_key", "trial_normals"]

# trials per block of rounds and per ndtri call; each of the limb buffers
# is (2, this) uint64, 64 KiB, under glibc's 128 KiB mmap threshold
_NDTRI_BLOCK_ROWS = 4096
# the last counter that the first word of the Philox counter holds
_COUNTER_END = 2**64 - 1

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
# the same as uint64 scalars, which numpy takes faster than Python ints
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)

# SeedSequence (numpy's bit_generator.pyx): the hash constants of its
# 4-word uint32 pool
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Random123's philox.h): the round multipliers of counter
# words 0 and 2, and the Weyl increments that bump the key's two words
# from one round to the next
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10
# the multipliers as (2, 1) uint64 columns, whole and as 32-bit limbs, for
# both multiplied words at once
_MUL = tuple(np.array([[m] for m in ms], dtype=np.uint64) for ms in (
    _PHILOX_M, [m & _MASK32 for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M]))

# a uniform is (w >> 11) * 2**-53 and the sampler reads it as u + 2**-54, in
# (0, 1), so the inverse normal CDF never sees an endpoint.  That sum is
# exactly ((w >> 10) | 1) * 2**-54: the integer's conversion to a double
# rounds once, as the sum did, and the power of two scales exactly.
_DRAW_SHIFT = 10
_DRAW_SCALE = 2.0**-54


def _uint32_words(value):
    """SeedSequence's uint32 words of a nonnegative int, low word first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_pool(entropy):
    """SeedSequence's pool: the entropy words hash-mixed into four uint32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    # mix every pool word into every other, so late words reach early ones
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # then each word past the pool's size into every pool word
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _index(name, value):
    """``value`` as an int; floats, bools and other non-integers raise TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def stream_key(seed, *tags):
    """Derive an independent 128-bit Philox key from a seed and tags.

    The key is ``SeedSequence([seed, *tags]).generate_state(2, np.uint64)``,
    each value taken modulo 2**64.  The seed and tags must be integers
    (numpy's integer types included); others raise ``TypeError``.
    """
    values = [_index("seed", seed), *(_index("tag", tag) for tag in tags)]
    entropy = [word for value in values for word in _uint32_words(value & _MASK64)]
    pool = _seed_pool(entropy)
    hash_const = _INIT_B
    state = []
    for i in range(4):  # two uint64, low uint32 first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32], dtype=np.uint64)


def _mulhilo(a, mul, lo, hi, s, t):
    """Write the low and high words of ``m * a`` to ``lo`` and ``hi``.

    ``mul`` is ``(m, m_lo, m_hi)``, columns of the multipliers and their
    32-bit limbs.  ``a`` and the scratch ``s`` and ``t`` are overwritten.
    """
    m, m_lo, m_hi = mul
    np.multiply(a, m, out=lo)  # uint64 products wrap: the low word
    np.bitwise_and(a, _LOW32, out=s)  # a_lo
    np.right_shift(a, _SHIFT32, out=hi)  # a_hi
    np.multiply(s, m_lo, out=t)
    np.right_shift(t, _SHIFT32, out=t)  # carry of a_lo * m_lo
    np.multiply(s, m_hi, out=s)
    np.add(s, t, out=s)  # u = a_lo * m_hi + carry, below 2**64
    np.bitwise_and(s, _LOW32, out=t)
    np.right_shift(s, _SHIFT32, out=s)
    np.multiply(hi, m_lo, out=a)
    np.add(a, t, out=a)  # v = a_hi * m_lo + (u & MASK32), below 2**64
    np.right_shift(a, _SHIFT32, out=a)
    np.multiply(hi, m_hi, out=hi)
    np.add(hi, s, out=hi)
    np.add(hi, a, out=hi)  # a_hi * m_hi + (u >> 32) + (v >> 32)


def _philox_words(first, keys, buffers):
    """The first two output words of the blocks of counters ``first + 1 + j``.

    Returns them as views of ``buffers``: six (2, n) uint64 arrays, one
    column for each of the n counters.  ``keys`` holds each round's key as
    a (2, 1) uint64 column, in a (10, 2, 1) array.  A round maps the
    counter ``(c0, c1, c2, c3)`` to ``(hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1,
    lo0)``, where ``(hi0, lo0)`` is the 128-bit product ``M0 * c0`` and
    ``(hi2, lo2)`` is ``M1 * c2``.  Rows 0 and 1 of ``a`` hold ``(c0, c2)``
    and those of ``b`` hold ``(c3, c1)``, so a round's ``lo`` is the next
    round's ``b`` under a new name.
    """
    a, b, lo, hi, s, t = buffers
    np.add(np.arange(a.shape[1], dtype=np.uint64), np.uint64(first + 1), out=a[0])
    a[1].fill(0)
    b.fill(0)
    for key in keys:
        _mulhilo(a, _MUL, lo, hi, s, t)
        np.bitwise_xor(hi, b, out=hi)
        np.bitwise_xor(hi[::-1], key, out=a)
        b, lo = lo, b
    return a[0], b[1]


def trial_normals(key, start_trial, n_trials):
    """Two standard normals for each trial in [start_trial, start_trial + n_trials).

    Returns an array of shape ``(n_trials, 2)``; row ``i`` is the
    randomness of trial ``start_trial + i`` and is independent of how the
    overall range is split into calls.  The range must end by
    ``2**64 - 1``, the counters that one 64-bit word holds.
    """
    start_trial = _index("start_trial", start_trial)
    n_trials = _index("n_trials", n_trials)
    if n_trials < 0 or start_trial < 0:
        raise ValueError("trial range must be nonnegative")
    if start_trial + n_trials > _COUNTER_END:
        raise ValueError(
            "trial range must end by 2**64 - 1, the counters of one 64-bit word;"
            f" got start_trial + n_trials = {start_trial + n_trials}")
    normals = np.empty((n_trials, 2))
    if n_trials == 0:
        return normals
    # round r's key is the key plus r Weyl increments, modulo 2**64 as uint64
    # arrays wrap
    keys = (np.asarray(key, dtype=np.uint64).reshape(2, 1)
            + np.arange(_ROUNDS, dtype=np.uint64).reshape(-1, 1, 1) * _WEYL)
    rows = min(n_trials, _NDTRI_BLOCK_ROWS)
    # numpy 2.4 runs a contiguous (2, n) array times a (2, 1) column at about
    # half speed; rows cut from (2, n + 1) arrays are not contiguous
    buffers = [np.empty((2, rows + 1), dtype=np.uint64)[:, :rows] for _ in range(6)]
    uniforms = np.empty((2, rows))
    for start in range(0, n_trials, rows):
        n = min(rows, n_trials - start)
        block = [buffer[:, :n] for buffer in buffers]
        draws = block[4]  # scratch of the rounds, free once the words are made
        for i, word in enumerate(_philox_words(start_trial + start, keys, block)):
            np.right_shift(word, _DRAW_SHIFT, out=draws[i])
        np.bitwise_or(draws, 1, out=draws)
        np.multiply(draws, _DRAW_SCALE, out=uniforms[:, :n])
        normals[start:start + n] = ndtri(uniforms[:, :n]).T
    return normals
