"""Counter-based stream and kernel-backend tests."""

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from numpy.testing import assert_allclose

from qmemsim import kernels
from qmemsim._solvers import ndtri
from qmemsim.rng import (
    _COUNTER_END, _NDTRI_BLOCK_ROWS, stream_key, trial_normals,
)

# Generator.random draws of one Philox counter block, of which a trial
# reads the first two
DRAWS_PER_BLOCK = 4


def numpy_normals(key, start, n_trials):
    """The oracle of the port: numpy's Philox stream, read as trial_normals reads it."""
    bg = Philox(key=key)
    bg.advance(start)
    u = Generator(bg).random(n_trials * DRAWS_PER_BLOCK).reshape(n_trials, -1)
    return ndtri(u[:, :2] + 2.0**-54)


def stream_key_cases():
    """300 seeded (seed, tags) cases, the int64 extremes among them."""
    rng = np.random.default_rng(2024)
    cases = [(seed, tags) for seed in (0, -1, -2**63, 2**63 - 1)
             for tags in ((), (0,), (1, 2), (2**63, 0, 7))]
    while len(cases) < 300:
        seed = int(rng.integers(-2**63, 2**63 - 1, endpoint=True))
        tags = tuple(int(rng.integers(0, 2**int(rng.integers(1, 65)), dtype=np.uint64))
                     for _ in range(int(rng.integers(0, 4))))
        cases.append((seed, tags))
    return cases


def loop_bin_sweep(kappa_cos, kappa_sin, vectors):
    """Reference sweep: the documented per-bin kicks, one bin at a time."""
    n_bins = kappa_cos.shape[0]
    base = 2 * n_bins
    xa, pa, xb, pb = base, base + 1, base + 2, base + 3
    for i in range(n_bins):
        kc = kappa_cos[i]
        ks = kappa_sin[i]
        xi = 2 * i
        pi = xi + 1
        vectors[xi] += kc * vectors[pa] - ks * vectors[xb]
        vectors[xa] += kc * vectors[pi]
        vectors[pb] += ks * vectors[pi]
    return vectors


class TestTrialNormals:
    def test_block_splitting_is_schedule_independent(self):
        key = stream_key(99, 1)
        whole = trial_normals(key, 0, 1000)
        pieces = [
            trial_normals(key, start, count)
            for start, count in ((0, 137), (137, 363), (500, 500))
        ]
        assert np.array_equal(np.vstack(pieces), whole)

    def test_out_of_order_chunks_reassemble(self):
        key = stream_key(5)
        whole = trial_normals(key, 0, 300)
        chunks = {
            start: trial_normals(key, start, 100)
            for start in (200, 0, 100)
        }
        reassembled = np.vstack([chunks[0], chunks[100], chunks[200]])
        assert np.array_equal(reassembled, whole)

    def test_distinct_tags_decorrelate(self):
        a = trial_normals(stream_key(7, 0), 0, 4096).ravel()
        b = trial_normals(stream_key(7, 1), 0, 4096).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_normal_moments(self):
        z = trial_normals(stream_key(123), 0, 400_000).ravel()
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert z.var(ddof=1) == pytest.approx(1.0, abs=0.01)
        assert np.all(np.isfinite(z))

    def test_negative_ranges_are_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trial_normals(stream_key(1), -1, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            trial_normals(stream_key(1), 0, -1)

    def test_empty_range(self):
        assert trial_normals(stream_key(1), 0, 0).shape == (0, 2)

    @pytest.mark.parametrize("start", [0, 70_001])
    @pytest.mark.parametrize("n_trials", [1, _NDTRI_BLOCK_ROWS - 1, _NDTRI_BLOCK_ROWS,
                                          _NDTRI_BLOCK_ROWS + 1, 3 * _NDTRI_BLOCK_ROWS + 7])
    def test_blocks_give_the_bytes_of_one_ndtri_call(self, start, n_trials):
        key = stream_key(11, 1)
        bg = Philox(key=key)
        bg.advance(start)
        u = Generator(bg).random(n_trials * DRAWS_PER_BLOCK).reshape(n_trials, -1)
        whole = ndtri(u[:, :2] + 2.0**-54)
        blocked = trial_normals(key, start, n_trials)
        assert blocked.shape == whole.shape == (n_trials, 2)
        assert blocked.tobytes() == whole.tobytes()

    def test_stream_key_is_numpys_seed_sequence(self):
        for seed, tags in stream_key_cases():
            entropy = [value & 0xFFFFFFFF_FFFFFFFF for value in (seed, *tags)]
            expected = SeedSequence(entropy).generate_state(2, np.uint64)
            key = stream_key(seed, *tags)
            assert key.dtype == np.uint64
            assert key.tobytes() == expected.tobytes(), (seed, tags)

    @pytest.mark.parametrize("start, n_trials", [
        (4099, 20_000),  # the chunk size of perfbench's chunking check
        (1, _NDTRI_BLOCK_ROWS + 3),
        (2**32 - 5, 10),  # counters that cross into a second 32-bit limb
        (_COUNTER_END - 1, 1),  # the last counter of the first word
        (_COUNTER_END - (_NDTRI_BLOCK_ROWS + 5), _NDTRI_BLOCK_ROWS + 5),
    ])
    def test_unaligned_and_top_starts_match_numpy(self, start, n_trials):
        key = stream_key(3, 1)
        expected = numpy_normals(key, start, n_trials)
        assert trial_normals(key, start, n_trials).tobytes() == expected.tobytes()

    def test_numpy_integers_are_taken(self):
        key = stream_key(4, 1)
        expected = trial_normals(key, 5, 7)
        got = trial_normals(stream_key(np.int64(4), np.uint8(1)), np.int64(5), np.uint32(7))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start, n_trials", [
        (0.5, 10),  # read as trial 0's normals before
        (0, 10.0),
        (True, 10),
        (0, True),
        ("0", 10),
    ])
    def test_non_integers_are_refused(self, start, n_trials):
        with pytest.raises(TypeError):
            trial_normals(stream_key(1), start, n_trials)

    @pytest.mark.parametrize("seed, tags", [
        (1.5, ()),  # read as seed 1 before
        (np.float64(2.0), ()),
        ("7", ()),
        (True, ()),
        (1, (0.5,)),
        (1, (0, False)),
    ])
    def test_stream_key_refuses_non_integers(self, seed, tags):
        with pytest.raises(TypeError, match="must be an integer"):
            stream_key(seed, *tags)

    @pytest.mark.parametrize("start, n_trials", [
        (2**256, 1),  # numpy's advance wraps the 256-bit counter to trial 0
        (_COUNTER_END, 1),
        (0, _COUNTER_END + 1),
        (2**64, 0),
    ])
    def test_counters_past_one_word_are_refused(self, start, n_trials):
        with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
            trial_normals(stream_key(1), start, n_trials)

    def test_range_may_end_at_the_last_counter(self):
        assert trial_normals(stream_key(1), _COUNTER_END - 1, 1).shape == (1, 2)
        assert trial_normals(stream_key(1), _COUNTER_END, 0).shape == (0, 2)


class TestKernelBackends:
    def test_selected_backend_reported(self):
        assert kernels.BACKEND == "python"

    @pytest.mark.parametrize(
        "bins, columns",
        [
            (10, 1),
            (10_000, 1),  # one column: numpy would sum a reduce pairwise
            (40_000, 8),  # several blocks
            (3 * (kernels._BLOCK_CELLS // 8) + 17, 8),  # last block partial
            (1200, 2404),  # every unit vector of a 1200-bin map
        ],
    )
    def test_bin_sweep_matches_loop_bit_for_bit(self, bins, columns):
        rng = np.random.default_rng(bins + columns)
        kc = 0.02 * rng.normal(size=bins)
        ks = 0.02 * rng.normal(size=bins)
        base = rng.normal(size=(2 * bins + 4, columns))
        expected = loop_bin_sweep(kc, ks, base.copy())
        assert np.array_equal(kernels.bin_sweep(kc, ks, base), expected)

    def test_python_bin_sweep_small_example(self):
        # one bin, cosine weight only: x0 += kc * P_A, X_A += kc * p0
        kc = np.array([0.5])
        ks = np.array([0.0])
        vectors = np.zeros((6, 6))
        np.fill_diagonal(vectors, 1.0)
        out = kernels.bin_sweep(kc, ks, vectors)
        expected = np.eye(6)
        expected[0, 3] = 0.5  # x0 row picks up P_A column
        expected[2, 1] = 0.5  # X_A row picks up p0 column
        assert_allclose(out, expected)
