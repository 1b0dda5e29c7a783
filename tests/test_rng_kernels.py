"""Counter-based stream and kernel-backend tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmemsim import kernels
from qmemsim.rng import stream_key, trial_normals


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
        whole = trial_normals(key, 0, 1000, width=2)
        pieces = [
            trial_normals(key, start, count, width=2)
            for start, count in ((0, 137), (137, 363), (500, 500))
        ]
        assert np.array_equal(np.vstack(pieces), whole)

    def test_out_of_order_chunks_reassemble(self):
        key = stream_key(5)
        whole = trial_normals(key, 0, 300, width=3)
        chunks = {
            start: trial_normals(key, start, 100, width=3)
            for start in (200, 0, 100)
        }
        reassembled = np.vstack([chunks[0], chunks[100], chunks[200]])
        assert np.array_equal(reassembled, whole)

    def test_distinct_tags_decorrelate(self):
        a = trial_normals(stream_key(7, 0), 0, 4096, width=1).ravel()
        b = trial_normals(stream_key(7, 1), 0, 4096, width=1).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_normal_moments(self):
        z = trial_normals(stream_key(123), 0, 200_000, width=4).ravel()
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert z.var(ddof=1) == pytest.approx(1.0, abs=0.01)
        assert np.all(np.isfinite(z))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            trial_normals(stream_key(1), 0, 10, width=5)
        with pytest.raises(ValueError):
            trial_normals(stream_key(1), -1, 10)

    def test_empty_range(self):
        assert trial_normals(stream_key(1), 0, 0).shape == (0, 2)


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
