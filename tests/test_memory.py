"""Peak memory of the store path's two transients that do not grow with the
trials it keeps: the sampler's inverse CDF and the histogram SVG.

``tracemalloc`` traces numpy's array buffers as well as Python objects, so
each peak below repeats exactly from run to run.  Drawn whole, the
inverse CDF of a 65 536-trial chunk peaked at about 9 MiB, and the SVG of
two 1e5-bin panels at about 50 MiB.
"""

import hashlib
import io
import tracemalloc

from qmemsim import plots
from qmemsim.rng import stream_key, trial_normals
from test_plots import histogram

MIB = 2**20


def traced_peak(run):
    """The largest traced allocation total while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Sha256Writer(io.TextIOBase):
    """A text file that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


def test_sampler_chunk_peak():
    key = stream_key(0, 1)
    # 65 536 trials is montecarlo.run_series's chunk; its own output is 1 MiB,
    # and the rounds' limb buffers and uniforms of one block are 448 KiB
    assert traced_peak(lambda: trial_normals(key, 0, 1 << 16)) < 2.5 * MIB


def test_histogram_svg_at_the_bin_cap():
    # the cap of store's histogram_bins, in each of the two panels
    series = [histogram(100_000, -0.25), histogram(100_000, 0.5)]
    # the text is 13.3 MiB, so an io.StringIO would hold more than the bound
    # itself; this file keeps only the digest
    out = Sha256Writer()
    peak = traced_peak(lambda: plots.histogram_svg(
        series, titles=["stored X (rotated readout)", "stored P (direct readout)"], file=out))
    # the bytes that the chart had when it was built as one string
    assert out.sha256.hexdigest() == (
        "db4a5b1164bc23a35cd37e1cc3b4d308d9b1cb1c9ab104a0534c053a45351eb2")
    assert peak < 8 * MIB
