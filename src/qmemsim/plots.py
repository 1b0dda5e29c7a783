"""Self-contained SVG emission (no rendering dependencies).

Charts are plain text with a fixed viewBox so byte-identical reruns are
possible; only the data determines the output.  Each chart is written to
the text file object passed as ``file``, as it is formatted: a histogram's
bars go out ``_BAR_BLOCK`` at a time, so the text in memory stays a few
hundred KiB at any bin count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["histogram_svg", "line_svg"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 50
_BAR_BLOCK = 4096  # bars per write
_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
         '<rect width="100%" height="100%" fill="white"/>')


def _axes(x0, y0, x1, y1):
    return (
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )


def _to_pixels(values, lo, span, px_lo, px_hi):
    """``values`` mapped so that ``lo`` lands on ``px_lo`` and ``lo + span`` on
    ``px_hi``.  The order of the operations is part of the output: another order
    can move a last bit, and with it a digit that ``tests/test_plots.py`` pins."""
    return px_lo + (np.asarray(values, dtype=float) - lo) / span * (px_hi - px_lo)


def _points(xs, ys):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _text(x, y, content, size, anchor=None, extra=""):
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{content}</text>')


def _svg(file, parts):
    """Write the header, each of ``parts`` on a line of its own, and the end tag."""
    file.write(_HEAD + "\n")
    for part in parts:
        file.write(part + "\n")
    file.write("</svg>\n")


def histogram_svg(series, titles=None, *, file):
    """Side-by-side histogram panels with dotted reference Gaussians, written
    to the text file object ``file``.

    ``series`` is a list of :class:`~qmemsim.montecarlo.HistogramSeries`;
    each reference curve shows the ideal-memory outcome distribution,
    scaled to the panel's count axis.
    """
    if not series:
        raise ValueError("no histogram series")
    _svg(file, _histogram_parts(series, titles or [f"series {i}" for i in range(len(series))]))


def _histogram_parts(series, titles):
    panel_w = (_WIDTH - 2 * _MARGIN) / len(series)
    y_top, y_bot = 40, _HEIGHT - _MARGIN
    for idx, (hist, title) in enumerate(zip(series, titles)):
        x_left = _MARGIN + idx * panel_w
        x_right = x_left + panel_w - 20
        edges = np.asarray(hist.bin_edges)
        counts = np.asarray(hist.counts, dtype=float)
        span = edges[-1] - edges[0]
        peak = max(counts.max(), 1.0)
        # dotted ideal-memory reference, area-matched to the histogram
        xs = np.linspace(edges[0], edges[-1], 120)
        bin_w = edges[1] - edges[0]
        norm = hist.n_trials * bin_w / (hist.ref_sd * np.sqrt(2 * np.pi))
        ys = norm * np.exp(-0.5 * ((xs - hist.ref_mean) / hist.ref_sd) ** 2)

        edge_px = _to_pixels(edges, edges[0], span, x_left, x_right)
        filled = counts != 0
        bar_x = edge_px[:-1][filled]
        bar_w = edge_px[1:][filled] - bar_x
        bar_y = _to_pixels(counts[filled], 0, peak, y_bot, y_top)
        bar_h = y_bot - bar_y
        yield _text(f"{(x_left + x_right) / 2:.1f}", 30, title, 13, "middle")
        yield _axes(f"{x_left:.1f}", y_top, f"{x_right:.1f}", y_bot)
        for start in range(0, bar_x.size, _BAR_BLOCK):
            block = slice(start, start + _BAR_BLOCK)
            yield "\n".join(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="#7799cc" stroke="#335588" stroke-width="0.5"/>'
                for x, y, w, h in zip(bar_x[block].tolist(), bar_y[block].tolist(),
                                      bar_w[block].tolist(), bar_h[block].tolist())
            )
        pts = _points(_to_pixels(xs, edges[0], span, x_left, x_right),
                      _to_pixels(np.minimum(ys, peak), 0, peak, y_bot, y_top))
        yield f'<polyline points="{pts}" fill="none" stroke="black" stroke-dasharray="3,3"/>'
        for v, px in ((edges[0], edge_px[0]), (edges[-1], edge_px[-1])):
            yield _text(f"{px:.1f}", y_bot + 16, f"{v:.2f}", 10, "middle")


def line_svg(x, curves, x_label="", y_label="", hlines=(), *, file):
    """Line chart of one or more named curves over a common x grid, written to
    the text file object ``file``.

    ``curves`` maps label -> y array; ``hlines`` is a list of
    ``(label, value)`` horizontal reference lines (drawn dashed).
    """
    x = np.asarray(x, dtype=float)
    if not curves:
        raise ValueError("no curves")
    levels = [v for _, v in hlines]
    y_all = np.concatenate([*(np.asarray(y, float) for y in curves.values()), levels])
    y_min, y_max = float(y_all.min()), float(y_all.max())
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min, y_max = y_min - pad, y_max + pad
    x0, x1 = _MARGIN, _WIDTH - 20
    y_top, y_bot = 30, _HEIGHT - _MARGIN
    # one time point: drawn at the left edge
    x_px = _to_pixels(x, x[0], x[-1] - x[0] or 1.0, x0, x1)

    def to_y(values):
        return _to_pixels(values, y_min, y_max - y_min, y_bot, y_top)

    palette = ["#225588", "#bb4422", "#338844", "#774499"]
    parts = [_axes(x0, y_top, x1, y_bot)]
    for i, (label, ys) in enumerate(curves.items()):
        color = palette[i % len(palette)]
        parts.append(f'<polyline points="{_points(x_px, to_y(ys))}" fill="none" '
                     f'stroke="{color}"/>')
        parts.append(_text(x1 - 6, 30 + 14 * i, label, 11, "end", f' fill="{color}"'))
    for (label, _), yy in zip(hlines, to_y(levels)):
        parts.append(f'<line x1="{x0}" y1="{yy:.2f}" x2="{x1}" y2="{yy:.2f}" '
                     f'stroke="#555555" stroke-dasharray="5,4"/>')
        parts.append(_text(x0 + 4, f"{yy - 4:.2f}", label, 10, extra=' fill="#555555"'))
    for v, px, anchor in ((x[0], x_px[0], "start"), (x[-1], x_px[-1], "end")):
        parts.append(_text(f"{px:.1f}", y_bot + 16, f"{v:.2f}", 10, anchor))
    ticks = (y_min + pad, y_max - pad)
    for v, py in zip(ticks, to_y(ticks)):
        parts.append(_text(x0 - 6, f"{py + 3:.1f}", f"{v:.2f}", 10, "end"))
    if x_label:
        parts.append(_text((x0 + x1) / 2, _HEIGHT - 12, x_label, 12, "middle"))
    if y_label:
        mid = (y_top + y_bot) / 2
        rotate = f' transform="rotate(-90 14 {mid})"'
        parts.append(_text(14, mid, y_label, 12, "middle", rotate))
    _svg(file, parts)
