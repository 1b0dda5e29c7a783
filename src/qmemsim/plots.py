"""Self-contained SVG emission (no rendering dependencies).

Charts are plain text with a fixed viewBox so byte-identical reruns are
possible; only the data determines the output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["histogram_svg", "line_svg"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 50


def _fmt(value):
    return f"{value:.2f}"


def _axes(x0, y0, x1, y1):
    return (
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )


def histogram_svg(series, titles=None):
    """Side-by-side histogram panels with dotted reference Gaussians.

    ``series`` is a list of :class:`~qmemsim.montecarlo.HistogramSeries`;
    each reference curve shows the ideal-memory outcome distribution,
    scaled to the panel's count axis.
    """
    n_panels = len(series)
    if n_panels == 0:
        raise ValueError("no histogram series")
    titles = titles or [f"series {i}" for i in range(n_panels)]
    panel_w = (_WIDTH - 2 * _MARGIN) / n_panels

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    y_top, y_bot = 40, _HEIGHT - _MARGIN
    for idx, (hist, title) in enumerate(zip(series, titles)):
        x_left = _MARGIN + idx * panel_w
        x_right = x_left + panel_w - 20
        edges = np.asarray(hist.bin_edges)
        counts = np.asarray(hist.counts, dtype=float)
        span = edges[-1] - edges[0]
        peak = max(counts.max(), 1.0)

        def to_x(v):
            return x_left + (v - edges[0]) / span * (x_right - x_left)

        def to_y(c):
            return y_bot - c / peak * (y_bot - y_top)

        parts.append(
            f'<text x="{(x_left + x_right) / 2:.1f}" y="30" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{title}</text>'
        )
        parts.append(_axes(f"{x_left:.1f}", y_top, f"{x_right:.1f}", y_bot))
        for i, c in enumerate(counts):
            if c == 0:
                continue
            bx = to_x(edges[i])
            bw = to_x(edges[i + 1]) - bx
            by = to_y(c)
            parts.append(
                f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bw:.2f}" '
                f'height="{y_bot - by:.2f}" fill="#7799cc" '
                f'stroke="#335588" stroke-width="0.5"/>'
            )
        # dotted ideal-memory reference, area-matched to the histogram
        xs = np.linspace(edges[0], edges[-1], 120)
        bin_w = edges[1] - edges[0]
        norm = hist.n_trials * bin_w / (hist.ref_sd * np.sqrt(2 * np.pi))
        ys = norm * np.exp(-0.5 * ((xs - hist.ref_mean) / hist.ref_sd) ** 2)
        pts = " ".join(
            f"{to_x(x):.2f},{to_y(min(y, peak)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-dasharray="3,3"/>'
        )
        for v in (edges[0], edges[-1]):
            parts.append(
                f'<text x="{to_x(v):.1f}" y="{y_bot + 16}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="10">{_fmt(v)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_svg(x, curves, x_label="", y_label="", hlines=()):
    """Line chart of one or more named curves over a common x grid.

    ``curves`` maps label -> y array; ``hlines`` is a list of
    ``(label, value)`` horizontal reference lines (drawn dashed).
    """
    x = np.asarray(x, dtype=float)
    if not curves:
        raise ValueError("no curves")
    y_all = np.concatenate([np.asarray(y, float) for y in curves.values()])
    y_all = np.concatenate([y_all, [v for _, v in hlines]]) if hlines else y_all
    y_min, y_max = float(y_all.min()), float(y_all.max())
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min, y_max = y_min - pad, y_max + pad
    x_span = x[-1] - x[0] or 1.0  # one time point: drawn at the left edge
    x0, x1 = _MARGIN, _WIDTH - 20
    y_top, y_bot = 30, _HEIGHT - _MARGIN

    def to_x(v):
        return x0 + (v - x[0]) / x_span * (x1 - x0)

    def to_y(v):
        return y_bot - (v - y_min) / (y_max - y_min) * (y_bot - y_top)

    palette = ["#225588", "#bb4422", "#338844", "#774499"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        _axes(x0, y_top, x1, y_bot),
    ]
    for i, (label, ys) in enumerate(curves.items()):
        color = palette[i % len(palette)]
        pts = " ".join(
            f"{to_x(xv):.2f},{to_y(yv):.2f}" for xv, yv in zip(x, ys)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{x1 - 6}" y="{30 + 14 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    for label, value in hlines:
        yy = to_y(value)
        parts.append(
            f'<line x1="{x0}" y1="{yy:.2f}" x2="{x1}" y2="{yy:.2f}" '
            f'stroke="#555555" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{x0 + 4}" y="{yy - 4:.2f}" font-family="sans-serif" '
            f'font-size="10" fill="#555555">{label}</text>'
        )
    for v, anchor in ((x[0], "start"), (x[-1], "end")):
        parts.append(
            f'<text x="{to_x(v):.1f}" y="{y_bot + 16}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="10">{_fmt(v)}</text>'
        )
    for v in (y_min + pad, y_max - pad):
        parts.append(
            f'<text x="{x0 - 6}" y="{to_y(v) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(v)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{(y_top + y_bot) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(y_top + y_bot) / 2})">{y_label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
