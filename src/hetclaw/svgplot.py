"""Minimal SVG polyline plots for quick looks at emitted curves.

Deliberately tiny: fixed viewport, a handful of stroke colors, min/max
tick labels.  Publication figures belong to whatever plotting tool reads
the CSV files; this exists so a run can be eyeballed without one.
"""

from __future__ import annotations

import numpy as np

_PALETTE = ("#1f6fb2", "#b2521f", "#3a9a3a", "#8a3ab2", "#b21f45",
            "#1fb2a4", "#77771f")


def _finite_minmax(arrays):
    lo = min(float(np.min(a)) for a in arrays if len(a))
    hi = max(float(np.max(a)) for a in arrays if len(a))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("curves contain non-finite bounds")
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def write_svg(path, curves, title: str, header_comment: str) -> None:
    """Write polyline curves to an SVG file under a header comment.

    Each curve is (xs, ys, label); labels stack in the top right corner
    in their stroke color.
    """
    width, height = 720, 460
    curves = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
               label) for xs, ys, label in curves]
    if not curves:
        raise ValueError("no curves to plot")
    m = 52
    x_lo, x_hi = _finite_minmax([c[0] for c in curves])
    y_lo, y_hi = _finite_minmax([c[1] for c in curves])

    def px(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (width - 2 * m)

    def py(y):
        return height - m - (y - y_lo) / (y_hi - y_lo) * (height - 2 * m)

    parts = [f"<!-- {header_comment} -->",
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(f'<rect x="{m}" y="{m}" width="{width - 2 * m}" '
                 f'height="{height - 2 * m}" fill="none" stroke="#888"/>')
    for frac in (0.0, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{px(xv):.1f}" y="{height - m + 16}" '
                     f'font-size="11" text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<text x="{m - 6}" y="{py(yv):.1f}" font-size="11" '
                     f'text-anchor="end">{yv:.4g}</text>')
    if y_lo < 0.0 < y_hi:
        parts.append(f'<line x1="{m}" y1="{py(0):.1f}" x2="{width - m}" '
                     f'y2="{py(0):.1f}" stroke="#ccc"/>')
    for i, (xs, ys, label) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.4"/>')
        parts.append(f'<text x="{width - m - 4}" y="{m + 14 + 14 * i}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{m - 12}" '
                 f'font-size="14" text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
