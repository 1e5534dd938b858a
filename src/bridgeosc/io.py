"""CSV/SVG output helpers for the scenario runner.

Tables are written at full float precision and plots are self-contained SVG
polylines with fixed formatting, so repeated runs produce byte-identical
artifacts.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_csv(path, header: Sequence[str], table) -> None:
    """Write a header line, then one row per table row with every value
    formatted %.17g (integral values print without a decimal point)."""
    rows = np.asarray(table, dtype=float).tolist()
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def svg_line_plot(path, xs, series: Sequence, labels: Optional[Sequence[str]] = None,
                  title: str = "", width: int = 720, height: int = 400) -> None:
    """Write a simple multi-series line plot; series share the x grid."""
    xs = np.asarray(xs, dtype=float)
    ys_list = [np.asarray(s, dtype=float) for s in series]
    margin = 50
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo = min(float(np.min(y)) for y in ys_list)
    y_hi = max(float(np.max(y)) for y in ys_list)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    sx = (width - 2 * margin) / (x_hi - x_lo)
    sy = (height - 2 * margin) / (y_hi - y_lo)

    def px(x):
        return margin + (x - x_lo) * sx

    def py(y):
        return height - margin - (y - y_lo) * sy

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333"/>',
    ]
    if title:
        lines.append(f'<text x="{width // 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    # axis extremes
    lines.append(f'<text x="{margin}" y="{height - margin + 18}" '
                 f'font-family="sans-serif" font-size="11">{_fmt(x_lo)}</text>')
    lines.append(f'<text x="{width - margin}" y="{height - margin + 18}" '
                 f'text-anchor="end" font-family="sans-serif" font-size="11">'
                 f'{_fmt(x_hi)}</text>')
    lines.append(f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{_fmt(y_lo)}</text>')
    lines.append(f'<text x="{margin - 6}" y="{margin + 4}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{_fmt(y_hi)}</text>')
    for i, ys in enumerate(ys_list):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        if labels and i < len(labels):
            lines.append(f'<text x="{width - margin - 6}" '
                         f'y="{margin + 16 + 14 * i}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="11" '
                         f'fill="{color}">{labels[i]}</text>')
    lines.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
