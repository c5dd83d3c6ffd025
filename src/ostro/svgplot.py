"""Dependency-free deterministic SVG scatter/line plot on log-log axes.

Byte-identical output for identical input: fixed canvas, fixed decimal
formatting, no timestamps.
"""

from __future__ import annotations

import math

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _decades(lo: float, hi: float) -> tuple[int, int]:
    d0 = math.floor(math.log10(lo))
    d1 = math.ceil(math.log10(hi))
    if d1 <= d0:
        d1 = d0 + 1
    return d0, d1


def render_quality_plot(points: list[tuple[float, float]]) -> str:
    """SVG of quality (y) vs i (x) with both axes logarithmic.

    Points with a nonpositive or non-finite coordinate cannot be placed on
    log axes and are dropped.  An empty point list yields axes only.
    """
    pts = sorted((x, y) for x, y in points
                 if 0 < x < math.inf and 0 < y < math.inf)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    if pts:
        x0, x1 = _decades(pts[0][0], pts[-1][0])
        ylo = min(y for _, y in pts)
        yhi = max(y for _, y in pts)
        y0, y1 = _decades(ylo, yhi)

        def sx(x: float) -> float:
            return _ML + (math.log10(x) - x0) / (x1 - x0) * (_W - _ML - _MR)

        def sy(y: float) -> float:
            return _H - _MB - (math.log10(y) - y0) / (y1 - y0) * (_H - _MT - _MB)

        for d in range(x0, x1 + 1):
            gx = sx(10.0**d)
            parts.append(
                f'<line x1="{_fmt(gx)}" y1="{_MT}" x2="{_fmt(gx)}" '
                f'y2="{_H - _MB}" stroke="#cccccc"/>')
            parts.append(
                f'<text x="{_fmt(gx)}" y="{_H - _MB + 18}" font-size="12" '
                f'text-anchor="middle">1e{d}</text>')
        for d in range(y0, y1 + 1):
            gy = sy(10.0**d)
            parts.append(
                f'<line x1="{_ML}" y1="{_fmt(gy)}" x2="{_W - _MR}" '
                f'y2="{_fmt(gy)}" stroke="#cccccc"/>')
            parts.append(
                f'<text x="{_ML - 6}" y="{_fmt(gy + 4)}" font-size="12" '
                f'text-anchor="end">1e{d}</text>')
        path = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#1f77b4" '
            f'stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                f'fill="#1f77b4"/>')
    parts.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" font-size="14" '
        'text-anchor="middle">i</text>')
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) // 2}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(_MT + _H - _MB) // 2})">quality</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
