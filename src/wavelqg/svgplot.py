"""Small hand-rolled SVG emitters for sweep output.

Only needs two shapes: a log-log heatmap with the decentralization curve
overlaid, and a log-log multi-line plot.  No plotting dependency is worth
carrying for that.

The heatmap maps each column and row edge to pixels, and formats it, once
per axis, and colours every cell with one vectorized pass of the ramp
(:func:`_colors`); the per-cell loop only joins the prebuilt pieces.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["heatmap_svg", "line_plot_svg"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 96, 34, 48
# canvas sizes in px
_WIDTH, _HEATMAP_HEIGHT, _LINE_PLOT_HEIGHT = 640, 520, 480

# compact perceptual ramp, dark blue -> green -> yellow
_STOPS = np.array([
    (0.267, 0.005, 0.329),
    (0.254, 0.265, 0.530),
    (0.164, 0.471, 0.558),
    (0.135, 0.659, 0.518),
    (0.478, 0.821, 0.318),
    (0.993, 0.906, 0.144),
])


def _colors(t) -> np.ndarray:
    """The ramp's "#rrggbb" colours at each t, clamped to [0, 1]: stop
    interval i, (1 - f) a + f b per channel, rounded half to even."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    if np.isnan(t).any():
        raise ValueError("cannot colour NaN")
    pos = t * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    f = (pos - i)[..., None]
    rgb = np.rint(255 * ((1 - f) * _STOPS[i] + f * _STOPS[i + 1])).astype(int)
    code = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    return np.array([f"#{c:06x}" for c in code.ravel().tolist()],
                    dtype=object).reshape(code.shape)


def _decade_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    return [10.0 ** e for e in range(first, last + 1)]


def _fmt(v: float) -> str:
    exp = math.log10(v)
    if abs(exp - round(exp)) < 1e-9:
        return f"1e{int(round(exp))}"
    return f"{v:g}"


class _LogAxes:
    def __init__(self, xlo, xhi, ylo, yhi, width, height):
        self.xlo, self.xhi = math.log10(xlo), math.log10(xhi)
        self.ylo, self.yhi = math.log10(ylo), math.log10(yhi)
        self.x0, self.y0 = _MARGIN_L, _MARGIN_T
        self.w = width - _MARGIN_L - _MARGIN_R
        self.h = height - _MARGIN_T - _MARGIN_B

    def x(self, v: float) -> float:
        t = (math.log10(v) - self.xlo) / max(self.xhi - self.xlo, 1e-12)
        return self.x0 + t * self.w

    def y(self, v: float) -> float:
        t = (math.log10(v) - self.ylo) / max(self.yhi - self.ylo, 1e-12)
        return self.y0 + (1.0 - t) * self.h


def _frame(ax: _LogAxes, xlabel: str, ylabel: str, title: str,
           xticks, yticks, width, height) -> list[str]:
    out = []
    out.append(f'<rect x="{ax.x0}" y="{ax.y0}" width="{ax.w}" height="{ax.h}" '
               'fill="none" stroke="#444" stroke-width="1"/>')
    out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
               f'font-size="14">{title}</text>')
    for v in xticks:
        px = ax.x(v)
        out.append(f'<line x1="{px:.1f}" y1="{ax.y0 + ax.h}" x2="{px:.1f}" '
                   f'y2="{ax.y0 + ax.h + 4}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{ax.y0 + ax.h + 17}" '
                   f'text-anchor="middle" font-size="11">{_fmt(v)}</text>')
    for v in yticks:
        py = ax.y(v)
        out.append(f'<line x1="{ax.x0 - 4}" y1="{py:.1f}" x2="{ax.x0}" '
                   f'y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{ax.x0 - 7}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{_fmt(v)}</text>')
    out.append(f'<text x="{ax.x0 + ax.w / 2:.1f}" y="{ax.y0 + ax.h + 36}" '
               f'text-anchor="middle" font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{ax.y0 + ax.h / 2:.1f}" text-anchor="middle" '
               f'font-size="12" transform="rotate(-90 16 '
               f'{ax.y0 + ax.h / 2:.1f})">{ylabel}</text>')
    return out


def heatmap_svg(x, y, z, xlabel: str, ylabel: str, title: str,
                curve_xy) -> str:
    """Log-log heatmap of z[j, i] over (x[i], y[j]), colored by log10(z).

    ``curve_xy`` is an (x, y) pair of arrays drawn as a black overlay line;
    only its points inside the axes box are kept.
    """
    width, height = _WIDTH, _HEATMAP_HEIGHT
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (y.size, x.size):
        raise ValueError("z must have shape (len(y), len(x))")
    (xlo, xhi), (ylo, yhi) = (x.min(), x.max()), (y.min(), y.max())
    ax = _LogAxes(xlo, xhi, ylo, yhi, width, height)
    logz = np.log10(np.maximum(z, 1e-300))
    zlo, zhi = float(logz.min()), float(logz.max())
    span = max(zhi - zlo, 1e-12)

    def edges(vals):
        lv = np.log10(vals)
        mids = 0.5 * (lv[:-1] + lv[1:])
        first = lv[0] - (mids[0] - lv[0]) if vals.size > 1 else lv[0] - 0.1
        last = lv[-1] + (lv[-1] - mids[-1]) if vals.size > 1 else lv[0] + 0.1
        return 10.0 ** np.concatenate([[first], mids, [last]])

    # each column's x and width and each row's y and height, formatted once
    px = [ax.x(v) for v in edges(x)]
    py = [ax.y(v) for v in edges(y)]
    cols = [(f"{a:.2f}", f"{b - a:.2f}") for a, b in zip(px, px[1:])]
    rows = [(f"{b:.2f}", f"{a - b:.2f}") for a, b in zip(py, py[1:])]
    fills = _colors((logz - zlo) / span).tolist()
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for (cell_y, cell_h), row_fills in zip(rows, fills):
        parts += [f'<rect x="{cell_x}" y="{cell_y}" width="{cell_w}" '
                  f'height="{cell_h}" fill="{c}"/>'
                  for (cell_x, cell_w), c in zip(cols, row_fills)]
    cx, cy = (np.asarray(v, dtype=float) for v in curve_xy)
    pts = [f"{ax.x(a):.2f},{ax.y(b):.2f}" for a, b in zip(cx, cy)
           if xlo <= a <= xhi and ylo <= b <= yhi]
    if len(pts) >= 2:
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     'stroke="black" stroke-width="2"/>')
    parts += _frame(ax, xlabel, ylabel, title, _decade_ticks(xlo, xhi),
                    _decade_ticks(ylo, yhi), width, height)
    # colorbar
    bx = width - _MARGIN_R + 22
    for s, c in enumerate(_colors(1.0 - np.arange(60) / 59.0)):
        parts.append(f'<rect x="{bx}" y="{_MARGIN_T + s * (height - 120) / 60:.2f}" '
                     f'width="14" height="{(height - 120) / 60 + 0.5:.2f}" '
                     f'fill="{c}"/>')
    parts.append(f'<text x="{bx + 18}" y="{_MARGIN_T + 8}" font-size="10">'
                 f'1e{zhi:.1f}</text>')
    parts.append(f'<text x="{bx + 18}" y="{_MARGIN_T + height - 120}" '
                 f'font-size="10">1e{zlo:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


_SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def line_plot_svg(x, series: dict, xlabel: str, ylabel: str,
                  title: str) -> str:
    """Log-log polyline plot of each named series against x."""
    width, height = _WIDTH, _LINE_PLOT_HEIGHT
    x = np.asarray(x, dtype=float)
    ylo = min(float(np.min(v)) for v in series.values())
    yhi = max(float(np.max(v)) for v in series.values())
    if ylo <= 0.0:
        ylo = 1e-12
    ax = _LogAxes(x.min(), x.max(), ylo, yhi, width, height)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for idx, (name, vals) in enumerate(series.items()):
        vals = np.asarray(vals, dtype=float)
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        pts = " ".join(f"{ax.x(a):.2f},{ax.y(max(b, ylo)):.2f}"
                       for a, b in zip(x, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        ly = _MARGIN_T + 16 + 16 * idx
        lx = width - _MARGIN_R + 6
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 22}" y="{ly}" font-size="11">{name}</text>')
    parts += _frame(ax, xlabel, ylabel, title, _decade_ticks(x.min(), x.max()),
                    _decade_ticks(ylo, yhi), width, height)
    parts.append("</svg>")
    return "\n".join(parts)
