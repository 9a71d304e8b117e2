"""The SVG emitters: heatmap cells and colorbar, the overlay curve, and
the line plot's series and legend; the heatmap against a cell-by-cell
reference render."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wavelqg import analysis, svgplot
from wavelqg.svgplot import heatmap_svg, line_plot_svg

SVG = "{http://www.w3.org/2000/svg}"


def _heatmap(z, curve_xy):
    ny, nx = z.shape
    x, y = np.logspace(-1, 1, nx), np.logspace(-1, 1, ny)
    return ET.fromstring(heatmap_svg(x, y, z, "pi1", "pi4", "t", curve_xy))


def _colored_rects(root):
    """Filled rects in document order: the cells, then the colorbar."""
    return [r for r in root.iter(f"{SVG}rect")
            if r.get("fill").startswith("#")]


def _axes_box(root):
    (box,) = [r for r in root.iter(f"{SVG}rect") if r.get("fill") == "none"]
    x0, y0 = float(box.get("x")), float(box.get("y"))
    return x0, y0, x0 + float(box.get("width")), y0 + float(box.get("height"))


def test_heatmap_has_a_cell_per_point_and_a_60_step_colorbar():
    z = 10.0 ** np.random.default_rng(1).uniform(-2, 2, (3, 5))
    rects = _colored_rects(_heatmap(z, ([1.0, 2.0], [1.0, 2.0])))
    assert len(rects) == 5 * 3 + 60


def test_heatmap_extremes_take_the_ramp_ends():
    z = 10.0 ** np.random.default_rng(2).uniform(-2, 2, (4, 6))
    cells = _colored_rects(_heatmap(z, ([1.0, 2.0], [1.0, 2.0])))[:z.size]
    # cells run over y outer, x inner: cell j * nx + i shows z[j, i]
    assert cells[int(np.argmin(z))].get("fill") == "#440154"
    assert cells[int(np.argmax(z))].get("fill") == "#fde725"


def test_heatmap_curve_keeps_only_points_inside_the_axes():
    z = np.ones((4, 4))
    cy = np.logspace(-2, 2, 200)  # the 2/pi1 curve, well past the grid
    root = _heatmap(z, (2.0 / cy, cy))
    (line,) = root.iter(f"{SVG}polyline")
    pts = np.array([p.split(",") for p in line.get("points").split()],
                   dtype=float)
    x0, y0, x1, y1 = _axes_box(root)
    assert 2 <= len(pts) < cy.size
    assert np.all((pts[:, 0] >= x0) & (pts[:, 0] <= x1))
    assert np.all((pts[:, 1] >= y0) & (pts[:, 1] <= y1))


def test_line_plot_has_a_polyline_and_a_legend_entry_per_series():
    x = np.logspace(-1, 1, 7)
    series = {"j_lqr": x, "j_kf": 2 * x, "j_lqg": x ** 2}
    root = ET.fromstring(line_plot_svg(x, series, "pi1", "cost", "t"))
    lines = list(root.iter(f"{SVG}polyline"))
    assert len(lines) == len(series)
    assert all(len(p.get("points").split()) == x.size for p in lines)
    # a legend entry: a swatch in the series' color next to its name
    swatches = [s.get("stroke") for s in root.iter(f"{SVG}line")
                if s.get("stroke") != "#444"]  # the rest are tick marks
    assert swatches == [p.get("stroke") for p in lines]
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert all(texts.count(name) == 1 for name in series)


# ------------------------------------------------- cell-by-cell reference

def _color_ref(t: float) -> str:
    """The colour ramp one scalar at a time, with Python's round."""
    stops = svgplot._STOPS.tolist()
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    f = pos - i
    rgb = [(1 - f) * a + f * b for a, b in zip(stops[i], stops[i + 1])]
    return "#" + "".join(f"{int(round(255 * v)):02x}" for v in rgb)


def _heatmap_ref(x, y, z, xlabel, ylabel, title, curve_xy):
    """heatmap_svg with the axes mapped and the ramp taken per cell."""
    width, height = svgplot._WIDTH, svgplot._HEATMAP_HEIGHT
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    ax = svgplot._LogAxes(x.min(), x.max(), y.min(), y.max(), width, height)
    logz = np.log10(np.maximum(z, 1e-300))
    zlo, zhi = float(logz.min()), float(logz.max())
    span = max(zhi - zlo, 1e-12)

    def edges(vals):
        lv = np.log10(vals)
        mids = 0.5 * (lv[:-1] + lv[1:])
        first = lv[0] - (mids[0] - lv[0]) if vals.size > 1 else lv[0] - 0.1
        last = lv[-1] + (lv[-1] - mids[-1]) if vals.size > 1 else lv[0] + 0.1
        return 10.0 ** np.concatenate([[first], mids, [last]])

    xe, ye = edges(x), edges(y)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for j in range(y.size):
        for i in range(x.size):
            px0, px1 = ax.x(xe[i]), ax.x(xe[i + 1])
            py0, py1 = ax.y(ye[j + 1]), ax.y(ye[j])
            c = _color_ref((logz[j, i] - zlo) / span)
            parts.append(f'<rect x="{px0:.2f}" y="{py0:.2f}" '
                         f'width="{px1 - px0:.2f}" height="{py1 - py0:.2f}" '
                         f'fill="{c}"/>')
    cx, cy = (np.asarray(v, dtype=float) for v in curve_xy)
    pts = [f"{ax.x(a):.2f},{ax.y(b):.2f}" for a, b in zip(cx, cy)
           if x.min() <= a <= x.max() and y.min() <= b <= y.max()]
    if len(pts) >= 2:
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     'stroke="black" stroke-width="2"/>')
    parts += svgplot._frame(ax, xlabel, ylabel, title,
                            svgplot._decade_ticks(x.min(), x.max()),
                            svgplot._decade_ticks(y.min(), y.max()),
                            width, height)
    bx = width - svgplot._MARGIN_R + 22
    for s in range(60):
        t = 1.0 - s / 59.0
        parts.append(f'<rect x="{bx}" '
                     f'y="{svgplot._MARGIN_T + s * (height - 120) / 60:.2f}" '
                     f'width="14" height="{(height - 120) / 60 + 0.5:.2f}" '
                     f'fill="{_color_ref(t)}"/>')
    parts.append(f'<text x="{bx + 18}" y="{svgplot._MARGIN_T + 8}" '
                 f'font-size="10">1e{zhi:.1f}</text>')
    parts.append(f'<text x="{bx + 18}" y="{svgplot._MARGIN_T + height - 120}" '
                 f'font-size="10">1e{zlo:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _random_grids(seed):
    """(x, y, z) on log grids of every shape class, up to 50 x 50."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 9), (9, 1), (50, 50),
              *(tuple(rng.integers(1, 51, 2)) for _ in range(12))]
    for ny, nx in shapes:
        x = np.sort(10.0 ** rng.uniform(-3, 3, nx))
        y = np.logspace(*np.sort(rng.uniform(-3, 3, 2)), ny)
        z = 10.0 ** rng.uniform(-6, 6, (ny, nx))
        yield x, y, z
    yield x, y, np.full((ny, nx), 2.5)  # one colour: a zero-width z span


def test_heatmap_matches_the_cell_by_cell_reference():
    cy = np.logspace(-3, 3, 200)
    for x, y, z in _random_grids(3):
        args = (x, y, z, "pi1", "pi4", "t", (2.0 / cy, cy))
        assert heatmap_svg(*args) == _heatmap_ref(*args)


@pytest.mark.parametrize("tie", [True, False])
def test_sweep_heatmap_matches_the_reference(tie):
    rng = np.random.default_rng(4 + tie)
    for nx, ny in [(1, 1), (1, 6), (6, 1), (23, 17)]:
        grid = analysis.SweepGrid(
            pi1_values=np.logspace(*np.sort(rng.uniform(-2, 2, 2)), nx),
            pi34_values=np.logspace(*np.sort(rng.uniform(-2, 2, 2)), ny),
            n=4, tie_pi3_pi4=tie, pi3_fixed=1.3)
        table = analysis.sweep(grid)
        x, y = grid.pi1_values, grid.pi34_values
        for metric in ("j_lqr", "j_kf", "j_lqg"):
            args = (x, y, table[metric].reshape(nx, ny).T, "pi1", "pi4",
                    metric, (2.0 / y, y))
            assert heatmap_svg(*args) == _heatmap_ref(*args)


def _half_way_points():
    """t values at which 255 v of some channel is exactly m + 0.5."""
    stops = svgplot._STOPS.tolist()
    for i, (a, b) in enumerate(zip(stops, stops[1:])):
        for va, vb in zip(a, b):
            for m in range(int(255 * min(va, vb)), int(255 * max(va, vb))):
                t = (i + ((m + 0.5) / 255 - va) / (vb - va)) / 5
                for s in (np.nextafter(t, -1), t, np.nextafter(t, 2)):
                    pos = float(s) * 5
                    f = pos - min(int(pos), 4)
                    if (255 * ((1 - f) * va + f * vb)) % 1 == 0.5:
                        yield float(s)


def test_colors_match_the_scalar_ramp():
    half = list(_half_way_points())
    assert len(half) >= 5
    t = np.array([*(k / 5 for k in range(6)), -1e-300, -0.0, -0.3, -7.0,
                  1.0 + 1e-16, 1.2, 40.0, *half,
                  *np.random.default_rng(5).uniform(-0.1, 1.1, 2000)])
    assert svgplot._colors(t).tolist() == [_color_ref(v) for v in t.tolist()]
    assert svgplot._colors(t.reshape(-1, 1)).shape == (t.size, 1)


def test_colors_reject_nan():
    with pytest.raises(ValueError):
        svgplot._colors(np.array([0.5, np.nan]))
