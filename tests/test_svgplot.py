"""The SVG emitters: heatmap cells and colorbar, the overlay curve, and
the line plot's series and legend."""

import xml.etree.ElementTree as ET

import numpy as np

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
