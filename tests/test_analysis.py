"""Trace costs, closed-loop poles, reports, and parameter sweeps."""

import json
import re
from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest

import dense
from wavelqg import analysis
from wavelqg.analysis import (COLUMNS, CSV_HEADER, CostLocalityReport,
                              SweepGrid, curve_reports, kf_cost,
                              lqg_cost_dual, loop_poles, report,
                              rows_to_csv, sweep)
from wavelqg.params import NondimParams
from wavelqg.simulator import frequency_blocks
from wavelqg.spectral import laplacian_spectrum, rfft_half
from wavelqg.synthesis import design_spectra, ring_design


def params(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30):
    return NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)


def test_lqr_cost_frozen_n2():
    # pinned with an independent dense Riccati solve
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=2)
    assert report(p).j_lqr == pytest.approx(9.18322075741732, rel=1e-7)


def test_kf_cost_frozen_n2():
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=2)
    assert kf_cost(p) == pytest.approx(5.370495674638825, rel=1e-7)


@pytest.mark.parametrize("n", [2, 6, 16])
def test_spectral_costs_match_dense_traces(n):
    p = params(pi1=0.8, pi2=1.3, pi3=2.1, pi4=0.9, n=n)
    assert report(p).j_lqr == pytest.approx(
        np.trace(dense.regulator_care(p)), rel=1e-7)
    assert kf_cost(p) == pytest.approx(np.trace(dense.filter_care(p)),
                                       rel=1e-7)


def test_costs_scale_linearly_in_n_when_decentralized():
    # constant per-frequency contributions double with the frequency count
    a, b = report(params(n=30)), report(params(n=60))
    for j in ("j_lqr", "j_kf", "j_lqg"):
        assert 2 * getattr(a, j) == pytest.approx(getattr(b, j), rel=1e-12)


def test_costs_positive_at_decentralized_point():
    r = report(params())
    costs = [r.j_lqr, r.j_kf, r.j_lqg]
    assert min(costs) > 0 and np.isfinite(costs).all()


def test_lqg_dual_form_agreement():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pi = 10.0 ** rng.uniform(-2, 2, size=4)
        p = NondimParams(pi1=pi[0], pi2=pi[1], pi3=pi[2], pi4=pi[3],
                         n=int(rng.choice([2, 4, 8, 16])))
        j, jd = report(p).j_lqg, lqg_cost_dual(p)
        assert j == pytest.approx(jd, rel=1e-6)


def test_error_covariance_shrinks_with_sensor_quality():
    s0_at = [design_spectra(0.5, 1.0, 4.0, v, laplacian_spectrum(30),
                            1.0).s0[0]
             for v in (0.5, 1.0, 2.0, 8.0)]
    assert all(b < a for a, b in zip(s0_at, s0_at[1:]))
    assert s0_at[-1] == pytest.approx(1.0 / 8.0, rel=1e-14)


def test_per_frequency_summands_reflect():
    p = params(pi1=0.8, pi2=1.3, pi3=2.1, pi4=0.9, n=12)
    idx = (-np.arange(12)) % 12
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, laplacian_spectrum(12),
                       1.0)
    for arr in (s.p0, s.p1, s.p2, s.s0, s.s1, s.s2):
        np.testing.assert_allclose(arr, arr[idx], rtol=1e-12)


def test_plant_matrices_layout():
    p = params(n=4)
    a, b, c = dense.plant(p)
    lap = dense.laplacian(4)
    np.testing.assert_array_equal(a[:4, 4:], np.eye(4))
    np.testing.assert_array_equal(a[4:, :4], lap)
    np.testing.assert_array_equal(b[4:], np.eye(4))
    np.testing.assert_array_equal(c[:, :4], p.pi4 * np.eye(4))


@pytest.mark.parametrize("p", [
    params(n=4),
    params(pi1=0.0, pi3=1.0, pi4=1.0, n=4),
])
def test_closed_loop_is_stable(p):
    blocks = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                            laplacian_spectrum(p.n), 1.0).blocks
    assert dense.spectral_abscissa(dense.closed_loop(p, blocks)) < 0.0


def test_separation_spectrum():
    # the dense loop's eigenvalues are those of the regulator and the
    # filter loops, and the per-frequency poles of loop_poles
    for n in (2, 3, 6, 7, 8):
        p = params(pi1=0.7, pi2=1.1, pi3=1.8, pi4=0.8, n=n)
        a, b, c = dense.plant(p)
        s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, laplacian_spectrum(n),
                           1.0)
        kmat, lmat = dense.gains(s.blocks)
        separated = np.concatenate([np.linalg.eigvals(a - b @ kmat),
                                    np.linalg.eigvals(a - lmat @ c)])
        poles = loop_poles(s).ravel()
        loop = np.linalg.eigvals(dense.closed_loop(p, s.blocks))
        for expected in (separated, poles):
            got = list(loop)
            for lam in expected:
                j = int(np.argmin(np.abs(np.asarray(got) - lam)))
                assert abs(got[j] - lam) <= 1e-8 * (1 + abs(lam)), (n, lam)
                got.pop(j)
            assert not got


@pytest.mark.parametrize("n", [2, 3, 7, 8, 16])
def test_loop_poles_hold_for_any_gains(n):
    # with the plant as the observer's model the (x, e) loop is block
    # triangular whatever the gains, so loop_poles are the eigenvalues of
    # each bin's generator (a - I)/dt, here for random gains of either sign
    rng = np.random.default_rng(n)
    s = ring_design(params(pi1=0.3, pi2=1.2, pi3=2.5, pi4=1.7, n=n))
    s = replace(s, **{g: rng.uniform(-3.0, 3.0, s.d.shape)
                      for g in ("k0", "kc", "l0", "lc")})
    dt = 0.01
    a, _, _ = frequency_blocks(s, dt)
    generators = np.linalg.eigvals((a - np.eye(4)) / dt)
    poles = loop_poles(s)
    for k in range(s.d.size):
        expected = poles[:, k].ravel()
        tol = 1e-9 * np.abs(expected).max()
        got = list(generators[k])
        for lam in expected:
            j = int(np.argmin(np.abs(np.asarray(got) - lam)))
            assert abs(got[j] - lam) <= tol, (n, k, lam)
            got.pop(j)
        assert not got


@pytest.mark.parametrize("n", [2, 7, 8, 31])
def test_half_spectrum_poles_are_the_full_spectrum_bins(n):
    # poles of a design evaluated on the rfft half k = 0 .. n//2 are
    # those of the same bins of the full spectrum
    p = params(pi1=0.3, pi2=1.0, pi3=2.0, pi4=1.5, n=n)
    full = loop_poles(design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                                     laplacian_spectrum(n), 1.0))
    got = loop_poles(ring_design(p))
    np.testing.assert_array_equal(got, full[:, :n // 2 + 1])


def test_report_at_decentral_point():
    r = report(params())
    for mass in (r.offdiag_k1, r.offdiag_k2, r.offdiag_l1, r.offdiag_l2):
        assert mass <= 1e-10
    assert r.residual_lqr_decentral == 0.0
    assert r.residual_kf_decentral == 0.0


def test_report_at_pi1_zero():
    r = report(params(pi1=0.0, pi3=1.0, pi4=1.0, n=16))
    for mass in (r.offdiag_k1, r.offdiag_k2, r.offdiag_l1, r.offdiag_l2):
        assert mass > 0.0
    assert np.isfinite([r.j_lqr, r.j_kf, r.j_lqg]).all()


def test_report_roundtrip():
    # the report JSON the CLI writes holds every field exactly
    r = report(params(pi1=0.3, pi2=2.0, pi3=1.5, pi4=0.7, n=8))
    assert CostLocalityReport(**json.loads(json.dumps(asdict(r)))) == r


def test_sweep_orders_rows_pi1_major():
    grid = SweepGrid(pi1_values=[0.5, 1.0], pi34_values=[2.0, 4.0], n=4)
    table = sweep(grid)
    assert list(table) == list(COLUMNS)
    got = list(zip(table["pi1"].tolist(), table["pi4"].tolist()))
    assert got == [(0.5, 2.0), (0.5, 4.0), (1.0, 2.0), (1.0, 4.0)]
    assert np.array_equal(table["pi3"], table["pi4"])
    assert table["n"].dtype.kind == "i" and table["on_curve"].dtype == bool
    assert all(table[c].shape == (4,) for c in COLUMNS)


def test_sweep_untied_holds_pi3():
    grid = SweepGrid(pi1_values=[0.5], pi34_values=[2.0, 4.0],
                     tie_pi3_pi4=False, pi3_fixed=1.5, n=4)
    table = sweep(grid)
    assert table["pi3"].tolist() == [1.5, 1.5]
    assert table["pi4"].tolist() == [2.0, 4.0]


def test_sweep_tags_curve_points():
    grid = SweepGrid(pi1_values=np.logspace(-1, 1, 9),
                     pi34_values=np.logspace(-1, 1, 9), n=4)
    table = sweep(grid)
    hits = (table["pi1"] * table["pi4"])[table["on_curve"]]
    assert hits.size, "grid must tag points near pi1*pi4 = 2"
    assert np.all(np.abs(np.log(hits / 2.0))
                  <= np.log(10) / 8 * np.sqrt(2) + 1e-9)


_REPORT_NAMES = {"res_k": "residual_lqr_decentral",
                 "res_l": "residual_kf_decentral"}


def _rows(table):
    """Each row of a sweep table as (point, report dict, on_curve)."""
    for i in range(table["n"].size):
        row = {_REPORT_NAMES.get(c, c): table[c][i].item() for c in COLUMNS}
        on_curve = row.pop("on_curve")
        point = NondimParams(**{k: row[k] for k in ("pi1", "pi2", "pi3",
                                                   "pi4", "n")})
        yield point, row, on_curve


def test_single_point_sweep_equals_report(monkeypatch):
    grid = SweepGrid(pi1_values=[0.5], pi34_values=[4.0], n=8)
    ((p, fields, on_curve),) = _rows(sweep(grid))
    assert p == params(n=8)
    assert fields == asdict(report(p))
    assert on_curve  # exact curve point, zero-width cell
    # batched 4x3 grids, tied and untied, and the batched curve reproduce
    # the single-point report exactly, in pi1-major order; chunks of 5
    # points cut across the pi1 rows
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 30)
    pi1s, pi34s = np.logspace(-1, 1, 4), np.logspace(-1, 1, 3)
    for tie in (True, False):
        rows = list(_rows(sweep(SweepGrid(pi1_values=pi1s, pi34_values=pi34s,
                                          n=6, tie_pi3_pi4=tie,
                                          pi3_fixed=1.7))))
        expected = [params(pi1=a, pi3=v if tie else 1.7, pi4=v, n=6)
                    for a in pi1s for v in pi34s]
        assert [p for p, _, _ in rows] == expected
        assert [f for _, f, _ in rows] == [asdict(report(p))
                                           for p in expected]
    rows = list(_rows(curve_reports(pi1s, n=6)))
    assert len(rows) == 4
    assert all(on for _, _, on in rows)
    assert [f for _, f, _ in rows] == [asdict(report(p))
                                       for p, _, _ in rows]


def test_csv_rendering_roundtrips():
    grid = SweepGrid(pi1_values=[0.5, 1.0], pi34_values=[4.0, 7.0], n=4)
    table = sweep(grid)
    text = rows_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == ",".join(COLUMNS)
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(COLUMNS)
        for c, cell in zip(COLUMNS, cells):
            value = table[c][i].item()
            if c == "on_curve":
                assert cell == ("true" if value else "false")
            elif c == "n":
                assert cell == str(int(cell)) and int(cell) == value
            else:
                assert float(cell) == value  # shortest repr roundtrip
    assert "true" in text and "false" in text


def _csv_ref(table):
    """rows_to_csv one cell at a time: repr, then lower() for the bools."""
    rows = zip(*(table[c].tolist() for c in COLUMNS))
    return "".join([CSV_HEADER + "\n", *(",".join(repr(v).lower()
                                                  for v in row) + "\n"
                                         for row in rows)])


def _hand_table(rows, rng):
    """A table of ``rows`` rows whose parameter columns repeat values and
    hold 0.0 beside -0.0, nan and inf."""
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.5,
                        0.5, 1e-300, 7.25e12])
    table = {c: rng.choice(special, rows) for c in COLUMNS[:4]}
    table["pi4"][:2] = special[:min(rows, 2)]
    table["pi2"] = np.repeat(special, 60)[::2][:rows]  # a strided view
    table["n"] = rng.choice([4, 30, -1], rows)
    for c in COLUMNS[5:-1]:
        table[c] = rng.choice([*special, *rng.normal(size=6)], rows)
    table["on_curve"] = rng.random(rows) < 0.5
    return table


def test_csv_rendering_matches_the_cell_by_cell_reference():
    rng = np.random.default_rng(8)
    for rows in (1, 2, 10, 300):
        table = _hand_table(rows, rng)
        assert rows_to_csv(table) == _csv_ref(table)
    pi4 = [line.split(",")[3] for line in rows_to_csv(table).splitlines()]
    assert pi4[1:3] == ["0.0", "-0.0"]
    grid = SweepGrid(pi1_values=[0.5, 1.0, 2.0], pi34_values=[4.0, 7.0], n=4)
    assert rows_to_csv(sweep(grid)) == _csv_ref(sweep(grid))


def test_curve_reports_follow_fig4_ordering():
    table = curve_reports(np.logspace(-1, 1, 12), pi2=1.0, n=30)
    assert table["on_curve"].all()
    np.testing.assert_allclose(table["pi3"], 2.0 / table["pi1"], rtol=1e-14)
    assert np.array_equal(table["pi4"], table["pi3"])
    j = table["j_lqg"]
    assert np.all(np.diff(j) > 0)  # smaller pi1, smaller cost


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        SweepGrid(pi1_values=[0.0, 1.0], pi34_values=[1.0])
    with pytest.raises(ValueError, match="n"):
        SweepGrid(pi1_values=[1.0], pi34_values=[1.0], n=1)


@pytest.mark.parametrize("make", [
    lambda: SweepGrid(pi1_values=[1.0], pi34_values=[1.0], pi2=np.inf),
    lambda: SweepGrid(pi1_values=[1.0], pi34_values=[1.0],
                      pi3_fixed=np.nan),
    lambda: SweepGrid(pi1_values=[1.0], pi34_values=[1.0], n=8.0),
    lambda: curve_reports([0.0]),
    lambda: curve_reports([-1.0]),
    lambda: curve_reports([np.inf]),
    lambda: curve_reports([1.0], pi2=0),
    lambda: curve_reports([1.0], n=1),
], ids=["grid-pi2-inf", "grid-pi3-fixed-nan", "grid-n-float",
        "curve-pi1-zero", "curve-pi1-negative", "curve-pi1-inf",
        "curve-pi2-zero", "curve-n-1"])
def test_sweep_inputs_are_validated(make):
    with pytest.raises(ValueError):
        make()


# ------------------------------------------------ tables on the half spectrum

MASSES = ("offdiag_k1", "offdiag_k2", "offdiag_l1", "offdiag_l2")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 30, 31, 128])
def test_table_matches_the_full_spectrum(n):
    # the table sums over the rfft half with multiplicities and takes the
    # masses by Parseval; the references sum over all n frequencies and
    # take the masses from the blocks' first rows.  The dual cost form,
    # too, reads the frequencies from the design it is given
    rng = np.random.default_rng(700 + n)
    pi = 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 60))
    pi[3, :20] = pi[2, :20]  # tied
    pi[0, :10] = 2.0 / pi[2, :10]  # on the decentralized curve
    table = analysis._table(*pi, n)
    s = design_spectra(*pi, laplacian_spectrum(n), 1.0)
    costs = analysis.costs(s)
    for j, column in enumerate(("j_lqr", "j_kf", "j_lqg")):
        np.testing.assert_allclose(table[column], costs[:, j], rtol=1e-13,
                                   atol=0)
    masses = dense.offdiag_masses(dense.first_rows(s.blocks))
    for j, column in enumerate(MASSES):
        np.testing.assert_allclose(table[column], masses[:, j], rtol=0,
                                   atol=1e-14)
    half = design_spectra(*pi, *rfft_half(n))
    np.testing.assert_allclose(analysis.dual_lqg_cost(half),
                               analysis.dual_lqg_cost(s), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [3, 8, 128])
def test_table_columns_do_not_depend_on_the_chunk_size(monkeypatch, n):
    # every point is evaluated on its own bins, so each column is bitwise
    # the same however the points are cut into chunks
    rng = np.random.default_rng(900 + n)
    pi = 10.0 ** rng.uniform(-2.0, 2.0, size=(4, 700))
    pi[3, :200] = pi[2, :200]
    default = analysis._table(*pi, n)
    for cells in (20, 4096, 700 * n + 1):
        monkeypatch.setattr(analysis, "_CHUNK_CELLS", cells)
        table = analysis._table(*pi, n)
        assert table.keys() == default.keys()
        for column, values in default.items():
            assert np.array_equal(table[column], values), (cells, column)


@pytest.mark.parametrize("bad, n", [
    ((0.0, 1.0, 1e155, 1.0), 4), ((0.0, 1.0, 1e-162, 1.0), 4),
    ((0.0, 1.0, 1.0, 1e-103), 4), ((0.0, 1.0, 1e108, 1e108), 4),
    ((1e216, 1.0, 1.0, 1.0), 4),
    ((5.9e77, 8.6e282, 4.1e-101, 9.2e-62), 12)],
    ids=["pi3-above-1e154", "pi3-below-1e-161", "pi4-below-1e-102",
         "s1-underflow-pi4-1e108", "s1-underflow-pi1-1e216", "cost-overflow"])
def test_table_names_a_failing_point_in_its_second_chunk(monkeypatch, bad, n):
    # chunks of _CHUNK_CELLS // n points; the only failing point sits in
    # the middle of the second one.  In the cost-overflow case its design
    # is finite, but a cost's products overflow
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 5 * n)
    pi = np.tile(np.array([[0.5], [1.0], [4.0], [4.0]]), (1, 15))
    pi[:, 7] = bad
    text = "pi=({:.6g}, {:.6g}, {:.6g}, {:.6g}), n={}".format(*bad, n)
    with pytest.raises(ValueError, match=re.escape(text)):
        analysis._table(*pi, n)


def test_dual_cost_batches_like_the_primal_form():
    # each point of a batched design is scored with its own pi1 and pi2
    s = design_spectra([0.3, 0.9], 1.2, 2.5, 1.7, *rfft_half(8))
    np.testing.assert_allclose(analysis.dual_lqg_cost(s),
                               analysis.costs(s)[:, 2], rtol=1e-13, atol=0)


def test_near_curve_masses_match_50_digit_reference():
    # within 1e-9 to 1e-1 of pi1 pi3 = 2 = pi1 pi4 the masses are small
    # differences of nearly equal eigenvalues; with 50 digits the textbook
    # roots and the centred sums are an exact reference
    rng = np.random.default_rng(61)
    for i in range(60):
        n = (3, 8, 30)[i % 3]
        pi3 = 10.0 ** rng.uniform(-2.0, 2.0)
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0)
        pi1, pi2 = 2.0 / pi3 * (1.0 + gap), 10.0 ** rng.uniform(-2.0, 2.0)
        row = analysis._table(pi1, pi2, pi3, pi3, n)
        with mpmath.workdps(50):
            a1, a2, a3 = (mpmath.mpf(v) for v in (pi1, pi2, pi3))
            blocks = [[], [], [], []]
            for dk in laplacian_spectrum(n):
                d = mpmath.mpf(dk)
                k0 = d + mpmath.sqrt(d ** 2 + a3 ** 2 * (1 - a1 * d))
                l0 = d / a3 + mpmath.sqrt((d / a3) ** 2 - a1 * d + 1)
                for b, value in zip(blocks, (
                        k0, mpmath.sqrt(2 * k0 + a2 * a3 ** 2),
                        mpmath.sqrt(2 * l0 / a3), l0)):
                    b.append(value)
            for column, vals in zip(MASSES, blocks):
                mu = mpmath.fsum(vals) / n
                ref = mpmath.sqrt(mpmath.fsum((v - mu) ** 2 for v in vals)
                                  / mpmath.fsum(v ** 2 for v in vals))
                err = abs(mpmath.mpf(row[column].item()) - ref)
                assert err <= 1e-14, (column, pi1, pi2, pi3, n, float(err))
