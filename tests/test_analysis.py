"""Trace costs, closed-loop assembly, reports, and parameter sweeps."""

import numpy as np
import pytest

from wavelqg import analysis
from wavelqg.analysis import (CSV_HEADER, CostLocalityReport, SweepGrid,
                              build_closed_loop, curve_reports, kf_cost,
                              lqg_cost, lqg_cost_dual, lqr_cost,
                              plant_matrices, report, rows_to_csv, sweep)
from wavelqg.oracle import DenseAreProblem, solve_care_dense, \
    solve_filter_are_dense, spectral_abscissa
from wavelqg.params import NondimParams
from wavelqg.spectral import laplacian_circulant
from wavelqg.synthesis import kf_riccati_spectrum, lqr_riccati_spectrum


def params(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30):
    return NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)


def dense_lqr_trace(p):
    n = p.n
    lap = laplacian_circulant(n).dense()
    a = np.block([[np.zeros((n, n)), np.eye(n)], [lap, np.zeros((n, n))]])
    b = np.vstack([np.zeros((n, n)), np.eye(n)])
    q = np.block([[np.eye(n) - p.pi1 * lap, np.zeros((n, n))],
                  [np.zeros((n, n)), p.pi2 * np.eye(n)]])
    sol, _ = solve_care_dense(DenseAreProblem(a=a, b=b, q=q,
                                              r_inv=p.pi3**2 * np.eye(n)))
    return float(np.trace(sol))


def dense_kf_trace(p):
    n = p.n
    lap = laplacian_circulant(n).dense()
    a = np.block([[np.zeros((n, n)), np.eye(n)], [lap, np.zeros((n, n))]])
    c = np.hstack([p.pi4 * np.eye(n), np.zeros((n, n))])
    w = np.block([[np.zeros((n, n)), np.zeros((n, n))],
                  [np.zeros((n, n)), np.eye(n)]])
    v_inv = np.eye(n) - p.pi1 * lap
    s, _ = solve_filter_are_dense(a, c, w, v_inv)
    return float(np.trace(s))


def test_lqr_cost_frozen_n2():
    # pinned with an independent dense Riccati solve
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=2)
    assert lqr_cost(p) == pytest.approx(9.18322075741732, rel=1e-7)


def test_kf_cost_frozen_n2():
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=2)
    assert kf_cost(p) == pytest.approx(5.370495674638825, rel=1e-7)


@pytest.mark.parametrize("n", [2, 6, 16])
def test_spectral_costs_match_dense_traces(n):
    p = params(pi1=0.8, pi2=1.3, pi3=2.1, pi4=0.9, n=n)
    assert lqr_cost(p) == pytest.approx(dense_lqr_trace(p), rel=1e-7)
    assert kf_cost(p) == pytest.approx(dense_kf_trace(p), rel=1e-7)


def test_costs_scale_linearly_in_n_when_decentralized():
    # constant per-frequency contributions double with the frequency count
    a, b = params(n=30), params(n=60)
    assert 2 * lqr_cost(a) == pytest.approx(lqr_cost(b), rel=1e-12)
    assert 2 * kf_cost(a) == pytest.approx(kf_cost(b), rel=1e-12)
    assert 2 * lqg_cost(a) == pytest.approx(lqg_cost(b), rel=1e-12)


def test_costs_positive_at_decentralized_point():
    p = params()
    assert lqr_cost(p) > 0 and kf_cost(p) > 0 and lqg_cost(p) > 0
    assert np.isfinite([lqr_cost(p), kf_cost(p), lqg_cost(p)]).all()


def test_lqg_dual_form_agreement():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pi = 10.0 ** rng.uniform(-2, 2, size=4)
        p = NondimParams(pi1=pi[0], pi2=pi[1], pi3=pi[2], pi4=pi[3],
                         n=int(rng.choice([2, 4, 8, 16])))
        j, jd = lqg_cost(p), lqg_cost_dual(p)
        assert j == pytest.approx(jd, rel=1e-6)


def test_error_covariance_shrinks_with_sensor_quality():
    s0_at = [kf_riccati_spectrum(params(pi4=v)).p0[0]
             for v in (0.5, 1.0, 2.0, 8.0)]
    assert all(b < a for a, b in zip(s0_at, s0_at[1:]))
    assert s0_at[-1] == pytest.approx(1.0 / 8.0, rel=1e-14)


def test_per_frequency_summands_reflect():
    p = params(pi1=0.8, pi2=1.3, pi3=2.1, pi4=0.9, n=12)
    idx = (-np.arange(12)) % 12
    for rs in (lqr_riccati_spectrum(p), kf_riccati_spectrum(p)):
        for arr in (rs.p0, rs.diag1, rs.diag2):
            np.testing.assert_allclose(arr, arr[idx], rtol=1e-12)


def test_plant_matrices_layout():
    p = params(n=4)
    a, b, c = plant_matrices(p)
    lap = laplacian_circulant(4).dense()
    np.testing.assert_array_equal(a[:4, 4:], np.eye(4))
    np.testing.assert_array_equal(a[4:, :4], lap)
    np.testing.assert_array_equal(b[4:], np.eye(4))
    np.testing.assert_array_equal(c[:, :4], p.pi4 * np.eye(4))


@pytest.mark.parametrize("p", [
    params(n=4),
    params(pi1=0.0, pi3=1.0, pi4=1.0, n=4),
])
def test_closed_loop_is_stable(p):
    cl = build_closed_loop(p)
    assert spectral_abscissa(cl.augmented) < 0.0


def test_separation_spectrum():
    p = params(pi1=0.7, pi2=1.1, pi3=1.8, pi4=0.8, n=6)
    cl = build_closed_loop(p)
    a, b, c = cl.a, cl.b, cl.c_meas
    kmat = np.hstack([cl.gain_k.block1.dense(), cl.gain_k.block2.dense()])
    lmat = np.vstack([cl.gain_l.block1.dense(), cl.gain_l.block2.dense()])
    expected = np.concatenate([np.linalg.eigvals(a - b @ kmat),
                               np.linalg.eigvals(a - lmat @ c)])
    got = list(np.linalg.eigvals(cl.augmented))
    for lam in expected:
        j = int(np.argmin(np.abs(np.asarray(got) - lam)))
        assert abs(got[j] - lam) <= 1e-8 * (1 + abs(lam))
        got.pop(j)
    assert not got


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
    r = report(params(pi1=0.3, pi2=2.0, pi3=1.5, pi4=0.7, n=8))
    assert CostLocalityReport.from_dict(r.to_dict()) == r


def test_sweep_orders_rows_pi1_major():
    grid = SweepGrid(pi1_values=[0.5, 1.0], pi34_values=[2.0, 4.0], n=4)
    rows = sweep(grid)
    got = [(r.params.pi1, r.params.pi4) for r in rows]
    assert got == [(0.5, 2.0), (0.5, 4.0), (1.0, 2.0), (1.0, 4.0)]
    assert all(r.params.pi3 == r.params.pi4 for r in rows)


def test_sweep_untied_holds_pi3():
    grid = SweepGrid(pi1_values=[0.5], pi34_values=[2.0, 4.0],
                     tie_pi3_pi4=False, pi3_fixed=1.5, n=4)
    rows = sweep(grid)
    assert [r.params.pi3 for r in rows] == [1.5, 1.5]
    assert [r.params.pi4 for r in rows] == [2.0, 4.0]


def test_sweep_tags_curve_points():
    grid = SweepGrid(pi1_values=np.logspace(-1, 1, 9),
                     pi34_values=np.logspace(-1, 1, 9), n=4)
    rows = sweep(grid)
    hits = [(r.params.pi1, r.params.pi4) for r in rows if r.on_curve]
    assert hits, "grid must tag points near pi1*pi4 = 2"
    for pi1, pi4 in hits:
        assert abs(np.log(pi1 * pi4 / 2.0)) <= np.log(10) / 8 * np.sqrt(2) + 1e-9


def test_single_point_sweep_equals_report(monkeypatch):
    grid = SweepGrid(pi1_values=[0.5], pi34_values=[4.0], n=8)
    rows = sweep(grid)
    assert len(rows) == 1
    assert rows[0].report == report(params(n=8))
    assert rows[0].on_curve  # exact curve point, zero-width cell
    # batched 4x3 grids, tied and untied, and the batched curve reproduce
    # the single-point report exactly, in pi1-major order; chunks of 5
    # points cut across the pi1 rows
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 30)
    pi1s, pi34s = np.logspace(-1, 1, 4), np.logspace(-1, 1, 3)
    for tie in (True, False):
        rows = sweep(SweepGrid(pi1_values=pi1s, pi34_values=pi34s, n=6,
                               tie_pi3_pi4=tie, pi3_fixed=1.7))
        expected = [params(pi1=a, pi3=v if tie else 1.7, pi4=v, n=6)
                    for a in pi1s for v in pi34s]
        assert [r.params for r in rows] == expected
        assert [r.report for r in rows] == [report(p) for p in expected]
    rows = curve_reports(pi1s, n=6)
    assert [r.report for r in rows] == [report(r.params) for r in rows]


def test_csv_rendering_roundtrips():
    grid = SweepGrid(pi1_values=[0.5, 1.0], pi34_values=[4.0], n=4)
    rows = sweep(grid)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == rows[0].report.pi1
    assert float(cells[5]) == rows[0].report.j_lqr  # shortest repr roundtrip
    assert cells[-1] in ("true", "false")


def test_curve_reports_follow_fig4_ordering():
    rows = curve_reports(np.logspace(-1, 1, 12), pi2=1.0, n=30)
    assert all(r.on_curve for r in rows)
    for r in rows:
        assert r.params.pi3 == pytest.approx(2.0 / r.params.pi1, rel=1e-14)
        assert r.params.pi4 == r.params.pi3
    j = [r.report.j_lqg for r in rows]
    assert all(b > a for a, b in zip(j, j[1:]))  # smaller pi1, smaller cost


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        SweepGrid(pi1_values=[0.0, 1.0], pi34_values=[1.0])
    with pytest.raises(ValueError, match="n"):
        SweepGrid(pi1_values=[1.0], pi34_values=[1.0], n=1)
