"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per claim.  Tolerances and runtime budgets are part of the contract;
do not loosen them to make a failure go away.
"""

import time

import numpy as np
import pytest

from wavelqg import analysis, synthesis
from wavelqg.oracle import (
    DenseAreProblem,
    care_residual,
    solve_care_dense,
    solve_filter_are_dense,
    spectral_abscissa,
)
from wavelqg.params import DimensionalParams, NondimParams, locality_residuals, nondimensionalize
from wavelqg.simulator import SimConfig, noise_covariance, sample_correlated_noise, simulate
from wavelqg.spectral import laplacian_spectrum, offdiag_mass

N_CYCLE = (2, 4, 8, 16, 30)


def _draws(count, lo, hi, seed, n_choices=N_CYCLE):
    rng = np.random.default_rng(seed)
    for i in range(count):
        pis = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=4)
        n = n_choices[i % len(n_choices)]
        yield NondimParams(pi1=float(pis[0]), pi2=float(pis[1]),
                           pi3=float(pis[2]), pi4=float(pis[3]), n=n)


def test_01_spectral_gains_match_dense_are_oracle():
    """50 random parameter draws in [1e-2, 1e2]: closed-form gains vs the
    Newton-Kleinman dense solver at <= 1e-7 relative, per-frequency ARE
    residuals <= 1e-9, in under 60 s."""
    start = time.perf_counter()
    worst_gain, worst_res = 0.0, 0.0
    for p in _draws(50, 1e-2, 1e2, seed=101):
        d = laplacian_spectrum(p.n).values.real
        kg = synthesis.lqr_spectral_gain(p)
        fg = synthesis.kf_spectral_gain(p)
        kr = synthesis.lqr_riccati_spectrum(p)
        fr = synthesis.kf_riccati_spectrum(p)
        for k in range(p.n):
            a = np.array([[0.0, 1.0], [d[k], 0.0]])
            prob = DenseAreProblem(a, [0.0, 1.0],
                                   np.diag([1.0 - p.pi1 * d[k], p.pi2]),
                                   [[p.pi3 ** 2]])
            _, kd = solve_care_dense(prob)
            worst_gain = max(
                worst_gain,
                abs(kd[0, 0] - kg.k0[k]) / abs(kd[0, 0]),
                abs(kd[0, 1] - kg.companion[k]) / abs(kd[0, 1]))
            worst_res = max(worst_res, care_residual(kr.block(k), prob))

            c = np.array([[p.pi4, 0.0]])
            vinv = np.array([[1.0 - p.pi1 * d[k]]])
            _, ld = solve_filter_are_dense(a, c, np.diag([0.0, 1.0]), vinv)
            worst_gain = max(
                worst_gain,
                abs(ld[1, 0] - fg.k0[k]) / abs(ld[1, 0]),
                abs(ld[0, 0] - fg.companion[k]) / abs(ld[0, 0]))
            sb = fr.block(k)
            resf = (a @ sb + sb @ a.T + np.diag([0.0, 1.0])
                    - sb @ c.T @ vinv @ c @ sb)
            worst_res = max(worst_res, float(np.abs(resf).max()))
    assert worst_gain <= 1e-7
    assert worst_res <= 1e-9
    assert time.perf_counter() - start < 60.0


def test_02_decentralized_point_gains_are_scaled_identities():
    """pi1 = 2/pi3 = 2/pi4 (pi3 = pi4 = 4, n = 30): the four gain blocks
    collapse to pi3 I, sqrt(2 pi3 + pi2 pi3^2) I, sqrt(2/pi4) I, I with
    off-diagonal mass <= 1e-10, in under 1 s."""
    start = time.perf_counter()
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30)
    gk = synthesis.assemble_gains(synthesis.lqr_spectral_gain(p), p)
    gl = synthesis.assemble_gains(synthesis.kf_spectral_gain(p), p)
    blocks = [
        (gk.block1, p.pi3),
        (gk.block2, np.sqrt(2.0 * p.pi3 + p.pi2 * p.pi3 ** 2)),
        (gl.block1, np.sqrt(2.0 / p.pi4)),
        (gl.block2, 1.0),
    ]
    for block, value in blocks:
        assert offdiag_mass(block) <= 1e-10
        assert block.first_row[0] == pytest.approx(value, rel=1e-12)
    assert time.perf_counter() - start < 1.0


def test_03_no_parameter_decentralizes_pi1_zero():
    """pi1 = 0, n = 30: over 30-point log grids in [1e-3, 1e3] the
    per-frequency spread of the position gain is strictly positive for
    every pi3 (regulator) and every pi4 (filter)."""
    grid = np.logspace(-3, 3, 30)
    for pi3 in grid:
        p = NondimParams(pi1=0.0, pi2=1.0, pi3=float(pi3), pi4=1.0, n=30)
        k0 = synthesis.lqr_spectral_gain(p).k0
        assert k0.max() - k0.min() > 0.0
    for pi4 in grid:
        p = NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=float(pi4), n=30)
        l0 = synthesis.kf_spectral_gain(p).k0
        assert l0.max() - l0.min() > 0.0


def test_04_dimensional_locality_condition_is_resolution_free():
    """q1 = sigma_m, r = sigma_d, alpha^2 sigma_d / (c^2 sigma_m) = 2:
    decentralization residuals vanish for every grid spacing and size
    (20 cases)."""
    cs = [0.5, 1.0, 2.0, 4.0, 0.25]
    dxs = [0.1, 0.5, 1.0, 2.0, 5.0]
    ns = [4, 8, 16, 30, 64]
    sms = [0.5, 1.0, 3.0, 0.2, 2.0]
    sds = [0.3, 1.0, 2.0, 5.0, 0.8]
    q2s = [1.0, 0.5, 2.0, 1.5, 0.7]
    for i in range(20):
        c, dx, n = cs[i % 5], dxs[(i + 1) % 5], ns[(i + 2) % 5]
        sm, sd, q2 = sms[(i + 3) % 5], sds[(i + 4) % 5], q2s[i % 5]
        alpha = c * np.sqrt(2.0 * sm / sd)
        dim = DimensionalParams(c=c, dx=dx, n=n, q1=sm, q2=q2, r=sd,
                                sigma_m=sm, sigma_d=sd, alpha=alpha)
        p = nondimensionalize(dim)
        res_k, res_l = locality_residuals(p)
        tol = 1e-12 * max(1.0, p.pi1)
        assert abs(res_k) <= tol
        assert abs(res_l) <= tol


def test_05_closed_loop_is_stable_and_separates():
    """20 random points (n <= 16): augmented loop abscissa < 0 and its
    spectrum is the union of regulator and filter spectra to 1e-8."""
    for p in _draws(20, 1e-1, 1e1, seed=505, n_choices=(2, 4, 8, 16)):
        cl = analysis.build_closed_loop(p)
        assert spectral_abscissa(cl.augmented) < 0.0
        kmat = np.hstack([cl.gain_k.block1.dense(), cl.gain_k.block2.dense()])
        lmat = np.vstack([cl.gain_l.block1.dense(), cl.gain_l.block2.dense()])
        expected = np.concatenate([
            np.linalg.eigvals(cl.a - cl.b @ kmat),
            np.linalg.eigvals(cl.a - lmat @ cl.c_meas)])
        got = np.linalg.eigvals(cl.augmented)
        tol = 1e-8 * (1.0 + np.abs(expected).max())
        remaining = list(expected)
        for lam in got:
            dist = [abs(lam - mu) for mu in remaining]
            j = int(np.argmin(dist))
            assert dist[j] <= tol
            remaining.pop(j)
        assert not remaining


def test_06_lqg_cost_trace_forms_agree():
    """Primal and dual trace expressions of the LQG cost agree to 1e-6
    relative on 20 random draws (n <= 16)."""
    for p in _draws(20, 1e-2, 1e2, seed=606, n_choices=(2, 4, 8, 16)):
        j1 = analysis.lqg_cost(p)
        j2 = analysis.lqg_cost_dual(p)
        assert abs(j1 - j2) / abs(j1) <= 1e-6


@pytest.mark.slow
def test_07_monte_carlo_validates_trace_formulas():
    """n = 8 decentralized point, horizon 2000, 20 realizations, dt = 0.01:
    empirical cost and error power within 5% of the closed forms, in
    under 5 min."""
    start = time.perf_counter()
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=8)
    cfg = SimConfig(params=p, dt=0.01, t_final=2000.0, seed=2026,
                    n_realizations=20, store_every=100_000)
    _, summ = simulate(cfg)
    assert summ.empirical_lqg_cost == pytest.approx(
        summ.predicted_lqg_cost, rel=0.05)
    assert summ.empirical_est_err_cov_trace == pytest.approx(
        summ.predicted_est_err_cov_trace, rel=0.05)
    assert time.perf_counter() - start < 300.0


def test_08_sweep_reproduces_cost_landscape():
    """Default 50x50 sweep at n = 30: costs finite everywhere; within each
    pi4-slice the decentralization point is neither the maximum nor a
    discontinuity (neighbor ratio < 10); total cost grows along the
    decentralized curve from pi1 = 0.1 to 10.  Under 2 min."""
    start = time.perf_counter()
    pi1g = np.logspace(-1, 1, 50)
    grid = analysis.SweepGrid(pi1_values=pi1g,
                              pi34_values=np.logspace(-1, 1, 50), n=30)
    rows = analysis.sweep(grid)
    j_kf = np.array([r.report.j_kf for r in rows]).reshape(50, 50)
    j_lqr = np.array([r.report.j_lqr for r in rows]).reshape(50, 50)
    assert np.all(np.isfinite(j_kf)) and np.all(np.isfinite(j_lqr))

    for col, v in enumerate(np.logspace(-1, 1, 50)):
        star = 2.0 / v
        if not (pi1g[0] <= star <= pi1g[-1]):
            continue
        idx = int(np.argmin(np.abs(np.log(pi1g) - np.log(star))))
        for js in (j_kf[:, col], j_lqr[:, col]):
            assert js[idx] < js.max()
            for nb in (idx - 1, idx + 1):
                if 0 <= nb < js.size:
                    ratio = js[idx] / js[nb]
                    assert max(ratio, 1.0 / ratio) < 10.0

    ends = analysis.curve_reports(np.array([0.1, 10.0]), n=30)
    assert ends[0].report.j_lqg < ends[1].report.j_lqg
    assert time.perf_counter() - start < 120.0


def test_09_correlated_noise_has_the_advertised_covariance():
    """Empirical covariance of 1e5 samples at pi1 = 1, n = 8 matches
    (I - pi1 Lap)^-1 entrywise within 3 standard errors."""
    cov = noise_covariance(1.0, 8)
    rng = np.random.default_rng(0)
    x = sample_correlated_noise(1.0, 8, rng, size=100_000)
    emp = np.cov(x.T, ddof=1)
    var = np.diag(cov)
    se = np.sqrt((np.outer(var, var) + cov ** 2) / x.shape[0])
    assert np.all(np.abs(emp - cov) <= 3.0 * se)
