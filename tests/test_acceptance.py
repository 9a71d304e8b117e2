"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per claim.  Tolerances and runtime budgets are part of the contract;
do not loosen them to make a failure go away.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dense import (bin_noise, closed_loop, gains, noise_covariance,
                   offdiag_masses, plant, spectral_abscissa)
from wavelqg import _kernels, analysis, simulator, synthesis
from wavelqg._kernels import NOISE_ROWS, advance
from wavelqg.params import DimensionalParams, NondimParams, locality_residuals, nondimensionalize
from wavelqg.simulator import SimConfig, frequency_blocks, simulate
from wavelqg.spectral import laplacian_spectrum
from wavelqg.verify import verify_point

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
    residuals <= 1e-9, in under 60 s; every check of ``verify_point``
    passes at every draw."""
    start = time.perf_counter()
    worst_gain, worst_res = 0.0, 0.0
    for p in _draws(50, 1e-2, 1e2, seed=101):
        checks = {c.name: c for c in verify_point(p)}
        assert all(c.ok for c in checks.values()), (p, checks)
        worst_gain = max(worst_gain,
                         checks["per_frequency_gain_vs_dense_oracle"].value)
        worst_res = max(worst_res, checks["closed_form_riccati_residual"].value)
    assert worst_gain <= 1e-7
    assert worst_res <= 1e-9
    assert time.perf_counter() - start < 60.0


def test_02_decentralized_point_gains_are_scaled_identities():
    """pi1 = 2/pi3 = 2/pi4 (pi3 = pi4 = 4, n = 30): the four gain blocks
    collapse to pi3 I, sqrt(2 pi3 + pi2 pi3^2) I, sqrt(2/pi4) I, I with
    off-diagonal mass <= 1e-10, in under 1 s."""
    start = time.perf_counter()
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30)
    gk, gl = synthesis.optimal_gains(p)
    blocks = [
        (gk.rows[0], p.pi3),
        (gk.rows[1], np.sqrt(2.0 * p.pi3 + p.pi2 * p.pi3 ** 2)),
        (gl.rows[0], np.sqrt(2.0 / p.pi4)),
        (gl.rows[1], 1.0),
    ]
    for row, value in blocks:
        assert offdiag_masses(row) <= 1e-10
        assert row[0] == pytest.approx(value, rel=1e-12)
    assert time.perf_counter() - start < 1.0


def test_03_no_parameter_decentralizes_pi1_zero():
    """pi1 = 0, n = 30: over 30-point log grids in [1e-3, 1e3] the
    per-frequency spread of the position gain is strictly positive for
    every pi3 (regulator) and every pi4 (filter)."""
    grid = np.logspace(-3, 3, 30)
    for pi3 in grid:
        p = NondimParams(pi1=0.0, pi2=1.0, pi3=float(pi3), pi4=1.0, n=30)
        k0 = synthesis.optimal_gains(p)[0].spectra[0]
        assert k0.max() - k0.min() > 0.0
    for pi4 in grid:
        p = NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=float(pi4), n=30)
        l0 = synthesis.optimal_gains(p)[1].spectra[1]
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


def _match_one_to_one(got, expected, tol):
    remaining = list(expected)
    for lam in got:
        dist = [abs(lam - mu) for mu in remaining]
        j = int(np.argmin(dist))
        assert dist[j] <= tol
        remaining.pop(j)
    assert not remaining


def test_05_closed_loop_is_stable_and_separates():
    """20 random points (n <= 16): augmented loop abscissa < 0, its
    spectrum is the union of regulator and filter spectra to 1e-8, and
    ``analysis.loop_poles`` (the stability route of ``verify`` and
    ``simulate``) gives the same 4n poles to 1e-8."""
    for p in _draws(20, 1e-1, 1e1, seed=505, n_choices=(2, 4, 8, 16)):
        s = synthesis.design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                                     laplacian_spectrum(p.n), 1.0)
        aug = closed_loop(p, s.blocks)
        assert spectral_abscissa(aug) < 0.0
        a, b, c = plant(p)
        kmat, lmat = gains(s.blocks)
        expected = np.concatenate([
            np.linalg.eigvals(a - b @ kmat),
            np.linalg.eigvals(a - lmat @ c)])
        got = np.linalg.eigvals(aug)
        tol = 1e-8 * (1.0 + np.abs(expected).max())
        _match_one_to_one(got, expected, tol)
        _match_one_to_one(analysis.loop_poles(s).ravel(), got, tol)


def test_06_lqg_cost_trace_forms_agree():
    """Primal and dual trace expressions of the LQG cost agree to 1e-6
    relative on 20 random draws (n <= 16)."""
    for p in _draws(20, 1e-2, 1e2, seed=606, n_choices=(2, 4, 8, 16)):
        j1 = analysis.report(p).j_lqg
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
    j_kf = rows["j_kf"].reshape(50, 50)
    j_lqr = rows["j_lqr"].reshape(50, 50)
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
    assert ends["j_lqg"][0] < ends["j_lqg"][1]
    assert time.perf_counter() - start < 120.0


def test_09_correlated_noise_has_the_advertised_covariance(monkeypatch):
    """The measurement noise ``simulate`` injects (2n standard normals per
    step drawn in orthonormal rfft bins, scaled by ``frequency_blocks``'
    bin multiplicity and filter) has covariance exactly (I - pi1 Lap)^-1
    at the sites, within 1e-12 of its largest entry, and its force noise
    is white, at pi1 = 1, n = 8, at white noise with odd n and at a
    Nyquist bin.  The drawn
    imaginary parts at k = 0 and at the Nyquist bin are exactly zero."""
    drawn = []

    def recording(z, m, w_cost, w_err, work, dt, steps=None, **kw):
        drawn.append(work[0, NOISE_ROWS].copy())
        return advance(z, m, w_cost, w_err, work, dt, steps, **kw)

    monkeypatch.setattr(_kernels, "advance", recording)
    for pi1, n in [(1.0, 8), (0.0, 7), (2.5, 30)]:
        p = NondimParams(pi1=pi1, pi2=1.0, pi3=1.0, pi4=1.0, n=n)
        drawn.clear()
        simulate(SimConfig(params=p, dt=0.01, t_final=simulator._BLOCK / 100,
                           seed=9))  # one full block
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(9, spawn_key=(0,))))
        live = rng.standard_normal(
            (2, simulator._KB, n * (simulator._BLOCK // simulator._KB)))
        assert np.array_equal(drawn[0], bin_noise(live, n))
        imag = drawn[0][..., [0, -1] if n % 2 == 0 else [0], :, 1]
        assert not imag.any()

        # site noise of each live normal: through b and irfft
        one, zero = np.ones(n // 2 + 1), np.zeros(n // 2 + 1)
        s = replace(synthesis.ring_design(p), k0=one, kc=one, l0=zero, lc=one)
        _, b, _ = frequency_blocks(s, dt=1.0)
        unit = bin_noise(np.eye(n), n)[:, :, 0]
        for col, cov in [(b[:, 1, 0], np.eye(n)),
                         (b[:, 2, 1], noise_covariance(pi1, n))]:
            f = unit * col[:, None]
            sites = np.fft.irfft(f[..., 0] + 1j * f[..., 1], n=n, norm="ortho")
            gap = np.abs(sites.T @ sites - cov).max()
            assert gap <= 1e-12 * np.abs(cov).max(), (pi1, n, gap)
