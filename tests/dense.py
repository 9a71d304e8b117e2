"""Dense references for the tests: one builder per dense object of the
ring's LQG loop.

The package works on first rows and per-frequency blocks and never forms
a dense matrix.  These builders realize the same operators densely, in
site coordinates, so that the tests can hold the spectral routes to
textbook linear algebra.  Gain spectra come in ``DesignSpectra.blocks``
order (K1, K2, L1, L2); the filter's L1 carries lc and its L2 carries l0.
"""

import numpy as np
from scipy import linalg as sla

from wavelqg import simulator
from wavelqg.params import NondimParams
from wavelqg.spectral import laplacian_spectrum, rfft_half
from wavelqg.synthesis import design_spectra


def circulant(rows):
    """Dense circulants from first rows along the last axis: entry (i, j)
    of each matrix is rows[..., (j - i) mod n]."""
    n = rows.shape[-1]
    return rows[..., (np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def first_rows(vals):
    """First rows of the circulants whose real spectra, symmetric under
    k -> n - k over all n frequencies, run along the last axis: row[j] =
    sum_k vals[k] cos(2 pi k j / n) / n, as one product with a cosine
    matrix, the inverse of the package's eigenvalue convention."""
    n = vals.shape[-1]
    k = np.arange(n)
    return vals @ np.cos(2.0 * np.pi * (np.outer(k, k) % n) / n) / n


def offdiag_masses(rows):
    """Relative l2 weight of the off-diagonal entries of each circulant
    whose first row runs along the last axis: |rows[1:]| / |rows|, with
    an all-zero row reporting 0."""
    off = np.sqrt(np.sum(rows[..., 1:] ** 2, axis=-1))
    return off / np.maximum(np.sqrt(np.sum(rows ** 2, axis=-1)), 1e-300)


def laplacian(n):
    """The periodic second difference, first row [-2, 1, 0, ..., 0, 1]."""
    row = np.zeros(n)
    row[0] = -2.0
    row[1] += 1.0
    row[-1] += 1.0  # n == 2 folds both neighbors onto the same site
    return circulant(row)


def plant(p: NondimParams):
    """(A, B, C): wave dynamics on (phi, psi), forcing, scaled sensing."""
    n = p.n
    zero, eye = np.zeros((n, n)), np.eye(n)
    a = np.block([[zero, eye], [laplacian(n), zero]])
    return a, np.vstack([zero, eye]), np.hstack([p.pi4 * eye, zero])


def state_weight(p: NondimParams):
    """Qbar = [[I - pi1 Lap, 0], [0, pi2 I]]."""
    n = p.n
    zero, eye = np.zeros((n, n)), np.eye(n)
    return np.block([[eye - p.pi1 * laplacian(n), zero],
                     [zero, p.pi2 * eye]])


def gains(blocks):
    """Dense K = [K1 K2] and L = [L1; L2] from the four block spectra."""
    k1, k2, l1, l2 = circulant(first_rows(blocks))
    return np.hstack([k1, k2]), np.vstack([l1, l2])


def closed_loop(p: NondimParams, blocks):
    """The 4n x 4n loop generator [[A, -B K], [L C, A - L C - B K]] on
    (plant state, estimate) for the gains with spectra ``blocks``."""
    a, b, c = plant(p)
    kmat, lmat = gains(blocks)
    bk = b @ kmat
    lc = lmat @ c
    return np.block([[a, -bk], [lc, a - lc - bk]])


def noise_covariance(pi1, n):
    """(I - pi1 Lap)^-1, the measurement noise covariance."""
    return np.linalg.inv(np.eye(n) - pi1 * laplacian(n))


def noise_covariance_sqrt(pi1, n):
    """Symmetric square root of :func:`noise_covariance`, by
    eigendecomposition."""
    lam, vec = np.linalg.eigh(np.eye(n) - pi1 * laplacian(n))
    return (vec / np.sqrt(lam)) @ vec.T


def spectral_abscissa(m) -> float:
    """Largest real part of a dense matrix's eigenvalues."""
    m = np.atleast_2d(np.asarray(m))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.eigvals(m).real.max())


def regulator_care(p: NondimParams):
    """P of the full-ring regulator equation, one 2n x 2n Schur solve."""
    a, b, _ = plant(p)
    return sla.solve_continuous_are(a, b, state_weight(p),
                                    np.eye(p.n) / p.pi3 ** 2)


def filter_care(p: NondimParams):
    """S of the full-ring filter equation, solved as the control equation
    of the dual pair (A', C') with force intensity diag(0, I)."""
    a, _, c = plant(p)
    w = np.diag(np.repeat([0.0, 1.0], p.n))
    return sla.solve_continuous_are(a.T, c.T, w,
                                    noise_covariance(p.pi1, p.n))


def bin_noise(draws, n):
    """Noise rows (..., bins, chunks, 2) of simulate's compact draws
    (..., n chunks): the inner bins' normals in (bin, chunk, re/im) order,
    then the real parts at k = 0 and at the Nyquist bin of an even ring,
    one per chunk; the imaginary parts at those bins are zero."""
    chunks, bins = draws.shape[-1] // n, n // 2 + 1
    edges = [0, bins - 1] if n % 2 == 0 else [0]
    rows = np.zeros(draws.shape[:-1] + (bins, chunks, 2))
    at = 0
    for k in range(bins):
        if k not in edges:
            rows[..., k, :, :] = draws[..., at:at + 2 * chunks].reshape(
                draws.shape[:-1] + (chunks, 2))
            at += 2 * chunks
    for k in edges:
        rows[..., k, :, 0] = draws[..., at:at + chunks]
        at += chunks
    return rows


def site_noise(rng, n, steps):
    """One realization's noise as simulate draws it, as step-major site
    noise (steps, 2n), force then measurement.  Per block: 2n standard
    normals per step in one standard_normal call, placed in the noise rows
    of a work buffer by :func:`bin_noise`, scaled by 1/sqrt(multiplicity)
    per bin (which frequency_blocks carries in b), reordered step-major
    and taken to sites by the orthonormal irfft."""
    kb, bins = simulator._KB, n // 2 + 1
    blocks = []
    for _ in range(-(-steps // simulator._BLOCK)):
        rows = bin_noise(rng.standard_normal(
            (2, kb, n * (simulator._BLOCK // kb))), n)
        rows /= np.sqrt(rfft_half(n)[1])[:, None, None]
        # slot j of chunk c is step kb c + j
        f = rows.transpose(3, 1, 0, 2, 4).reshape(-1, 2, bins, 2)
        blocks.append(np.fft.irfft(f[..., 0] + 1j * f[..., 1], n=n,
                                   norm="ortho"))
    return np.concatenate(blocks)[:steps].reshape(steps, 2 * n)


def simulation(cfg):
    """Step the dense optimal loop on simulate's draws.

    Returns per-realization (costs, error traces) and the first
    realization's stored (plant, estimate, running cost) rows.
    """
    p = cfg.params
    n, dt = p.n, cfg.dt
    blocks = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                            laplacian_spectrum(n), 1.0).blocks
    aug = closed_loop(p, blocks)
    kmat, lmat = gains(blocks)
    qbar = state_weight(p)
    krk = kmat.T @ kmat / p.pi3 ** 2
    inject = np.zeros((4 * n, 2 * n))
    inject[n:2 * n, :n] = np.eye(n)
    inject[2 * n:, n:] = lmat @ noise_covariance_sqrt(p.pi1, n)
    inject *= np.sqrt(dt) * cfg.noise_scale
    steps = cfg.n_steps
    burn = int(round(cfg.burn_in * steps))
    costs, errs, stored = [], [], []
    for real in range(cfg.n_realizations):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed, spawn_key=(real,))))
        raw = site_noise(rng, n, steps)
        z = np.zeros(4 * n)
        run = post_c = post_e = 0.0
        for t in range(steps + 1):
            if real == 0 and (t % cfg.store_every == 0 or t == steps):
                stored.append(np.concatenate([z, [run]]))
            if t == steps:
                break
            x, xh = z[:2 * n], z[2 * n:]
            c = (x @ qbar @ x + xh @ krk @ xh) * dt
            run += c
            if t >= burn:
                post_c += c
                post_e += np.sum((x - xh) ** 2) * dt
            z = z + dt * aug @ z + inject @ raw[t]
        costs.append(post_c / ((steps - burn) * dt))
        errs.append(post_e / ((steps - burn) * dt))
    return np.array(costs), np.array(errs), np.array(stored)
