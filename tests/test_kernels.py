"""The stepping kernel honors one contract, for one realization or many."""

import numpy as np

from wavelqg import _kernels
from wavelqg.simulator import kernel_backend


def _random_problem(rng, n=3, steps=40, batch=()):
    dim = 4 * n
    z = rng.standard_normal(batch + (dim,))
    m = rng.standard_normal((dim, dim)) * 0.1
    q = rng.standard_normal((2 * n, 2 * n))
    qbar = q @ q.T
    k = rng.standard_normal((2 * n, 2 * n))
    krk = k @ k.T
    noise = 0.05 * rng.standard_normal((steps,) + batch + (dim,))
    return z, m, qbar, krk, noise


def test_python_kernel_matches_reference_loop():
    rng = np.random.default_rng(0)
    z, m, qbar, krk, noise = _random_problem(rng)
    dt = 0.01
    zk = z.copy()
    cost, err, mx = _kernels.advance(zk, m, qbar, krk, noise, dt)

    # same ops, spelled out
    zr = z.copy()
    half = qbar.shape[0]
    c = e = x = 0.0
    for t in range(noise.shape[0]):
        c += float(zr[:half] @ (qbar @ zr[:half])
                   + zr[half:] @ (krk @ zr[half:]))
        d = zr[:half] - zr[half:]
        e += float(d @ d)
        zr += dt * (m @ zr) + noise[t]
        x = max(x, float(np.abs(zr).max()))
    assert cost == c * dt
    assert err == e * dt
    assert mx == x
    assert np.array_equal(zk, zr)

    # a batch of realizations: each row is bitwise its own 1-D run
    z, m, qbar, krk, noise = _random_problem(rng, batch=(5,))
    zb = z.copy()
    batched = _kernels.advance(zb, m, qbar, krk, noise, dt)
    for i in range(z.shape[0]):
        zi = z[i].copy()
        single = _kernels.advance(zi, m, qbar, krk,
                                  np.ascontiguousarray(noise[:, i]), dt)
        assert all(b[i] == s for b, s in zip(batched, single))
        assert np.array_equal(zb[i], zi)


def test_zero_generator_accumulates_noise_exactly():
    rng = np.random.default_rng(1)
    n, steps = 2, 25
    z0 = rng.standard_normal(4 * n)
    noise = rng.standard_normal((steps, 4 * n))
    z = z0.copy()
    cost, err, mx = _kernels.advance(z, np.zeros((4 * n, 4 * n)),
                                     np.eye(2 * n), np.eye(2 * n), noise, 0.5)
    assert np.allclose(z, z0 + noise.sum(axis=0), atol=1e-14)
    assert cost > 0.0 and err >= 0.0 and mx > 0.0


def test_selected_backend_is_exposed():
    assert _kernels.available_backends() == {"python": _kernels.advance}
    assert _kernels.BACKEND in _kernels.available_backends()
    assert kernel_backend() == _kernels.BACKEND
