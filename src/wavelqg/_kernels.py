"""Euler-Maruyama stepping kernel of the Monte Carlo simulator.

``advance`` steps any number of realizations at once: states carry the
realizations on leading axes.  ``BACKEND`` names the kernel so runs can
record it; there is one, in numpy.
"""

import numpy as np

BACKEND = "python"


def _dot(a, b):
    """Per-item dot product of column stacks (..., k, 1): one ddot each."""
    return np.matmul(np.swapaxes(a, -1, -2), b)[..., 0, 0]


def advance(z, m, qbar, krk, noise, dt):
    """Advance ``z`` through ``noise.shape[0]`` Euler-Maruyama steps.

    z     : (..., 4n) joint (plant, estimate) states, updated in place
    m     : (4n, 4n) closed-loop generator
    qbar  : (2n, 2n) state cost weight, applied to the plant half
    krk   : (2n, 2n) control cost weight K' R K, applied to the estimate half
    noise : (steps, ..., 4n) pre-scaled additive increments (already
            * sqrt(dt)), steps >= 1
    dt    : step size

    Returns (cost_integral, err_integral, max_abs_state) for the chunk,
    each of shape ``z.shape[:-1]``.  The integrands are evaluated at the
    pre-update state, and max_abs_state covers every post-update state.

    Each item's results are bitwise what it gets when stepped alone: every
    product is a stacked matmul (one gemv or ddot per item, never a gemm
    across items), and the integrals are summed over steps in order.  The
    whole path is held at once, so memory grows with the size of ``noise``
    (a few times it); callers bound it by stepping in segments.
    """
    half = qbar.shape[0]
    path = np.empty((noise.shape[0] + 1,) + z.shape)
    path[0] = z
    for t in range(noise.shape[0]):
        path[t + 1] = path[t] + (dt * (m @ path[t, ..., None])[..., 0]
                                 + noise[t])
    z[...] = path[-1]
    x = path[:-1, ..., :half, None]
    xh = path[:-1, ..., half:, None]
    e = x - xh
    cost = _dot(x, qbar @ x) + _dot(xh, krk @ xh)
    err = _dot(e, e)
    mx = np.abs(path[1:]).max(axis=(0, -1))
    return (np.add.accumulate(cost)[-1] * dt,
            np.add.accumulate(err)[-1] * dt, mx)


def available_backends() -> dict:
    """Name -> kernel callable, for benchmarks."""
    return {BACKEND: advance}
