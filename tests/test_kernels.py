"""The stepping kernel honors one contract, for one realization or many."""

import numpy as np

from wavelqg import _kernels
from wavelqg._kernels import NOISE_ROWS, ROWS
from wavelqg.simulator import kernel_backend


def _random_problem(rng, bins=3, steps=40, batch=()):
    z = rng.standard_normal(batch + (4, bins, 2))
    m = rng.standard_normal((bins, 4, 6)) * 0.3
    w_cost = rng.standard_normal((bins, 4, 4))
    w_err = rng.standard_normal((bins, 4, 4))
    path = np.empty((steps,) + batch + (ROWS, bins, 2))
    path[..., NOISE_ROWS, :, :] = 0.05 * rng.standard_normal(
        (steps,) + batch + (2, bins, 2))
    return z, m, w_cost, w_err, path


def test_python_kernel_matches_reference_loop():
    rng = np.random.default_rng(0)
    z, m, w_cost, w_err, path = _random_problem(rng)
    noise = path[:, NOISE_ROWS].copy()
    dt = 0.01
    zk = z.copy()
    cost, err, mx = _kernels.advance(zk, m, w_cost, w_err, path, dt)

    # the same ops, one step at a time, on per-bin (rows, re/im) blocks
    w = np.concatenate([w_cost, w_err], axis=1)
    ext = np.concatenate([w @ m, m], axis=1)     # [z; noise] -> [w z'; z']
    zr = z.transpose(1, 0, 2).copy()             # (bins, 4, 2)
    f = w @ zr
    c = e = x = 0.0
    ref_cost, ref_err = [], []
    for t in range(noise.shape[0]):
        x = max(x, float(np.abs(zr).max()))
        sq = np.square(f.transpose(1, 0, 2)).reshape(2, -1)
        c += float(sq[0].sum())
        e += float(sq[1].sum())
        ref_cost.append(c * dt)
        ref_err.append(e * dt)
        out = ext @ np.concatenate([zr, noise[t].transpose(1, 0, 2)], axis=1)
        f, zr = out[:, :8], out[:, 8:]
    x = max(x, float(np.abs(zr).max()))
    assert np.array_equal(cost, ref_cost)
    assert np.array_equal(err, ref_err)
    assert mx == x
    assert np.array_equal(zk, zr.transpose(1, 0, 2))
    assert np.array_equal(path[:, NOISE_ROWS], noise)  # noise is read only

    # a batch of realizations: each row is bitwise its own 1-D run
    z, m, w_cost, w_err, path = _random_problem(rng, batch=(5,))
    zb = z.copy()
    batched = _kernels.advance(zb, m, w_cost, w_err, path.copy(), dt)
    for i in range(z.shape[0]):
        zi = z[i].copy()
        single = _kernels.advance(zi, m, w_cost, w_err,
                                  np.ascontiguousarray(path[:, i]), dt)
        assert np.array_equal(batched[0][:, i], single[0])
        assert np.array_equal(batched[1][:, i], single[1])
        assert batched[2][i] == single[2]
        assert np.array_equal(zb[i], zi)


def test_zero_generator_accumulates_noise_exactly():
    # A zero generator (Euler map A = I) with each state row picking up
    # exactly one noise row: every step is one exact-rounded addition, as
    # in a plain running sum.
    rng = np.random.default_rng(1)
    bins, steps = 2, 25
    z0 = rng.standard_normal((4, bins, 2))
    m = np.zeros((bins, 4, 6))
    m[:, :, :4] = np.eye(4)
    m[:, [0, 1, 2, 3], [4, 5, 4, 5]] = 1.0
    path = np.empty((steps, ROWS, bins, 2))
    path[:, NOISE_ROWS] = rng.standard_normal((steps, 2, bins, 2))
    z = z0.copy()
    cost, err, mx = _kernels.advance(z, m, np.eye(4)[None].repeat(bins, 0),
                                     np.zeros((bins, 4, 4)), path, 0.5)
    expected = z0.copy()
    for t in range(steps):
        expected += path[t, NOISE_ROWS][[0, 1, 0, 1]]
    assert np.array_equal(z, expected)
    assert not err.any()
    assert np.all(np.diff(cost) > 0.0) and mx > 0.0


def test_selected_backend_is_exposed():
    assert _kernels.available_backends() == {"python": _kernels.advance}
    assert _kernels.BACKEND in _kernels.available_backends()
    assert kernel_backend() == _kernels.BACKEND
