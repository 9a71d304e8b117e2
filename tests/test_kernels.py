"""The stepping kernel honors one contract, for one realization or many."""

import numpy as np
import pytest

from wavelqg import _kernels
from wavelqg._kernels import NOISE_ROWS, STATE_ROWS
from wavelqg.simulator import _KB, kernel_backend


# factor rows (cost, error): simulate's nonzero rows, and square factors
FACTORS = [(3, 2), (4, 4)]


def _random_problem(rng, bins=3, steps=40, batch=(), rows=(4, 4)):
    # Euler maps A = I + h G of a stable G, as simulate steps: a state
    # remembers its chunk's start for many steps, so the carries matter
    z = rng.standard_normal(batch + (4, bins, 2))
    g = rng.standard_normal((bins, 4, 4)) - 3.0 * np.eye(4)
    b = 0.3 * rng.standard_normal((bins, 4, 2))
    m = np.concatenate([np.eye(4) + 0.02 * g, b], axis=-1)
    w_cost = rng.standard_normal((bins, rows[0], 4))
    w_err = rng.standard_normal((bins, rows[1], 4))
    noise = rng.standard_normal((steps,) + batch + (2, bins, 2))
    return z, m, w_cost, w_err, noise


def _put_noise(work, noise):
    """Write step-major white noise (steps, ..., 2, bins, 2) into the noise
    rows of the first ``steps`` steps of ``work``."""
    kb = work.shape[-4]
    full, rest = divmod(noise.shape[0], kb)
    dst = work[..., NOISE_ROWS, :, :, :, :]
    head = noise[:full * kb].reshape((full, kb) + noise.shape[1:])
    dst[..., :full, :] = np.moveaxis(head, (0, 1), (-2, -4))
    if rest:
        dst[..., :rest, :, full, :] = np.moveaxis(noise[full * kb:], 0, -3)


def _work(noise, factors, fill=np.nan):
    """A work buffer for ``factors`` factor rows holding step-major
    ``noise`` (steps, ..., 2, bins, 2), every other entry set to
    ``fill``."""
    steps, batch, bins = noise.shape[0], noise.shape[1:-3], noise.shape[-2]
    work = _kernels.work_buffer(_KB, -(-steps // _KB), batch, bins, factors)
    work.fill(fill)
    _put_noise(work, noise)
    return work


def _rows(work, rows, steps):
    """Step-major (steps, ..., len(rows), bins, 2) view of ``rows``."""
    c, j = np.divmod(np.arange(steps), _KB)
    return work[..., rows, j, :, c, :]


def _rel(x, ref):
    return np.abs(np.asarray(x) - ref).max() / np.abs(ref).max()


def _matches_reference_loop(rng, steps, rows, dt=0.01):
    # A chunked scan rounds differently from the step-by-step loop, so the
    # two agree to roundoff, not bitwise.
    z, m, w_cost, w_err, noise = _random_problem(rng, steps=steps, rows=rows)
    work = _work(noise, sum(rows))
    zk = z.copy()
    cost, err, mx, sums = _kernels.advance(zk, m, w_cost, w_err, work, dt,
                                           steps, running=1)
    # without running sums, the totals come from the reduction alone
    totals = _kernels.advance(z.copy(), m, w_cost, w_err,
                              _work(noise, sum(rows)), dt, steps)[:2]

    # the same ops, one step at a time, on per-bin (rows, re/im) blocks
    w = np.concatenate([w_cost, w_err], axis=1)
    ext = np.concatenate([w @ m, m], axis=1)     # [z; noise] -> [w z'; z']
    zr = z.transpose(1, 0, 2).copy()             # (bins, 4, 2)
    f = w @ zr
    c = e = x = 0.0
    ref_cost, ref_err, ref_states = [], [], []
    for t in range(steps):
        x = max(x, float(np.abs(zr).max()))
        ref_states.append(zr.transpose(1, 0, 2))
        sq = np.square(f)
        c += float(sq[:, :rows[0]].sum())
        e += float(sq[:, rows[0]:].sum())
        ref_cost.append(c * dt)
        ref_err.append(e * dt)
        out = ext @ np.concatenate([zr, noise[t].transpose(1, 0, 2)], axis=1)
        f, zr = out[:, :sum(rows)], out[:, sum(rows):]
    x = max(x, float(np.abs(zr).max()))
    assert _rel(sums[:, 0, 0], ref_cost) <= 1e-12
    assert _rel(sums[:, 0, 1], ref_err) <= 1e-12
    for c, e in ((cost, err), totals):
        assert _rel(c, ref_cost[-1]) <= 1e-12
        assert _rel(e, ref_err[-1]) <= 1e-12
    assert _rel(mx, x) <= 1e-12
    assert _rel(zk, zr.transpose(1, 0, 2)) <= 1e-12
    assert _rel(_rows(work, STATE_ROWS, steps), ref_states) <= 1e-12
    # noise is read only
    assert np.array_equal(_rows(work, NOISE_ROWS, steps), noise)


def _realizations_match_solo_runs(rng, steps, rows, dt=0.01):
    # a batch of realizations: each row is bitwise its own 1-D run, with
    # or without running sums, and with the maps planned once or per call
    z, m, w_cost, w_err, noise = _random_problem(rng, steps=steps,
                                                 batch=(5,), rows=rows)
    plan = _kernels.make_plan(m, w_cost, w_err, _KB)
    for running in (0, 2, 5):
        zb = z.copy()
        cost, err, mx, sums = _kernels.advance(zb, m, w_cost, w_err,
                                               _work(noise, sum(rows)), dt,
                                               steps, plan=plan,
                                               running=running)
        assert sums.shape == (steps, running, 2)
        for i in range(z.shape[0]):
            zi = z[i].copy()
            single = _kernels.advance(
                zi, m, w_cost, w_err,
                _work(np.ascontiguousarray(noise[:, i]), sum(rows)),
                dt, steps, running=int(i < running))
            assert cost[i] == single[0]
            assert err[i] == single[1]
            assert mx[i] == single[2]
            assert np.array_equal(sums[:, i:i + 1], single[3])
            assert np.array_equal(zb[i], zi)


def test_python_kernel_matches_reference_loop():
    rng = np.random.default_rng(0)
    for rows in FACTORS:
        _matches_reference_loop(rng, 40, rows)
        _realizations_match_solo_runs(rng, 40, rows)


@pytest.mark.parametrize("steps", [1, 15, 16, 17, 2000])
def test_partial_and_long_calls_match_reference_loop(steps):
    # a call shorter than one chunk, one chunk, one step into a second,
    # and many chunks
    rng = np.random.default_rng(steps)
    for rows in FACTORS:
        _matches_reference_loop(rng, steps, rows)
        _realizations_match_solo_runs(rng, steps, rows)


def test_steps_default_to_the_whole_buffer():
    rng = np.random.default_rng(2)
    z, m, w_cost, w_err, noise = _random_problem(rng, steps=2 * _KB)
    za, zb = z.copy(), z.copy()
    whole = _kernels.advance(za, m, w_cost, w_err, _work(noise, 8), 0.01)
    given = _kernels.advance(zb, m, w_cost, w_err, _work(noise, 8), 0.01,
                             2 * _KB)
    assert np.array_equal(za, zb)
    for a, b in zip(whole, given):
        assert np.array_equal(a, b)
    for steps in (_KB, 2 * _KB + 1):  # the last chunk empty, or one over
        with pytest.raises(ValueError, match="chunks"):
            _kernels.advance(z.copy(), m, w_cost, w_err, _work(noise, 8),
                             0.01, steps)


@pytest.mark.parametrize("steps", [1, 9, 17])
def test_padding_past_the_last_step_is_ignored(steps):
    # An expanding map with huge values in every unused slot: the states
    # the scan computes past the last step dwarf the real ones, and must
    # reach neither the maximum, the sums nor the final state.
    bins = 2
    m = np.concatenate([np.broadcast_to(1.5 * np.eye(4), (bins, 4, 4)),
                        np.ones((bins, 4, 2))], axis=-1)
    noise = np.ones((steps, 2, bins, 2))
    state = 1.0
    expected = [state]
    for _ in range(steps):  # every entry evolves as x -> 1.5 x + 2
        state = 1.5 * state + 2.0
        expected.append(state)
    for rows in FACTORS:
        w_cost = np.broadcast_to(np.eye(4)[:rows[0]], (bins, rows[0], 4))
        w_err = np.zeros((bins, rows[1], 4))
        running_cost = 4 * rows[0] * np.cumsum(np.square(expected[:-1]))
        for running in (0, 1):  # totals by the reduction, then by the sums
            z = np.ones((4, bins, 2))
            cost, err, mx, sums = _kernels.advance(
                z, m, w_cost, w_err, _work(noise, sum(rows), fill=1e6), 1.0,
                steps, running=running)
            assert np.allclose(z, state, rtol=1e-14, atol=0)
            assert mx == pytest.approx(state, rel=1e-14)
            assert cost == pytest.approx(running_cost[-1], rel=1e-14)
            assert not err
            assert np.allclose(sums[:, :, 0].T, running_cost, rtol=1e-14,
                               atol=0)
            assert not sums[..., 1].any()


def test_zero_generator_accumulates_noise_exactly():
    # A zero generator (Euler map A = I) with each state row picking up
    # exactly one noise row, on small-integer states and noise: every sum
    # is exact whatever its order, so the scan equals a plain running sum.
    rng = np.random.default_rng(1)
    bins, steps = 2, 25
    z0 = rng.integers(-4, 5, (4, bins, 2)).astype(float)
    m = np.zeros((bins, 4, 6))
    m[:, :, :4] = np.eye(4)
    m[:, [0, 1, 2, 3], [4, 5, 4, 5]] = 1.0
    noise = rng.integers(-3, 4, (steps, 2, bins, 2)).astype(float)
    z = z0.copy()
    cost, err, mx, sums = _kernels.advance(
        z, m, np.eye(4)[None].repeat(bins, 0), np.zeros((bins, 4, 4)),
        _work(noise, 8), 0.5, steps, running=1)
    expected = z0.copy()
    for t in range(steps):
        expected += noise[t][[0, 1, 0, 1]]
    assert np.array_equal(z, expected)
    assert not err and not sums[..., 1].any()
    assert np.all(np.diff(sums[:, 0, 0]) > 0.0) and mx > 0.0
    assert cost == sums[-1, 0, 0]


def test_selected_backend_is_exposed():
    assert _kernels.available_backends() == {"python": _kernels.advance}
    assert _kernels.BACKEND in _kernels.available_backends()
    assert kernel_backend() == _kernels.BACKEND
