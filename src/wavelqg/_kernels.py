"""Per-frequency Euler-Maruyama stepping kernel of the Monte Carlo simulator.

In rfft coordinates the ring's loop splits into one real 4-state block per
frequency bin; a bin's real and imaginary parts are two columns stepped by
the same map.  ``advance`` steps every (realization, bin) item as a
two-pass chunked scan of the linear recurrence z' = A z + B w (Blelloch,
"Prefix sums and their applications", 1990).  The steps are cut into
chunks of kb; ``simulator`` uses kb = 16, the square root of its 256-step
noise block, derived rather than set.  Pass 1 carries the state from chunk
start to chunk start with the lifted maps A**kb and [A**(kb-1) B, ..., A B,
B]; pass 2 takes the kb steps inside every chunk at once, each one stacked
matmul whose columns are (chunk, re/im).  A 256-step block costs about 32
matmul calls instead of 256.  States and costs agree with step-by-step
Euler to roundoff, not bitwise; a realization's results stay bitwise
independent of the realizations stepped with it.  ``BACKEND`` names the
kernel so runs can record it; there is one, in numpy.
"""

import numpy as np

BACKEND = "python"

# Rows of the work buffer, each over (slots, bins, chunks, re/im):
FACTOR_ROWS = slice(0, 8)   # w_cost z (0:4), then w_err z (4:8)
STATE_ROWS = slice(8, 12)   # z: plant (0:2), then estimate (2:4)
NOISE_ROWS = slice(12, 14)  # white noise: force, then measurement
ROWS = 14


def work_buffer(kb, chunks, batch, bins):
    """Uninitialized work buffer for ``kb * chunks`` steps of ``batch``
    (a shape tuple) realizations: shape batch + (ROWS, kb, bins, chunks,
    2), step t = kb c + j in slot j of chunk c.  A slice along the chunk
    axis is a work buffer too."""
    return np.empty(tuple(batch) + (ROWS, kb, bins, chunks, 2))


def _lifted(a, b, kb):
    """A**kb and [A**(kb-1) B, ..., A B, B], by doubling (kb a power of 2),
    the latter's columns ordered (noise, power)."""
    p, lift = a, b
    while lift.shape[-1] < kb * b.shape[-1]:
        lift = np.concatenate([np.matmul(p, lift), lift], axis=-1)
        p = np.matmul(p, p)
    lift = np.swapaxes(lift.reshape(lift.shape[:-1] + (kb, -1)), -1, -2)
    return p, lift.reshape(lift.shape[:-2] + (-1,))


def advance(z, m, w_cost, w_err, work, dt, steps=None):
    """Advance ``z`` through ``steps`` Euler-Maruyama steps.

    z      : (..., 4, bins, 2) states, updated in place: rows are the
             (plant, estimate) coordinates, then bins, then real and
             imaginary parts
    m      : (bins, 4, 6) per-bin [A B]: Euler map A and noise injection B
    w_cost : (bins, 4, 4) cost weight factors; a bin's cost integrand is
             |w_cost z|**2 summed over its two columns
    w_err  : (bins, 4, 4) estimation-error weight factors, likewise
    work   : (..., ROWS, kb, bins, chunks, 2) work buffer from
             :func:`work_buffer`, kb a power of two; step t = kb c + j is
             slot j of chunk c.  Rows 12:14 hold each step's white noise
             on entry; those past the last step are zeroed.  On return,
             rows 8:12 of slot j, chunk c hold the state before step
             kb c + j, for every step of the call.
    dt     : step size
    steps  : number of steps, kb (chunks - 1) < steps <= kb chunks;
             default kb chunks

    Pass 1 carries the state from chunk to chunk, z_{c+1} = A**kb z_c +
    S_c with S_c = sum_j A**(kb-1-j) B w_{c,j}: every chunk's S_c comes
    from one batched matmul, then one small matmul per chunk carries.
    Pass 2 maps [z; noise] to [w z'; z'] with the (12, 6) matrix
    [[w A, w B], [A, B]] once per slot, across every chunk at once, so a
    (realization, bin) item's product is a (12, 6) by (6, 2 chunks) gemm.
    The lifted maps cost O(log kb) matmuls per call.

    Returns (cost, err, max_abs_state).  ``cost`` and ``err`` have shape
    (steps, ...): entry t is dt times the sum of the integrands at the
    states before steps 0..t.  ``max_abs_state`` has shape ``z.shape[:-3]``
    and covers every state the call visits, the first and the last
    included, and no padding past the last.

    Each item's results are bitwise what it gets when stepped alone: every
    product is a stacked matmul with one item per (realization, bin),
    never a gemm across realizations; the reductions run over one
    realization's entries in a fixed order, and the prefix sums run over
    steps in order.
    """
    kb, chunks = work.shape[-4], work.shape[-2]
    steps = kb * chunks if steps is None else steps
    last = steps - kb * (chunks - 1)  # steps in the last chunk
    if not 0 < last <= kb:
        raise ValueError(f"{steps} steps do not end in the last of "
                         f"{chunks} chunks of {kb}")
    batch = z.shape[:-3]
    w = np.concatenate([w_cost, w_err], axis=-2)
    ext = np.concatenate([np.matmul(w, m), m], axis=-2)
    power, lift = _lifted(m[..., :4], m[..., 4:], kb)
    carry = np.concatenate([np.broadcast_to(np.eye(4), power.shape), power],
                           axis=-1)  # [S_c; z_c] -> z_{c+1}
    work[..., NOISE_ROWS, last:, :, -1, :] = 0.0
    work[..., STATE_ROWS, 0, :, 0, :] = z
    # one (rows, 2 chunks) matrix per (slot, realization, bin)
    items = np.moveaxis(work, (-4, -5), (0, -3))
    items = items.reshape(items.shape[:-2] + (-1,))

    # pass 1: chunk sums S_c into rows 4:8 of slot 0, then the carries
    noise = np.moveaxis(work[..., NOISE_ROWS, :, :, :, :], -3, -5)
    noise = noise.reshape(noise.shape[:-5] + (-1, 2 * kb, 2 * chunks))
    head = items[0]
    np.matmul(lift, noise, out=head[..., 4:8, :])
    for c in range(0, 2 * chunks - 2, 2):
        np.matmul(carry, head[..., 4:12, c:c + 2],
                  out=head[..., STATE_ROWS, c + 2:c + 4])
    np.matmul(w, head[..., STATE_ROWS, :], out=head[..., FACTOR_ROWS, :])

    # pass 2: the steps after slots 0 .. kb-2, each across all chunks
    for j in range(kb - 1):
        np.matmul(ext, items[j, ..., STATE_ROWS.start:, :],
                  out=items[j + 1, ..., :STATE_ROWS.stop, :])
    if last == kb:
        end = np.matmul(m, items[-1, ..., STATE_ROWS.start:, -2:])
        z[...] = np.swapaxes(end, -3, -2)
    else:
        z[...] = work[..., STATE_ROWS, last, :, -1, :]

    # integrands: squared factors summed over rows and bins, then re/im
    f = work[..., FACTOR_ROWS, :, :, :, :]
    f = f.reshape(batch + (2, 4, kb, -1, 2 * chunks))
    f = np.einsum("...qrjbk,...qrjbk->j...qk", f, f)
    f[..., 0::2] += f[..., 1::2]
    sums = np.moveaxis(f[..., 0::2], -1, 0).reshape(
        (kb * chunks,) + batch + (2,))[:steps]
    np.add.accumulate(sums, axis=0, out=sums)
    sums *= dt

    work[..., STATE_ROWS, last + 1:, :, -1, :] = 0.0  # padding
    states = work[..., STATE_ROWS, :, :, :, :]
    states = states.reshape(batch + (-1, 2 * chunks))
    mx = np.maximum(np.maximum(states.max(axis=(-2, -1)),
                               -states.min(axis=(-2, -1))),
                    np.abs(z).max(axis=(-3, -2, -1)))
    return sums[..., 0], sums[..., 1], mx


def available_backends() -> dict:
    """Name -> kernel callable, for benchmarks."""
    return {BACKEND: advance}
