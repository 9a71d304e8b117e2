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
matmul calls instead of 256.  The lifted maps and the other maps a call
steps with depend only on the run's blocks, so ``make_plan`` builds them
once per run and every call reuses them.  States and costs agree with
step-by-step Euler to roundoff, not bitwise; a realization's results stay
bitwise independent of the realizations stepped with it.

Costs come out as sums over a call.  A bin's cost and error integrands
are the squared norms of two factor matrices applied to its state, each
with any number of rows.  The work buffer holds one row per factor row
(at least four, which pass 1 borrows), then the four state rows and the
two noise rows; ``simulator`` passes only the nonzero factor rows, 3 for
the cost and 2 for the error, so its buffer has 11 rows.  Every
realization gets its block totals, BLAS-free einsum sums over each of
its own contiguous factor rows, then over its cost rows and its error
rows, once the factors past the last step are zeroed (a BLAS dot product
may split its sum over threads, so its last bits would follow the BLAS
thread count).  Only the first
``running`` realizations also get per-step running sums, and their
totals are the last running sums, bit for bit.  ``simulator`` asks for
them only where it reads them: realization 0's stored steps, and every
realization's burn-in step.  The states never depend on which sums a
call takes.  ``BACKEND`` names the kernel so runs can record it; there
is one, in numpy.
"""

from typing import NamedTuple

import numpy as np

BACKEND = "python"

# Rows of the work buffer, each over (slots, bins, chunks, re/im), counted
# from the end: the factor rows (cost, then error) come first and their
# number follows the factor matrices a run steps with.
STATE_ROWS = slice(-6, -2)  # z: plant (0:2), then estimate (2:4)
NOISE_ROWS = slice(-2, None)  # white noise: force, then measurement


def work_buffer(kb, chunks, batch, bins, factors):
    """Uninitialized work buffer for ``kb * chunks`` steps of ``batch``
    (a shape tuple) realizations stepped with ``factors`` factor rows
    (cost and error together): shape batch + (max(factors, 4) + 6, kb,
    bins, chunks, 2), step t = kb c + j in slot j of chunk c.  A slice
    along the chunk axis is a work buffer too."""
    return np.empty(tuple(batch) + (max(factors, 4) + 6, kb, bins, chunks, 2))


def _lifted(a, b, kb):
    """A**kb and [A**(kb-1) B, ..., A B, B], by doubling (kb a power of 2),
    the latter's columns ordered (noise, power)."""
    p, lift = a, b
    while lift.shape[-1] < kb * b.shape[-1]:
        lift = np.concatenate([np.matmul(p, lift), lift], axis=-1)
        p = np.matmul(p, p)
    lift = np.swapaxes(lift.reshape(lift.shape[:-1] + (kb, -1)), -1, -2)
    return p, lift.reshape(lift.shape[:-2] + (-1,))


class Plan(NamedTuple):
    """Per-run maps of :func:`advance`, from :func:`make_plan`; f is the
    number of factor rows, cost and error together."""

    m: np.ndarray      # (bins, 4, 6) [A B]
    w: np.ndarray      # (bins, f, 4) [w_cost; w_err]
    ext: np.ndarray    # (bins, f + 4, 6) [[w A, w B], [A, B]]
    lift: np.ndarray   # (bins, 4, 2 kb) [A**(kb-1) B, ..., A B, B]
    carry: np.ndarray  # (bins, 4, 8) [I, A**kb]: [S_c; z_c] -> z_{c+1}


def make_plan(m, w_cost, w_err, kb) -> Plan:
    """The maps :func:`advance` steps with, for chunks of ``kb`` steps,
    from its arguments of the same names; O(log kb) matmuls."""
    w = np.concatenate([w_cost, w_err], axis=-2)
    ext = np.concatenate([np.matmul(w, m), m], axis=-2)
    power, lift = _lifted(m[..., :4], m[..., 4:], kb)
    carry = np.concatenate([np.broadcast_to(np.eye(4), power.shape), power],
                           axis=-1)
    return Plan(m, w, ext, lift, carry)


def advance(z, m, w_cost, w_err, work, dt, steps=None, plan=None,
            running=0):
    """Advance ``z`` through ``steps`` Euler-Maruyama steps.

    z       : (..., 4, bins, 2) states, updated in place: rows are the
              (plant, estimate) coordinates, then bins, then real and
              imaginary parts
    m       : (bins, 4, 6) per-bin [A B]: Euler map A and noise injection B
    w_cost  : (bins, rows, 4) cost weight factors, any number of rows; a
              bin's cost integrand is |w_cost z|**2 summed over its two
              columns
    w_err   : (bins, rows, 4) estimation-error weight factors, likewise
    work    : (..., rows, kb, bins, chunks, 2) work buffer from
              :func:`work_buffer` for the factor rows of ``w_cost`` and
              ``w_err`` together, kb a power of two; step t = kb c + j is
              slot j of chunk c.  The noise rows (``NOISE_ROWS``) hold each
              step's white noise on entry; those past the last step are
              zeroed.  On return, the state rows (``STATE_ROWS``) of slot
              j, chunk c hold the state before step kb c + j, for every
              step of the call.
    dt      : step size
    steps   : number of steps, kb (chunks - 1) < steps <= kb chunks;
              default kb chunks
    plan    : ``make_plan(m, w_cost, w_err, kb)``, built here if not given
    running : how many realizations, the first along the flattened batch
              axes, also get per-step running sums

    Pass 1 carries the state from chunk to chunk, z_{c+1} = A**kb z_c +
    S_c with S_c = sum_j A**(kb-1-j) B w_{c,j}: every chunk's S_c comes
    from one batched matmul, then one small matmul per chunk carries.
    Pass 2 maps [z; noise] to [w z'; z'] with the (f + 4, 6) matrix
    [[w A, w B], [A, B]], f factor rows, once per slot, across every chunk
    at once, so a (realization, bin) item's product is a (f + 4, 6) by
    (6, 2 chunks) gemm.

    Returns (cost, err, max_abs_state, sums).  ``cost`` and ``err`` have
    the batch shape ``z.shape[:-3]``: dt times the sum of the integrands
    at the states before steps 0 .. steps-1.  ``sums`` has shape (steps,
    running, 2): entry (t, i) is dt times realization i's (cost, err)
    integrands summed over the states before steps 0..t, and its last
    step is that realization's ``cost`` and ``err``, bit for bit.
    ``max_abs_state`` has the batch shape and covers every state the call
    visits, the first and the last included, and no padding past the
    last.

    Each item's results are bitwise what it gets when stepped alone, with
    ``running`` 0 or 1 as it was one of the first ``running`` or not:
    every product is a stacked matmul with one item per (realization,
    bin), never a gemm across realizations; a realization's totals are
    BLAS-free reductions over each of its own contiguous factor rows,
    then over its cost rows and its error rows, and its running sums one
    reduction per step over its own entries, in a fixed order, then a sum
    over steps in order.
    """
    kb, chunks = work.shape[-4], work.shape[-2]
    steps = kb * chunks if steps is None else steps
    last = steps - kb * (chunks - 1)  # steps in the last chunk
    if not 0 < last <= kb:
        raise ValueError(f"{steps} steps do not end in the last of "
                         f"{chunks} chunks of {kb}")
    if plan is None:
        plan = make_plan(m, w_cost, w_err, kb)
    batch = z.shape[:-3]
    split = w_cost.shape[-2]  # cost rows, then error rows
    factors = slice(-6 - plan.w.shape[-2], -6)
    work[..., NOISE_ROWS, last:, :, -1, :] = 0.0
    work[..., STATE_ROWS, 0, :, 0, :] = z
    # one (rows, 2 chunks) matrix per (slot, realization, bin)
    items = np.moveaxis(work, (-4, -5), (0, -3))
    items = items.reshape(items.shape[:-2] + (-1,))

    # pass 1: chunk sums S_c into the four rows above the states in slot 0
    # (factor rows, not yet written), then the carries
    noise = np.moveaxis(work[..., NOISE_ROWS, :, :, :, :], -3, -5)
    noise = noise.reshape(noise.shape[:-5] + (-1, 2 * kb, 2 * chunks))
    head = items[0]
    np.matmul(plan.lift, noise, out=head[..., -10:-6, :])
    for c in range(0, 2 * chunks - 2, 2):
        np.matmul(plan.carry, head[..., -10:-2, c:c + 2],
                  out=head[..., STATE_ROWS, c + 2:c + 4])
    np.matmul(plan.w, head[..., STATE_ROWS, :], out=head[..., factors, :])

    # pass 2: the steps after slots 0 .. kb-2, each across all chunks
    for j in range(kb - 1):
        np.matmul(plan.ext, items[j, ..., STATE_ROWS.start:, :],
                  out=items[j + 1, ..., factors.start:STATE_ROWS.stop, :])
    if last == kb:
        end = np.matmul(plan.m, items[-1, ..., STATE_ROWS.start:, -2:])
        z[...] = np.swapaxes(end, -3, -2)
    else:
        z[...] = work[..., STATE_ROWS, last, :, -1, :]

    # padding: factors past the last step, states past the last state
    work[..., factors, last:, :, -1, :] = 0.0
    work[..., STATE_ROWS, last + 1:, :, -1, :] = 0.0
    f = work[..., factors, :, :, :, :]
    f = f.reshape((-1,) + f.shape[-5:-2] + (2 * chunks,))
    running = min(running, len(f))
    parts = f[:, :split], f[:, split:]  # cost rows, error rows
    totals = np.empty((f.shape[0], 2))
    # running sums: squared factors summed over rows and bins, then re/im
    g = np.empty((kb, running, 2, 2 * chunks))
    for q, part in enumerate(parts):
        lead = part[:running]
        np.einsum("...rjbk,...rjbk->j...k", lead, lead, out=g[:, :, q])
    g[..., 0::2] += g[..., 1::2]
    sums = np.moveaxis(g[..., 0::2], -1, 0).reshape(
        (kb * chunks, running, 2))[:steps]
    np.add.accumulate(sums, axis=0, out=sums)
    sums *= dt
    totals[:running] = sums[-1]
    # the others' totals: one sum over each of their contiguous factor
    # rows (a copy when work is a slice along the chunk axis), then over
    # the cost rows and the error rows; summed per row, the reduction has
    # the same shape for one realization as for many
    rest = f[running:].reshape((len(f) - running, f.shape[1], f[0, 0].size))
    per_row = np.einsum("...k,...k->...", rest, rest)
    totals[running:, 0] = per_row[:, :split].sum(axis=1)
    totals[running:, 1] = per_row[:, split:].sum(axis=1)
    totals[running:] *= dt

    states = work[..., STATE_ROWS, :, :, :, :]
    states = states.reshape(batch + (-1, 2 * chunks))
    mx = np.maximum(np.maximum(states.max(axis=(-2, -1)),
                               -states.min(axis=(-2, -1))),
                    np.abs(z).max(axis=(-3, -2, -1)))
    totals = totals.reshape(batch + (2,))
    return totals[..., 0], totals[..., 1], mx, sums


def available_backends() -> dict:
    """Name -> kernel callable, for benchmarks."""
    return {BACKEND: advance}
