"""Per-frequency Euler-Maruyama stepping kernel of the Monte Carlo simulator.

In rfft coordinates the ring's loop splits into one real 4-state block per
frequency bin; a bin's real and imaginary parts are two columns stepped by
the same map.  ``advance`` steps every (realization, bin) item with one
stacked matmul per step.  ``BACKEND`` names the kernel so runs can record
it; there is one, in numpy.
"""

import numpy as np

BACKEND = "python"

# Rows of one step of the work buffer, each over (bins, re/im):
FACTOR_ROWS = slice(0, 8)   # w_cost z (0:4), then w_err z (4:8)
STATE_ROWS = slice(8, 12)   # z: plant (0:2), then estimate (2:4)
NOISE_ROWS = slice(12, 14)  # white noise: force, then measurement
ROWS = 14


def _bins_first(a):
    """(..., rows, bins, 2) -> (..., bins, rows, 2) view: matmul items."""
    return np.moveaxis(a, -3, -2)


def advance(z, m, w_cost, w_err, path, dt):
    """Advance ``z`` through ``path.shape[0]`` Euler-Maruyama steps.

    z      : (..., 4, bins, 2) states, updated in place: rows are the
             (plant, estimate) coordinates, then bins, then real and
             imaginary parts
    m      : (bins, 4, 6) per-bin [A B]: Euler map A and noise injection B
    w_cost : (bins, 4, 4) cost weight factors; a bin's cost integrand is
             |w_cost z|**2 summed over its two columns
    w_err  : (bins, 4, 4) estimation-error weight factors, likewise
    path   : (steps, ..., ROWS, bins, 2) work buffer, steps >= 1.  Rows
             12:14 hold each step's white noise on entry.  On return, rows
             8:12 of entry t hold the state before step t and rows 0:8 its
             weight factors, squared.
    dt     : step size

    One stacked matmul per step maps [z; noise] to [w z'; z'] for the next
    state z' = A z + B noise, with the (12, 6) matrix [[w A, w B], [A, B]].
    The integrands are then squares of entries the steps already wrote,
    so no temporary the size of the path is allocated.

    Returns (cost, err, max_abs_state).  ``cost`` and ``err`` have shape
    (steps, ...): entry t is dt times the sum of the integrands at the
    states before steps 0..t.  ``max_abs_state`` has shape ``z.shape[:-3]``
    and covers every state the call visits, the first and the last
    included.

    Each item's results are bitwise what it gets when stepped alone: every
    product is a stacked matmul with one item per (realization, bin),
    never a gemm across realizations; each step's integrand is a sum over
    one contiguous row, and the prefix sums run over steps in order.
    """
    w = np.concatenate([w_cost, w_err], axis=-2)
    ext = np.concatenate([np.matmul(w, m), m], axis=-2)
    src = _bins_first(path[..., STATE_ROWS.start:, :, :])
    dst = _bins_first(path[..., :STATE_ROWS.stop, :, :])
    path[0, ..., STATE_ROWS, :, :] = z
    np.matmul(w, _bins_first(z), out=dst[0, ..., FACTOR_ROWS, :])
    for t in range(path.shape[0] - 1):
        np.matmul(ext, src[t], out=dst[t + 1])
    z[...] = _bins_first(np.matmul(ext, src[-1])[..., STATE_ROWS, :])
    f = path[..., FACTOR_ROWS, :, :]
    np.square(f, out=f)
    integrands = f.reshape(f.shape[:-3] + (2, -1)).sum(axis=-1)
    sums = np.add.accumulate(integrands, axis=0) * dt
    states = path[..., STATE_ROWS, :, :]
    axes = (0, -3, -2, -1)
    mx = np.maximum(np.maximum(states.max(axis=axes), -states.min(axis=axes)),
                    np.abs(z).max(axis=(-3, -2, -1)))
    return sums[..., 0], sums[..., 1], mx


def available_backends() -> dict:
    """Name -> kernel callable, for benchmarks."""
    return {BACKEND: advance}
