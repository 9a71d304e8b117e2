"""Time the per-frequency Euler-Maruyama stepping kernel.

Usage:
    python benchmarks/bench_stepper.py [--n 30] [--steps 20000] [--repeat 5]

The timed region is what ``simulator.simulate`` spends its time on, called
the way it calls the kernel: the run's maps planned once
(``_kernels.make_plan``), then ``advance`` over a pre-filled work buffer,
one call per consecutive segment of ``simulator._BLOCK`` steps, with
per-step running sums for the one realization, as ``simulate`` keeps them
for realization 0.  Reported numbers are the best of ``--repeat`` runs.
"""

import argparse
import time

import numpy as np

from wavelqg import _kernels
from wavelqg.params import NondimParams
from wavelqg.simulator import _BLOCK, _KB, _bin_parts, _split, frequency_blocks
from wavelqg.synthesis import ring_design

DT = 0.005


def build_workload(n: int, steps: int, seed: int = 0):
    """``advance``'s inputs for one realization at ring size n:
    (z0, [A B], cost weight factors, error weight factors, work buffer),
    the buffer holding ``steps`` steps of white noise in chunks of
    ``simulator._KB`` steps, as ``simulate`` draws it: 2n standard normals
    per step in rfft bins, zero imaginary parts at k = 0 and at the
    Nyquist bin, and the bins' law carried by the injection map (a last
    partial chunk is padded with zero noise, so a call without a step
    count runs a whole number of chunks).
    """
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=n)
    a, b, (w_cost, w_err) = frequency_blocks(ring_design(p), DT)
    bins = n // 2 + 1
    chunks = -(-steps // _KB)
    rng = np.random.default_rng(seed)
    work = _kernels.work_buffer(_KB, chunks, (), bins,
                                w_cost.shape[-2] + w_err.shape[-2])
    work[...] = 0.0  # uninitialized outside the noise rows filled below
    noise = work[_kernels.NOISE_ROWS]
    inner, real = _bin_parts(n)
    draws = _split(rng.standard_normal((2, _KB, n * chunks)), n)
    noise[:, :, inner] = draws[0]
    noise[:, :, real, :, 0] = draws[1]
    noise[:, steps % _KB or _KB:, :, -1, :] = 0.0
    z0 = rng.standard_normal((4, bins, 2))
    return z0, np.concatenate([a, b], axis=-1), w_cost, w_err, work


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=30, help="ring sites")
    ap.add_argument("--steps", type=int, default=20_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)

    z0, m, w_cost, w_err, work = build_workload(args.n, args.steps)
    per_call = _BLOCK // _KB  # chunks per kernel call
    print(f"n={args.n}, steps={args.steps}, {m.shape[0]} frequency bins, "
          f"backend: {_kernels.BACKEND}")

    best = np.inf
    cost = 0.0
    for _ in range(args.repeat):
        z = z0.copy()
        cost = 0.0
        t0 = time.perf_counter()
        plan = _kernels.make_plan(m, w_cost, w_err, _KB)
        for lo in range(0, args.steps, _BLOCK):
            hi = min(lo + _BLOCK, args.steps)
            buf = work[..., lo // _KB:lo // _KB + per_call, :]
            cost += _kernels.advance(z, m, w_cost, w_err, buf, DT, hi - lo,
                                     plan=plan, running=1)[0]
        best = min(best, time.perf_counter() - t0)
    rate = args.steps / best
    print(f"  {best * 1e3:9.2f} ms   {rate:12.0f} steps/s   "
          f"cost integral {cost:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
