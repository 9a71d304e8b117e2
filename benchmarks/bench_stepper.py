"""Time the Euler-Maruyama stepping kernel.

Usage:
    python benchmarks/bench_stepper.py [--n 30] [--steps 20000] [--repeat 5]

The timed region is what ``simulator.simulate`` spends its time on:
``advance`` over a pre-drawn noise array, one call per consecutive segment
of ``simulator._BLOCK`` steps, as ``simulate`` bounds its kernel calls.
Reported numbers are the best of ``--repeat`` runs.
"""

import argparse
import time

import numpy as np

from wavelqg import _kernels
from wavelqg.analysis import build_closed_loop
from wavelqg.params import NondimParams
from wavelqg.simulator import _BLOCK


def build_workload(n: int, steps: int, seed: int = 0):
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=n)
    cl = build_closed_loop(p)
    m = np.ascontiguousarray(cl.augmented)
    rng = np.random.default_rng(seed)
    noise = 0.1 * rng.standard_normal((steps, 4 * n))
    z0 = rng.standard_normal(4 * n)
    return (z0, m, np.ascontiguousarray(cl.qbar),
            np.ascontiguousarray(cl.krk), noise)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=30, help="ring sites")
    ap.add_argument("--steps", type=int, default=20_000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)

    z0, m, qbar, krk, noise = build_workload(args.n, args.steps)
    dt = 0.005
    print(f"n={args.n}, steps={args.steps}, state dim {4 * args.n}, "
          f"backend: {_kernels.BACKEND}")

    best = np.inf
    cost = 0.0
    for _ in range(args.repeat):
        z = z0.copy()
        cost = 0.0
        t0 = time.perf_counter()
        for lo in range(0, args.steps, _BLOCK):
            cost += _kernels.advance(z, m, qbar, krk,
                                     noise[lo:lo + _BLOCK], dt)[0]
        best = min(best, time.perf_counter() - t0)
    rate = args.steps / best
    print(f"  {best * 1e3:9.2f} ms   {rate:12.0f} steps/s   "
          f"cost integral {cost:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
