"""Batched per-frequency Newton-Kleinman oracle for the ring's Riccati
equations.

The DFT splits each of the ring's two 2n-dimensional Riccati equations
(the regulator's, and the filter's written as its dual control equation)
into n independent 2x2 blocks, one per Laplacian eigenvalue d(k).  This
module solves all 2n blocks at once by Kleinman's Newton iteration
(IEEE TAC 13, 1968) on arrays whose leading axes are (kind, frequency):
kind 0 is the regulator, kind 1 the filter's dual.  Each Newton step is
one batched 2x2 symmetric Lyapunov solve, and the iteration starts from
analytic stabilizing gains.

The oracle shares only :func:`~wavelqg.spectral.laplacian_spectrum` with
the closed forms of :mod:`wavelqg.synthesis`; agreement between the two is
the package's main correctness evidence, so keeping the routes disjoint
is the point.  It needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from .params import NondimParams
from .spectral import laplacian_spectrum

__all__ = [
    "ConvergenceError",
    "MAX_NEWTON_STEPS",
    "backward_error",
    "newton_kleinman",
    "ring_equations",
    "solve_ring",
    "symmetric_blocks",
]

# Newton steps allowed before the iteration is declared stuck.  From the
# starts of solve_ring it took at most 66 steps on 400 random points with
# every pi in [1e-8, 1e8]: far from the solution each step about halves
# the gain, so the count grows with the log of the gains' size.
MAX_NEWTON_STEPS = 100

# Once the relative gain step is below this, the iteration is in its
# quadratic phase, so a step that does not shrink is roundoff.
_SETTLED = 1e-6


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge; carries the history of its
    relative gain steps."""

    def __init__(self, message: str, step_history):
        super().__init__(message)
        self.step_history = list(step_history)


def ring_equations(p: NondimParams):
    """The 2n Riccati blocks a.T X + X a - X b r_inv b.T X + q = 0 at ``p``.

    Returns ``(a, b, q, r_inv)`` with shapes (2, n, 2, 2), (2, n, 2),
    (2, n, 2, 2) and (2, n).  With v = 1 - pi1 d, block k of kind 0 is
    the regulator (a = [[0, 1], [d, 0]], b = [0, 1], q = diag(v, pi2),
    r_inv = pi3**2) and block k of kind 1 the filter's dual (a transposed,
    b = [pi4, 0], q = diag(0, 1), r_inv = v).
    """
    d = laplacian_spectrum(p.n)
    zero, one = np.zeros_like(d), np.ones_like(d)
    v = 1.0 - p.pi1 * d
    a_reg = np.stack([np.stack([zero, one], -1), np.stack([d, zero], -1)], -2)
    a = np.stack([a_reg, np.swapaxes(a_reg, -1, -2)])
    b = np.stack([np.stack([zero, one], -1),
                  np.stack([p.pi4 * one, zero], -1)])
    q = np.zeros_like(a)
    q[0, :, 0, 0] = v
    q[0, :, 1, 1] = p.pi2
    q[1, :, 1, 1] = 1.0
    return a, b, q, np.stack([p.pi3 ** 2 * one, v])


def solve_ring(p: NondimParams) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solutions and gains of :func:`ring_equations` at ``p``.

    Returns ``(x, k)``: x (2, n, 2, 2) holds the control Riccati blocks and
    the filter error covariances, k (2, n, 2) the regulator gains [k0, kc]
    and the filter's dual gains [lc, l0].  Both starts give every block the
    closed-loop polynomial s**2 + 2 s + 1.
    """
    d = laplacian_spectrum(p.n)
    start = np.stack([np.stack([1.0 + d, np.full_like(d, 2.0)], -1),
                      np.stack([np.full_like(d, 2.0), 1.0 + d], -1) / p.pi4])
    return newton_kleinman(*ring_equations(p), start)


def newton_kleinman(a, b, q, r_inv, k) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solutions of a batch of 2x2 single-input Riccati
    equations a.T X + X a - X b r_inv b.T X + q = 0, by Newton iteration
    from gains ``k`` (shape (..., 2)) with a - b k Hurwitz in every block.

    Each step solves (a - b k).T X + X (a - b k) + q + k.T k / r_inv = 0
    and sets k = r_inv b.T X.  The iteration stops once the relative gain
    step (max-abs change of each block's gain over its max-abs size, worst
    over the batch) is small and stops shrinking.  Returns ``(x, k)``.
    Raises :class:`ConvergenceError` after :data:`MAX_NEWTON_STEPS` steps
    or on a non-finite iterate.
    """
    r_inv = np.asarray(r_inv, dtype=float)[..., None]
    steps = []
    for _ in range(MAX_NEWTON_STEPS):
        f = a - b[..., :, None] * k[..., None, :]
        x = _lyapunov(f, q + k[..., :, None] * k[..., None, :]
                      / r_inv[..., None])
        k_next = r_inv * np.einsum("...ij,...i->...j", x, b)
        step = float(np.max(np.abs(k_next - k).max(axis=-1)
                            / np.abs(k_next).max(axis=-1)))
        k = k_next
        steps.append(step)
        if not np.isfinite(step):
            break
        if step == 0.0 or (step < _SETTLED and len(steps) > 1
                            and step >= steps[-2]):
            return x, k
    raise ConvergenceError(
        f"Newton iteration did not settle in {len(steps)} steps "
        f"(last relative gain step {steps[-1]:.3e})",
        steps)


def _lyapunov(f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Symmetric X with f.T X + X f + c = 0 for a batch of 2x2 blocks, as
    one batched 3x3 solve for (x11, x12, x22)."""
    f11, f12, f21, f22 = f[..., 0, 0], f[..., 0, 1], f[..., 1, 0], f[..., 1, 1]
    zero = np.zeros_like(f11)
    m = np.stack([np.stack([2.0 * f11, 2.0 * f21, zero], -1),
                  np.stack([f12, f11 + f22, f21], -1),
                  np.stack([zero, 2.0 * f12, 2.0 * f22], -1)], -2)
    rhs = -np.stack([c[..., 0, 0], c[..., 0, 1], c[..., 1, 1]], -1)
    x = np.linalg.solve(m, rhs[..., None])[..., 0]
    return symmetric_blocks(x[..., 0], x[..., 1], x[..., 2])


def symmetric_blocks(x11, x12, x22) -> np.ndarray:
    """Symmetric 2x2 blocks [[x11, x12], [x12, x22]] from batched entries."""
    return np.stack([np.stack([x11, x12], -1), np.stack([x12, x22], -1)], -2)


def backward_error(a, b, q, r_inv, x) -> np.ndarray:
    """Relative residual of X in each block of a.T X + X a - X b r_inv b.T X
    + q = 0: ||res|| / (||a.T X|| + ||X a|| + ||X b r_inv b.T X|| + ||q||)
    in the max-abs norm (Higham, *Accuracy and Stability of Numerical
    Algorithms*), one value per block."""
    def size(m):
        return np.abs(m).max(axis=(-2, -1))

    at_x = np.swapaxes(a, -1, -2) @ x
    x_a = x @ a
    xb = np.einsum("...ij,...j->...i", x, b)
    quad = np.asarray(r_inv)[..., None, None] * xb[..., :, None] * xb[..., None, :]
    res = at_x + x_a - quad + q
    return size(res) / (size(at_x) + size(x_a) + size(quad) + size(q))
