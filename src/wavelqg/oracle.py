"""Batched per-frequency Newton-Kleinman oracle for the ring's Riccati
equations.

The DFT splits each of the ring's two 2n-dimensional Riccati equations
(the regulator's, and the filter's written as its dual control equation)
into n independent 2x2 blocks, one per Laplacian eigenvalue d(k).  As
d(k) = d(n - k), only the n//2 + 1 blocks of the rfft half k = 0 .. n//2
are distinct.  This module solves those of both equations at once by
Kleinman's Newton iteration (IEEE TAC 13, 1968) on arrays whose leading
axes are (kind, frequency):
kind 0 is the regulator, kind 1 the filter's dual.  The iteration starts
from stabilizing gains scaled by each block's own data, within a factor
of 2 of the solution's.  Each Newton step solves its 2x2
symmetric Lyapunov equation in closed form on the blocks' entries, with no
linear solver; the last step's solution is refined once by the same
closed form applied to its own residual.

The oracle is given the eigenvalues d and imports only numpy and the
parameters, so it shares no code with the closed forms of
:mod:`wavelqg.synthesis`; agreement between the two is the package's main
correctness evidence, so keeping the routes disjoint is the point.
"""

from __future__ import annotations

import numpy as np

from .params import NondimParams

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
# data-scaled starts of solve_ring it took at most 5 steps (6 Lyapunov
# solves with the refinement) on 20000 seeded points with every pi in
# [1e-12, 1e12] and n in 2 .. 64.  A fixed start s**2 + 2 s + 1 needed up
# to 95 there, as far from the solution each step only halves the gain;
# the cap stays above that.
MAX_NEWTON_STEPS = 100

# Once the relative gain step is below this, the iteration is in its
# quadratic phase, so a step that does not shrink is roundoff.
_SETTLED = 1e-6

# A relative gain step this small (64 eps, about 1.4e-14) is roundoff
# whether or not it shrinks: the next step cannot improve the gains.
_ROUNDOFF = 64.0 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge; carries the history of its
    relative gain steps."""

    def __init__(self, message: str, step_history):
        super().__init__(message)
        self.step_history = list(step_history)


def ring_equations(p: NondimParams, d: np.ndarray):
    """The Riccati blocks a.T X + X a - X b r_inv b.T X + q = 0 at ``p``,
    one per Laplacian eigenvalue in ``d`` and kind.

    Returns ``(a, b, q, r_inv)`` with shapes (2, m, 2, 2), (2, m, 2),
    (2, m, 2, 2) and (2, m), m = len(d).  With v = 1 - pi1 d, block k of
    kind 0 is the regulator (a = [[0, 1], [d, 0]], b = [0, 1], q = diag(v,
    pi2), r_inv = pi3**2) and block k of kind 1 the filter's dual (a
    transposed, b = [pi4, 0], q = diag(0, 1), r_inv = v).
    """
    m = d.size
    v = 1.0 - p.pi1 * d
    a = np.zeros((2, m, 2, 2))
    a[0, :, 0, 1] = a[1, :, 1, 0] = 1.0
    a[0, :, 1, 0] = a[1, :, 0, 1] = d
    b = np.zeros((2, m, 2))
    b[0, :, 1] = 1.0
    b[1, :, 0] = p.pi4
    q = np.zeros_like(a)
    q[0, :, 0, 0] = v
    q[0, :, 1, 1] = p.pi2
    q[1, :, 1, 1] = 1.0
    r_inv = np.empty((2, m))
    r_inv[0] = p.pi3 ** 2
    r_inv[1] = v
    return a, b, q, r_inv


def solve_ring(p: NondimParams, d) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solutions and gains of :func:`ring_equations` at ``p``
    and the Laplacian eigenvalues ``d`` (the ring's rfft half, in verify).

    Returns ``(x, k)``: x (2, m, 2, 2) holds the control Riccati blocks and
    the filter error covariances, k (2, m, 2) the regulator gains [k0, kc]
    and the filter's dual gains [lc, l0], m = len(d).

    Each block starts from gains scaled by its own data.  With v = 1 -
    pi1 d, X = pi3**2 v and W = pi4**2 v, the regulator starts at k0 =
    X / (2|d| + sqrt(X)) and kc = sqrt(2 k0 + pi2 pi3**2), the filter's
    dual at pi4 l0 = g and pi4 lc = sqrt(2 g), g = W / (2|d| + sqrt(W)).
    These are order-of-magnitude bounds, not the roots: as |d| +
    sqrt(d**2 + X) <= 2|d| + sqrt(X) <= 2 (|d| + sqrt(d**2 + X)), each
    start lies within a factor of 2 below the solution's gain, and every
    block's closed loop is stable (k0 - d, kc, pi4 lc and pi4 l0 - d are
    positive).  Newton's answer is the unique stabilizing solution
    whichever stabilizing start it is given; the start sets only the step
    count, at most 5 steps and a refinement from these.
    """
    v = 1.0 - p.pi1 * d
    x, w = p.pi3 ** 2 * v, p.pi4 ** 2 * v
    k0 = x / (2.0 * abs(d) + np.sqrt(x))
    g = w / (2.0 * abs(d) + np.sqrt(w))
    kc = np.sqrt(2.0 * k0 + p.pi2 * p.pi3 ** 2)
    start = np.stack([np.stack([k0, kc], -1),
                      np.stack([np.sqrt(2.0 * g), g], -1) / p.pi4])
    return newton_kleinman(*ring_equations(p, d), start)


def newton_kleinman(a, b, q, r_inv, k) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solutions of a batch of 2x2 single-input Riccati
    equations a.T X + X a - X b r_inv b.T X + q = 0, by Newton iteration
    from gains ``k`` (shape (..., 2)) with a - b k Hurwitz in every block.

    Each step solves (a - b k).T X + X (a - b k) + q + k.T k / r_inv = 0
    (:func:`_lyapunov`) and sets k = r_inv b.T X.  The iteration stops once
    the relative gain step (max-abs change of each block's gain over its
    max-abs size, worst over the batch) is at roundoff (at most 64 eps), or
    is below 1e-6 and stops shrinking; the last solve is then refined once
    by the solve of its own residual, and k is taken from the refined X.
    Returns ``(x, k)``.  Raises :class:`ConvergenceError` after
    :data:`MAX_NEWTON_STEPS` steps or on a non-finite iterate.
    """
    # the blocks' entries, each a batch array; q is symmetric
    a11, a12, a21, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    q11, q12, q22 = q[..., 0, 0], q[..., 0, 1], q[..., 1, 1]
    b1, b2 = b[..., 0], b[..., 1]
    r = np.asarray(r_inv, dtype=float)
    k1, k2 = k[..., 0], k[..., 1]
    steps = []
    for _ in range(MAX_NEWTON_STEPS):
        f = (a11 - b1 * k1, a12 - b1 * k2, a21 - b2 * k1, a22 - b2 * k2)
        c = (q11 + k1 * k1 / r, q12 + k1 * k2 / r, q22 + k2 * k2 / r)
        x = _lyapunov(f, c)
        k1_next, k2_next = _gain(x, b1, b2, r)
        step = float(np.max(np.maximum(abs(k1_next - k1), abs(k2_next - k2))
                            / np.maximum(abs(k1_next), abs(k2_next))))
        k1, k2 = k1_next, k2_next
        steps.append(step)
        if not np.isfinite(step):
            break
        if step <= _ROUNDOFF or (step < _SETTLED and len(steps) > 1
                                 and step >= steps[-2]):
            x = [xi + dxi for xi, dxi in
                 zip(x, _lyapunov(f, _residual(f, x, c)))]
            return symmetric_blocks(*x), np.stack(_gain(x, b1, b2, r), -1)
    raise ConvergenceError(
        f"Newton iteration did not settle in {len(steps)} steps "
        f"(last relative gain step {steps[-1]:.3e})",
        steps)


def _gain(x, b1, b2, r):
    """Entries of the gain r b.T X from the entries (x11, x12, x22) of X."""
    x11, x12, x22 = x
    return r * (x11 * b1 + x12 * b2), r * (x12 * b1 + x22 * b2)


def _lyapunov(f, c):
    """Entries (x11, x12, x22) of the symmetric X with f.T X + X f + c = 0,
    from the entries (f11, f12, f21, f22) of f and (c11, c12, c22) of the
    symmetric c, each a batch array.

    In closed form X = -(det f c + adj(f).T c adj(f)) / (2 tr f det f),
    with adj(f) = tr f I - f.  On the ring's blocks f11 = 0 (regulator) or
    f22 = 0 (filter's dual), so det f = -f12 f21 has no cancellation.
    """
    f11, f12, f21, f22 = f
    c11, c12, c22 = c
    det = f11 * f22 - f12 * f21
    # g = c adj(f), then m = adj(f).T g
    g11, g12 = c11 * f22 - c12 * f21, c12 * f11 - c11 * f12
    g21, g22 = c12 * f22 - c22 * f21, c22 * f11 - c12 * f12
    scale = -0.5 / ((f11 + f22) * det)
    return (scale * (det * c11 + f22 * g11 - f21 * g21),
            scale * (det * c12 + f22 * g12 - f21 * g22),
            scale * (det * c22 + f11 * g22 - f12 * g12))


def _residual(f, x, c):
    """Entries (r11, r12, r22) of f.T X + X f + c, arguments as in
    :func:`_lyapunov` and ``x`` = (x11, x12, x22)."""
    f11, f12, f21, f22 = f
    x11, x12, x22 = x
    c11, c12, c22 = c
    return (2.0 * (f11 * x11 + f21 * x12) + c11,
            f12 * x11 + (f11 + f22) * x12 + f21 * x22 + c12,
            2.0 * (f12 * x12 + f22 * x22) + c22)


def symmetric_blocks(x11, x12, x22) -> np.ndarray:
    """Symmetric 2x2 blocks [[x11, x12], [x12, x22]] from batched entries."""
    x = np.empty(np.shape(x11) + (2, 2))
    x[..., 0, 0] = x11
    x[..., 0, 1] = x[..., 1, 0] = x12
    x[..., 1, 1] = x22
    return x


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
