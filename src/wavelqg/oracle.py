"""Independent dense Riccati solver used to cross-validate the closed forms.

Nothing here shares a code path with the spectral synthesis.  The solver
is a Newton iteration on the full matrix equation (Kleinman's scheme,
bootstrapped by a shifted-Lyapunov stabilizing gain), run on the whole
ring rather than per frequency.  Agreement between it and the
per-frequency formulas is the package's main correctness evidence, so
keeping the routes disjoint is the point.

Dense solves are meant for modest sizes (n <= 64 grid sites, so state
dimension <= 128); they are O(dim**3) per Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

__all__ = [
    "StabilizabilityError",
    "ConvergenceError",
    "DenseAreProblem",
    "care_residual",
    "solve_care_dense",
    "solve_filter_are_dense",
    "spectral_abscissa",
]

MAX_DENSE_SITES = 64  # dense helpers refuse larger rings

_RANK_TOL = 1e-8


class StabilizabilityError(ValueError):
    """The (A, B) pair cannot be stabilized (or (A, Q^1/2) not detected)."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge; carries the residual history."""

    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass(frozen=True, eq=False)
class DenseAreProblem:
    """Data (a, b, q, r_inv) of the algebraic Riccati equation

        a.T P + P a - P b r_inv b.T P + q = 0.

    Construction runs PBH rank tests: (a, b) must be stabilizable and
    (a, q) detectable, otherwise no stabilizing solution exists and a
    :class:`StabilizabilityError` is raised up front.
    """

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r_inv: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        r_inv = np.atleast_2d(np.asarray(self.r_inv, dtype=float))
        m = a.shape[0]
        if a.shape != (m, m):
            raise ValueError("a must be square")
        if b.shape[0] != m:
            raise ValueError("b must have as many rows as a")
        p = b.shape[1]
        if q.shape != (m, m):
            raise ValueError("q must match the state dimension")
        if r_inv.shape != (p, p):
            raise ValueError("r_inv must match the input dimension")
        if not np.allclose(q, q.T, atol=1e-12 * (1.0 + np.abs(q).max())):
            raise ValueError("q must be symmetric")
        if np.any(np.linalg.eigvalsh(0.5 * (q + q.T)) < -1e-10 * (1.0 + np.abs(q).max())):
            raise ValueError("q must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(0.5 * (r_inv + r_inv.T)) <= 0.0):
            raise ValueError("r_inv must be positive definite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r_inv", r_inv)
        _check_stabilizable(a, b)
        _check_detectable(a, q)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _check_stabilizable(a: np.ndarray, b: np.ndarray) -> None:
    """PBH: rank [a - lam I, b] must be full for every unstable mode."""
    m = a.shape[0]
    scale = 1.0 + np.abs(a).max() + np.abs(b).max()
    for lam in np.linalg.eigvals(a):
        if lam.real < -_RANK_TOL * scale:
            continue
        pencil = np.hstack([a - lam * np.eye(m), b.astype(complex)])
        if np.linalg.matrix_rank(pencil, tol=_RANK_TOL * scale) < m:
            raise StabilizabilityError(
                f"(a, b) is not stabilizable: uncontrollable mode at {lam:.6g}")


def _check_detectable(a: np.ndarray, q: np.ndarray) -> None:
    """PBH on (a, q^1/2): every unstable mode must be visible in the cost."""
    m = a.shape[0]
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    w = np.clip(w, 0.0, None)
    c = (v * np.sqrt(w)) @ v.T  # symmetric square root
    scale = 1.0 + np.abs(a).max() + np.abs(c).max()
    for lam in np.linalg.eigvals(a):
        if lam.real < -_RANK_TOL * scale:
            continue
        pencil = np.vstack([a - lam * np.eye(m), c.astype(complex)])
        if np.linalg.matrix_rank(pencil, tol=_RANK_TOL * scale) < m:
            raise StabilizabilityError(
                f"(a, q) is not detectable: invisible mode at {lam:.6g}")


def care_residual(p_mat: np.ndarray, prob: DenseAreProblem) -> float:
    """Max-abs entry of a.T P + P a - P b r_inv b.T P + q."""
    a, b, q, r_inv = prob.a, prob.b, prob.q, prob.r_inv
    res = a.T @ p_mat + p_mat @ a - p_mat @ b @ r_inv @ b.T @ p_mat + q
    return float(np.abs(res).max())


def _bass_stabilizing_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A gain K0 with a - b K0 Hurwitz, via one shifted Lyapunov solve.

    For beta exceeding the spectral abscissa of -a, the solution Z of

        (a + beta I) Z + Z (a + beta I).T = 2 b b.T

    is positive definite when (a, b) is controllable, and K0 = b.T Z^-1
    stabilizes: (a - b K0) Z + Z (a - b K0).T = -2 beta Z < 0.  When (a, b)
    is merely stabilizable Z can be singular on the uncontrollable (already
    stable) subspace, so a tiny regularization keeps the inverse defined;
    the Newton iteration only needs *some* stabilizing start.
    """
    m = a.shape[0]
    beta = float(np.linalg.norm(a, 2)) + 1.0
    z = sla.solve_continuous_lyapunov(-(a + beta * np.eye(m)), -2.0 * b @ b.T)
    z = 0.5 * (z + z.T)
    z += 1e-13 * (1.0 + np.abs(z).max()) * np.eye(m)
    return b.T @ np.linalg.inv(z)


def solve_care_dense(prob: DenseAreProblem,
                     tol: float = 1e-12,
                     max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solution of the Riccati equation by Newton iteration.

    Returns ``(p, k)`` with ``k = r_inv @ b.T @ p`` the optimal gain.  Each
    Newton step solves one Lyapunov equation for the current closed loop;
    starting from a stabilizing gain the iterates decrease monotonically to
    the stabilizing solution, so the residual history is a useful
    diagnostic and is attached to :class:`ConvergenceError` on failure.
    """
    a, b, q, r_inv = prob.a, prob.b, prob.q, prob.r_inv
    if prob.dim > 2 * MAX_DENSE_SITES:
        raise ValueError(
            f"dense solve limited to state dimension {2 * MAX_DENSE_SITES}")
    r = np.linalg.inv(r_inv)
    k = _bass_stabilizing_gain(a, b)
    history = []
    p_mat = None
    for _ in range(max_iter):
        a_cl = a - b @ k
        rhs = -(q + k.T @ r @ k)
        p_mat = sla.solve_continuous_lyapunov(a_cl.T, rhs)
        p_mat = 0.5 * (p_mat + p_mat.T)
        res = care_residual(p_mat, prob)
        history.append(res)
        k = r_inv @ b.T @ p_mat
        if res <= tol * (1.0 + float(np.abs(p_mat).max())):
            return p_mat, k
    raise ConvergenceError(
        f"Newton iteration did not reach tolerance {tol} in {max_iter} steps "
        f"(last residual {history[-1]:.3e})", history)


def solve_filter_are_dense(a: np.ndarray, c: np.ndarray, w: np.ndarray,
                           v_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solution S of a S + S a.T + w - S c.T v_inv c S = 0.

    Solved through the dual control equation on transposed data.  Returns
    ``(s, l)`` with ``l = s @ c.T @ v_inv`` the filter gain.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    prob = DenseAreProblem(a=a.T, b=c.T, q=w, r_inv=v_inv)
    s, k_dual = solve_care_dense(prob)
    return s, k_dual.T


def spectral_abscissa(m) -> float:
    """Largest real part of the eigenvalues of a dense matrix."""
    m = np.atleast_2d(np.asarray(m))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.eigvals(m).real.max())
