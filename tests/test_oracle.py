"""Independent dense Riccati solver: Newton iteration and its checks."""

import numpy as np
import pytest

from wavelqg.oracle import (ConvergenceError, DenseAreProblem,
                            StabilizabilityError, care_residual,
                            solve_care_dense, solve_filter_are_dense,
                            spectral_abscissa)
from wavelqg.params import NondimParams
from wavelqg.spectral import circulant_dense, laplacian_circulant
from wavelqg.synthesis import optimal_gains

SQRT3 = np.sqrt(3.0)


def test_double_integrator_closed_form():
    prob = DenseAreProblem(a=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0],
                           q=np.eye(2), r_inv=[[1.0]])
    p, k = solve_care_dense(prob)
    np.testing.assert_allclose(p, [[SQRT3, 1.0], [1.0, SQRT3]], atol=1e-10)
    np.testing.assert_allclose(k, [[1.0, SQRT3]], atol=1e-10)


def test_scalar_are():
    prob = DenseAreProblem(a=[[-1.0]], b=[[1.0]], q=[[1.0]], r_inv=[[1.0]])
    p, _ = solve_care_dense(prob)
    assert p[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)


def test_solution_is_stabilizing_and_residual_small():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.integers(2, 6)
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((m, m))
        g = rng.standard_normal((m, m))
        q = g.T @ g + 0.1 * np.eye(m)
        prob = DenseAreProblem(a=a, b=b, q=q, r_inv=np.eye(m))
        p, k = solve_care_dense(prob)
        assert care_residual(p, prob) <= 1e-10 * (1 + np.abs(p).max())
        assert spectral_abscissa(a - b @ k) < 0.0
        assert np.all(np.linalg.eigvalsh(p) > 0.0)


def test_newton_residual_decreases_after_first_step():
    # tol=0 never converges, so the iteration raises and hands us its
    # residual history; monotone decay from step 1 is the classical property
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        g = rng.standard_normal((4, 4))
        prob = DenseAreProblem(a=a, b=b, q=g.T @ g + np.eye(4),
                               r_inv=np.eye(2))
        with pytest.raises(ConvergenceError) as exc_info:
            solve_care_dense(prob, tol=0.0, max_iter=6)
        hist = exc_info.value.residual_history
        assert len(hist) == 6
        floor = 1e-11 * (1.0 + hist[0])
        for earlier, later in zip(hist[1:], hist[2:]):
            assert later <= earlier + floor


def test_filter_solution_satisfies_filter_equation():
    # the dual (transposed-control) path must solve the primal filter ARE
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    c = rng.standard_normal((2, 4))
    g = rng.standard_normal((4, 4))
    w = g.T @ g + np.eye(4)
    v_inv = np.eye(2)
    s, l = solve_filter_are_dense(a, c, w, v_inv)
    res = a @ s + s @ a.T + w - s @ c.T @ v_inv @ c @ s
    assert np.abs(res).max() <= 1e-9 * (1 + np.abs(s).max())
    np.testing.assert_allclose(l, s @ c.T @ v_inv, atol=1e-12)
    assert spectral_abscissa(a - l @ c) < 0.0


def test_problem_validation():
    with pytest.raises(ValueError, match="square"):
        DenseAreProblem(a=np.zeros((2, 3)), b=np.eye(2), q=np.eye(2),
                        r_inv=np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        DenseAreProblem(a=-np.eye(2), b=np.eye(2),
                        q=[[1.0, 0.5], [0.0, 1.0]], r_inv=np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DenseAreProblem(a=-np.eye(2), b=np.eye(2), q=-np.eye(2),
                        r_inv=np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        DenseAreProblem(a=-np.eye(2), b=np.eye(2), q=np.eye(2),
                        r_inv=np.zeros((2, 2)))


def test_unstabilizable_pair_is_rejected():
    with pytest.raises(StabilizabilityError, match="not stabilizable"):
        DenseAreProblem(a=np.eye(2), b=np.zeros((2, 1)), q=np.eye(2),
                        r_inv=[[1.0]])


def test_undetectable_pair_is_rejected():
    a = np.diag([1.0, -1.0])
    with pytest.raises(StabilizabilityError, match="not detectable"):
        DenseAreProblem(a=a, b=np.eye(2), q=np.zeros((2, 2)),
                        r_inv=np.eye(2))


def test_dense_size_guard():
    m = 130
    prob = DenseAreProblem(a=-np.eye(m), b=np.eye(m), q=np.eye(m),
                           r_inv=np.eye(m))
    with pytest.raises(ValueError, match="limited"):
        solve_care_dense(prob)


@pytest.mark.parametrize("m,expected", [
    ([[0.0, 1.0], [-1.0, 0.0]], 0.0),
    ([[-1.0, 0.0], [0.0, -2.0]], -1.0),
])
def test_spectral_abscissa(m, expected):
    assert spectral_abscissa(m) == pytest.approx(expected, abs=1e-12)


def test_spectral_abscissa_validation():
    with pytest.raises(ValueError):
        spectral_abscissa(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectral_abscissa(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_full_ring_dense_solve_matches_spectral_assembly():
    # one 2n-by-2n Newton solve against the per-frequency construction
    p = NondimParams(pi1=0.8, pi2=1.3, pi3=2.1, pi4=1.0, n=8)
    n = p.n
    lap = circulant_dense(laplacian_circulant(n))
    a = np.block([[np.zeros((n, n)), np.eye(n)], [lap, np.zeros((n, n))]])
    b = np.vstack([np.zeros((n, n)), np.eye(n)])
    q = np.block([[np.eye(n) - p.pi1 * lap, np.zeros((n, n))],
                  [np.zeros((n, n)), p.pi2 * np.eye(n)]])
    prob = DenseAreProblem(a=a, b=b, q=q, r_inv=p.pi3**2 * np.eye(n))
    _, k_dense = solve_care_dense(prob)
    gs, _ = optimal_gains(p)
    k_spectral = np.hstack(circulant_dense(gs.rows))
    assert np.abs(k_dense - k_spectral).max() <= 1e-8 * (1 + np.abs(k_spectral).max())
