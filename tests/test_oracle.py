"""Batched per-frequency Newton-Kleinman oracle: closed forms, the
stabilizing solution, the filter equation and convergence failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from dense import gains, regulator_care, spectral_abscissa
from wavelqg import oracle
from wavelqg.oracle import (ConvergenceError, backward_error, newton_kleinman,
                            ring_equations, solve_ring)
from wavelqg.params import NondimParams
from wavelqg.spectral import laplacian_spectrum, rfft_half
from wavelqg.synthesis import design_spectra
from wavelqg.verify import verify_point

SQRT3 = np.sqrt(3.0)


def _place(a, b):
    """Ackermann's gain giving each 2x2 block of a - b k the polynomial
    s**2 + 2 s + 1."""
    ctrb = np.stack([b, np.einsum("...ij,...j->...i", a, b)], -1)
    phi = a @ a + 2.0 * a + np.eye(2)
    last_row = np.linalg.solve(np.swapaxes(ctrb, -1, -2), np.array([0.0, 1.0]))
    return np.einsum("...i,...ij->...j", last_row, phi)


def test_double_integrator_closed_form():
    x, k = newton_kleinman(np.array([[0.0, 1.0], [0.0, 0.0]]),
                           np.array([0.0, 1.0]), np.eye(2), 1.0,
                           np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [[SQRT3, 1.0], [1.0, SQRT3]], atol=1e-12)
    np.testing.assert_allclose(k, [1.0, SQRT3], atol=1e-12)


def test_scalar_are():
    # a = -I with input on the second state only: that state obeys the
    # scalar equation -2 x + 1 - x**2 = 0, the first a scalar Lyapunov one
    x, _ = newton_kleinman(-np.eye(2), np.array([0.0, 1.0]), np.eye(2), 1.0,
                           np.zeros(2))
    np.testing.assert_allclose(x, np.diag([0.5, np.sqrt(2.0) - 1.0]),
                               atol=1e-14)


def test_solution_is_stabilizing_and_residual_small():
    # a batch of random single-input problems against scipy's Schur solver
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 2, 2))
    b = rng.standard_normal((20, 2))
    g = rng.standard_normal((20, 2, 2))
    q = np.swapaxes(g, -1, -2) @ g + 0.1 * np.eye(2)
    r_inv = 10.0 ** rng.uniform(-2, 2, 20)
    x, k = newton_kleinman(a, b, q, r_inv, _place(a, b))
    assert backward_error(a, b, q, r_inv, x).max() <= 1e-14
    for i in range(20):
        ref = sla.solve_continuous_are(a[i], b[i][:, None], q[i],
                                       [[1.0 / r_inv[i]]])
        np.testing.assert_allclose(x[i], ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max())
        assert spectral_abscissa(a[i] - np.outer(b[i], k[i])) < 0.0
        assert np.all(np.linalg.eigvalsh(x[i]) > 0.0)


def test_convergence_error_carries_step_history(monkeypatch):
    # from the fixed start s**2 + 2 s + 1 in every block, far from the
    # solution's scale (gains of order 1e8), Newton only halves the gains
    p = NondimParams(pi1=1e-8, pi2=1.0, pi3=1e8, pi4=1e8, n=2)
    a, b, q, r_inv = ring_equations(p, rfft_half(p.n)[0])
    start = _place(a, b)
    monkeypatch.setattr(oracle, "MAX_NEWTON_STEPS", 6)
    with pytest.raises(ConvergenceError, match="did not settle in 6 steps") \
            as exc_info:
        newton_kleinman(a, b, q, r_inv, start)
    hist = exc_info.value.step_history
    assert len(hist) == 6
    # far from the solution each Newton step halves the gains, so every
    # step is as large as the gains it leaves
    np.testing.assert_allclose(hist, 1.0, rtol=1e-6)


def _seeded_points(count, lo, hi, seed):
    """``count`` points with pi2, pi3, pi4 log-uniform in [10**lo, 10**hi],
    pi1 zero for a quarter of them and log-uniform otherwise, n in 2 .. 64."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        e = rng.uniform(lo, hi, 4)
        pi1 = 0.0 if rng.random() < 0.25 else 10.0 ** e[0]
        yield NondimParams(pi1=pi1, pi2=10.0 ** e[1], pi3=10.0 ** e[2],
                           pi4=10.0 ** e[3], n=int(rng.integers(2, 65)))


def test_solve_ring_makes_at_most_six_lyapunov_solves(monkeypatch):
    # from the data-scaled starts: at most 5 Newton steps and the
    # refinement, however far the gains are from 1
    calls = []
    lyapunov = oracle._lyapunov
    monkeypatch.setattr(oracle, "_lyapunov",
                        lambda f, c: calls.append(1) or lyapunov(f, c))
    for p in _seeded_points(300, -12.0, 12.0, seed=27):
        calls.clear()
        solve_ring(p, rfft_half(p.n)[0])
        assert len(calls) <= 6, p


def test_solve_ring_starts_are_stabilizing(monkeypatch):
    starts = []
    solve = oracle.newton_kleinman
    monkeypatch.setattr(oracle, "newton_kleinman",
                        lambda *eq: starts.append(eq[-1]) or solve(*eq))
    for p in _seeded_points(300, -12.0, 12.0, seed=11):
        starts.clear()
        d = rfft_half(p.n)[0]
        _, k = solve_ring(p, d)
        (k0, kc), (lc, l0) = np.moveaxis(starts[0], -1, 1)
        # the closed-loop quadratics s**2 + kc s + (k0 - d) and
        # s**2 + pi4 lc s + (pi4 l0 - d) of every block
        assert np.all(k0 - d > 0.0) and np.all(kc > 0.0), p
        assert np.all(p.pi4 * lc > 0.0) and np.all(p.pi4 * l0 - d > 0.0), p
        # each start is within a factor of 2 below the solution's gain
        ratio = starts[0] / k
        assert np.all((ratio >= 0.5) & (ratio <= 1.0 + 1e-12)), p


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", range(-100, 101, 4))
def test_verify_point_passes_at_extreme_pi3_pi4(e):
    # the gains are far from 1 here: from a start of fixed scale Newton
    # needs about log2 of their scale in steps, more than MAX_NEWTON_STEPS
    # at both ends of this range
    p = NondimParams(pi1=0.0, pi2=1.0, pi3=10.0 ** e, pi4=10.0 ** e, n=4)
    for check in verify_point(p):
        assert check.ok, check


def test_filter_solution_satisfies_filter_equation():
    # kind 1 is solved as the dual control equation; its solution must
    # solve the primal filter equation a S + S a.T + W - S c.T V^-1 c S = 0
    p = NondimParams(pi1=0.3, pi2=2.0, pi3=0.7, pi4=5.0, n=12)
    d = rfft_half(p.n)[0]
    x, k = solve_ring(p, d)
    a, b, w, v_inv = (arr[1] for arr in ring_equations(p, d))
    a_f = np.swapaxes(a, -1, -2)
    c = b[:, None, :]
    s = x[1]
    res = (a_f @ s + s @ np.swapaxes(a_f, -1, -2) + w
           - v_inv[:, None, None] * s @ np.swapaxes(c, -1, -2) @ c @ s)
    assert np.abs(res).max() <= 1e-12 * (1 + np.abs(s).max())
    l = v_inv[:, None] * np.einsum("kij,kj->ki", s, b)
    np.testing.assert_allclose(k[1], l, rtol=1e-14)
    assert max(spectral_abscissa(a_f[i] - np.outer(l[i], b[i]))
               for i in range(p.n // 2 + 1)) < 0.0


def test_backward_error_is_scale_invariant():
    p = NondimParams(pi1=0.8, pi2=1.3, pi3=2.1, pi4=1.0, n=8)
    d = rfft_half(p.n)[0]
    a, b, q, r_inv = (arr[0] for arr in ring_equations(p, d))
    x, _ = solve_ring(p, d)
    off = x[0] * (1.0 + 1e-6)
    err = backward_error(a, b, q, r_inv, off)
    # scaling the equation and its solution together leaves it unchanged
    np.testing.assert_allclose(
        backward_error(a, b / 100.0, 1e4 * q, r_inv, 1e4 * off), err,
        rtol=1e-9)
    assert err.min() > 1e-8


_PI = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(pi1=st.one_of(st.just(0.0), _PI), pi2=_PI, pi3=_PI, pi4=_PI,
       n=st.integers(2, 64))
def test_verify_point_passes_over_the_wide_range(pi1, pi2, pi3, pi4, n):
    p = NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)
    # every check, closed_loop_spectral_abscissa included
    for check in verify_point(p):
        assert check.ok, check


_PI_WIDE = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(pi1=st.one_of(st.just(0.0), _PI_WIDE), pi2=_PI_WIDE, pi3=_PI_WIDE,
       pi4=_PI_WIDE, n=st.integers(2, 64))
def test_verify_point_passes_over_the_widest_range(pi1, pi2, pi3, pi4, n):
    # up to pi2 = 1e12, kc >> k0 makes x12 = k0 / pi3**2 tiny next to the
    # other entries; the closed-form Lyapunov step keeps it
    p = NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)
    for check in verify_point(p):
        assert check.ok, check


@pytest.mark.parametrize("pi1", [0.0, 1e-12, 1.0])
@pytest.mark.parametrize("pi4", [1e-12, 1.0, 1e12])
def test_verify_point_passes_at_the_large_pi2_corners(pi1, pi4):
    p = NondimParams(pi1=pi1, pi2=1e12, pi3=1e-12, pi4=pi4, n=64)
    for check in verify_point(p):
        assert check.ok, check


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
    # one 2n-by-2n Schur solve against the per-frequency construction
    p = NondimParams(pi1=0.8, pi2=1.3, pi3=2.1, pi4=1.0, n=8)
    # B' P picks the velocity rows of P
    k_dense = p.pi3 ** 2 * regulator_care(p)[p.n:]
    k_spectral, _ = gains(
        design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                       laplacian_spectrum(p.n), 1.0).blocks)
    assert np.abs(k_dense - k_spectral).max() <= 1e-8 * (1 + np.abs(k_spectral).max())
