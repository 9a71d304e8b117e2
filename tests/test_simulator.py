"""Monte Carlo loop tests: determinism, the noise law, decay, and costs.

Statistical assertions run on frozen seeds with bounds calibrated to pass
with healthy margin for typical draws (z-tests at 3-4 sigma); nothing here
is tuned to a lucky stream.
"""

import numpy as np
import pytest

from wavelqg.analysis import build_closed_loop
from wavelqg.oracle import spectral_abscissa
from wavelqg.params import NondimParams
from wavelqg.simulator import (
    InstabilityError,
    SimConfig,
    kernel_backend,
    noise_covariance,
    sample_correlated_noise,
    simulate,
)
from wavelqg.spectral import laplacian_circulant, laplacian_spectrum

MILD = NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=4)
# pi3 = pi4 = 2/pi1: the completely decentralized family at n=4.
DECENTRAL = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=4)


# ---------------------------------------------------------------- config

def test_config_rejects_nonpositive_dt():
    with pytest.raises(ValueError, match="dt must be positive"):
        SimConfig(params=MILD, dt=0.0)


def test_config_enforces_stability_guard():
    guard = 0.1 / np.sqrt(4.0 + MILD.pi3 + MILD.pi4)
    SimConfig(params=MILD, dt=guard)  # boundary is allowed
    with pytest.raises(ValueError, match="stability guard"):
        SimConfig(params=MILD, dt=1.01 * guard)


def test_config_requires_ten_steps():
    with pytest.raises(ValueError, match="at least 10 steps"):
        SimConfig(params=MILD, dt=0.01, t_final=0.05)


@pytest.mark.parametrize("kw", [
    {"burn_in": -0.1},
    {"burn_in": 1.0},
    {"n_realizations": 0},
    {"store_every": 0},
    {"noise_scale": -1.0},
])
def test_config_field_validation(kw):
    with pytest.raises(ValueError):
        SimConfig(params=MILD, **kw)


def test_config_step_count():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=2.0)
    assert cfg.n_steps == 200


def test_burn_in_must_leave_samples():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=0.1, burn_in=0.99)
    with pytest.raises(ValueError, match="post-burn-in"):
        simulate(cfg)


# ---------------------------------------------------------- determinism

def test_seed_determinism_is_bitwise():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=42,
                    n_realizations=2, store_every=10)
    traj_a, summ_a = simulate(cfg)
    traj_b, summ_b = simulate(cfg)
    assert np.array_equal(traj_a.times, traj_b.times)
    assert np.array_equal(traj_a.plant_state, traj_b.plant_state)
    assert np.array_equal(traj_a.estimate, traj_b.estimate)
    assert np.array_equal(traj_a.control, traj_b.control)
    assert np.array_equal(traj_a.running_cost, traj_b.running_cost)
    assert summ_a == summ_b


def test_realizations_split_independently():
    # Sub-seed derivation is (seed, realization-index), so realization 0
    # sees the same stream no matter how many others run after it.
    solo = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=3))[1]
    batch = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=3,
                               n_realizations=3))[1]
    assert batch.realization_costs[0] == solo.realization_costs[0]
    assert batch.realization_err_traces[0] == solo.realization_err_traces[0]
    assert len(batch.realization_costs) == 3


def test_results_do_not_depend_on_chunking():
    # Noise is drawn row-wise per step, so changing the internal segment
    # layout (here via store_every) replays the identical stream; paths
    # agree to roundoff (BLAS reduction order varies with batch shape).
    fine = SimConfig(params=MILD, dt=0.01, t_final=8.0, seed=11, store_every=1)
    coarse = SimConfig(params=MILD, dt=0.01, t_final=8.0, seed=11,
                       store_every=997)
    traj_f, summ_f = simulate(fine)
    traj_c, summ_c = simulate(coarse)
    assert np.allclose(traj_f.plant_state[-1], traj_c.plant_state[-1],
                       atol=1e-12, rtol=1e-12)
    assert np.allclose(traj_f.estimate[-1], traj_c.estimate[-1],
                       atol=1e-12, rtol=1e-12)
    assert summ_f.empirical_lqg_cost == pytest.approx(
        summ_c.empirical_lqg_cost, rel=1e-12)


def test_noise_scale_rescales_exactly():
    # The loop is linear and 2 is a power of two: doubling the noise
    # amplitude doubles every state bitwise and quadruples the cost.
    base = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=5))[1]
    twice = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=5,
                               noise_scale=2.0))[1]
    assert twice.realization_costs[0] == 4.0 * base.realization_costs[0]


# ----------------------------------------------------------- equilibria

def test_zero_noise_zero_state_stays_at_rest():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=2.0, noise_scale=0.0)
    traj, summ = simulate(cfg)
    assert not traj.plant_state.any()
    assert not traj.estimate.any()
    assert not traj.control.any()
    assert not traj.running_cost.any()
    assert summ.empirical_lqg_cost == 0.0
    assert summ.empirical_est_err_cov_trace == 0.0


def test_zero_noise_decay_rate_matches_filter_abscissa():
    # Without noise the estimation error follows e' = (A - LC)e, so its
    # asymptotic decay is at least as fast as the slowest filter mode.
    cl = build_closed_loop(MILD)
    lmat = np.vstack([cl.gain_l.block1.dense(), cl.gain_l.block2.dense()])
    absc = spectral_abscissa(cl.a - lmat @ cl.c_meas)
    assert absc < 0.0

    x0 = np.random.default_rng(7).standard_normal(2 * MILD.n)
    cfg = SimConfig(params=MILD, dt=0.004, t_final=40.0, noise_scale=0.0,
                    store_every=25)
    traj, _ = simulate(cfg, x0=x0)
    err = np.linalg.norm(traj.plant_state - traj.estimate, axis=1)
    window = (traj.times >= 15.0) & (traj.times <= 35.0)
    rate = np.polyfit(traj.times[window], np.log(err[window]), 1)[0]
    assert rate <= 0.95 * absc  # decays at least ~that fast
    # and everything relaxes to the origin
    assert np.linalg.norm(traj.plant_state[-1]) < 1e-3
    assert np.linalg.norm(traj.estimate[-1]) < 1e-3


def test_blow_up_raises_naming_dt():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=1.0)
    with pytest.raises(InstabilityError, match=r"reduce dt=0\.01"):
        simulate(cfg, x0=np.full(2 * MILD.n, 2e12))


# ----------------------------------------------------------- trajectory

def test_trajectory_shapes_and_monotone_cost():
    cfg = SimConfig(params=DECENTRAL, dt=0.01, t_final=6.0, seed=1,
                    store_every=20)
    traj, _ = simulate(cfg)
    m = traj.times.size
    n = DECENTRAL.n
    assert traj.plant_state.shape == (m, 2 * n)
    assert traj.estimate.shape == (m, 2 * n)
    assert traj.control.shape == (m, n)
    assert traj.running_cost.shape == (m,)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(6.0)
    assert np.allclose(np.diff(traj.times[:-1]), 0.2)
    assert np.all(np.diff(traj.running_cost) >= 0.0)
    assert traj.running_cost[0] == 0.0


def test_control_is_gain_times_estimate():
    cfg = SimConfig(params=DECENTRAL, dt=0.01, t_final=3.0, seed=9,
                    store_every=50)
    traj, _ = simulate(cfg)
    cl = build_closed_loop(DECENTRAL)
    kmat = np.hstack([cl.gain_k.block1.dense(), cl.gain_k.block2.dense()])
    assert np.allclose(traj.control, -traj.estimate @ kmat.T, atol=1e-13)


def test_initial_conditions_accept_lists():
    x0 = [1.0] * (2 * MILD.n)
    cfg = SimConfig(params=MILD, dt=0.01, t_final=1.0, noise_scale=0.0)
    traj, _ = simulate(cfg, x0=x0, xh0=x0)
    assert np.array_equal(traj.plant_state[0], np.ones(2 * MILD.n))
    assert np.array_equal(traj.estimate[0], np.ones(2 * MILD.n))


def test_summary_records_backend_and_generator():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=1.0, seed=8)
    _, summ = simulate(cfg)
    assert summ.backend == kernel_backend()
    assert summ.generator == "pcg64"
    assert summ.seed == 8
    d = summ.to_dict()
    assert d["dt"] == 0.01 and d["backend"] == summ.backend


# ----------------------------------------------------------- noise law

def test_correlated_noise_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="pi1"):
        sample_correlated_noise(-0.5, 4, rng)
    with pytest.raises(ValueError, match="n"):
        sample_correlated_noise(1.0, 1, rng)


def test_correlated_noise_shapes():
    rng = np.random.default_rng(1)
    assert sample_correlated_noise(1.0, 6, rng).shape == (6,)
    assert sample_correlated_noise(1.0, 6, rng, size=17).shape == (17, 6)


def test_white_noise_at_pi1_zero():
    rng = np.random.default_rng(0)
    x = sample_correlated_noise(0.0, 4, rng, size=100_000)
    emp = np.cov(x.T, ddof=1)
    se = np.sqrt((np.eye(4) + np.eye(4) ** 2 + 1.0) / x.shape[0])  # C = I
    assert np.all(np.abs(emp - np.eye(4)) <= 3.0 * se)


def test_correlated_noise_matches_dense_inverse():
    # Covariance of the spectrally sampled noise is (I - pi1 Lap)^-1;
    # check empirically against the dense inverse, entrywise at 3 SE.
    cov = noise_covariance(1.0, 4)
    lap = laplacian_circulant(4).dense()
    assert np.allclose((np.eye(4) - lap) @ cov, np.eye(4), atol=1e-12)

    rng = np.random.default_rng(0)
    x = sample_correlated_noise(1.0, 4, rng, size=100_000)
    emp = np.cov(x.T, ddof=1)
    var = np.diag(cov)
    se = np.sqrt((np.outer(var, var) + cov ** 2) / x.shape[0])
    assert np.all(np.abs(emp - cov) <= 3.0 * se)


def test_site_variance_is_spectral_average():
    # Circulant stationarity: every site has variance (1/n) sum 1/(1-pi1 d).
    for pi1, n in [(1.0, 4), (0.3, 8), (2.5, 30)]:
        d = laplacian_spectrum(n).values.real
        expected = np.mean(1.0 / (1.0 - pi1 * d))
        assert np.diag(noise_covariance(pi1, n)) == pytest.approx(expected,
                                                                  rel=1e-12)


# ------------------------------------------------------ cost statistics

def test_cost_integrand_weights_potential_energy():
    # The state-cost weight is [[I - pi1 Lap, 0], [0, pi2 I]]: evaluated on
    # (phi, psi) it is the L2 terms plus pi1 times the discrete potential
    # energy -phi' Lap phi, exactly.
    n, pi1, pi2 = 6, 0.7, 1.3
    lap = laplacian_circulant(n).dense()
    qbar = np.block([[np.eye(n) - pi1 * lap, np.zeros((n, n))],
                     [np.zeros((n, n)), pi2 * np.eye(n)]])
    rng = np.random.default_rng(4)
    for _ in range(10):
        phi, psi = rng.standard_normal(n), rng.standard_normal(n)
        x = np.concatenate([phi, psi])
        direct = phi @ phi - pi1 * (phi @ (lap @ phi)) + pi2 * (psi @ psi)
        assert x @ (qbar @ x) == pytest.approx(direct, rel=1e-12)


def test_estimator_is_unbiased():
    # Time-averaged estimation error vanishes: pooled site average within
    # 3 batch-mean SEs, each component within 4 (max over 8 components).
    cfg = SimConfig(params=DECENTRAL, dt=0.01, t_final=600.0, seed=1)
    traj, _ = simulate(cfg)
    post = traj.times >= 120.0
    err = (traj.plant_state - traj.estimate)[post]
    nb = 12
    cut = err.shape[0] - err.shape[0] % nb
    batches = err[:cut].reshape(nb, -1, err.shape[1]).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / np.sqrt(nb)
    assert np.all(np.abs(batches.mean(axis=0)) <= 4.0 * se)
    pooled = batches.mean(axis=1)
    assert abs(pooled.mean()) <= 3.0 * pooled.std(ddof=1) / np.sqrt(nb)


@pytest.mark.slow
def test_halving_dt_is_within_monte_carlo_error():
    # Weak-order-1 consistency: the cost shift from halving dt is hidden
    # inside the Monte Carlo noise (two-sample z at 3 sigma; the measured
    # shift is ~0.2 of the bound at these settings).
    means, ses = [], []
    for dt in (0.002, 0.001):
        cfg = SimConfig(params=DECENTRAL, dt=dt, t_final=400.0, seed=0,
                        n_realizations=8, store_every=100_000)
        _, summ = simulate(cfg)
        c = np.asarray(summ.realization_costs)
        means.append(c.mean())
        ses.append(c.std(ddof=1) / np.sqrt(c.size))
    assert abs(means[0] - means[1]) <= 3.0 * np.hypot(*ses)


@pytest.mark.slow
def test_monte_carlo_matches_trace_formulas():
    # End-to-end: empirical time-averaged cost and error power against the
    # closed-form traces at the decentralized point.
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=8)
    cfg = SimConfig(params=p, dt=0.01, t_final=2000.0, seed=2026,
                    n_realizations=20, store_every=100_000)
    _, summ = simulate(cfg)
    assert summ.empirical_lqg_cost == pytest.approx(
        summ.predicted_lqg_cost, rel=0.05)
    assert summ.empirical_est_err_cov_trace == pytest.approx(
        summ.predicted_est_err_cov_trace, rel=0.05)
