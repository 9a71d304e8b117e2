"""Monte Carlo loop tests: determinism, the noise law, decay, and costs.

Statistical assertions run on frozen seeds with bounds calibrated to pass
with healthy margin for typical draws (z-tests at 3-4 sigma); nothing here
is tuned to a lucky stream.
"""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

import dense
from wavelqg import _kernels, analysis, simulator, synthesis
from wavelqg.cli import main
from wavelqg.params import NondimParams
from wavelqg.simulator import (
    InstabilityError,
    SimConfig,
    frequency_blocks,
    kernel_backend,
    simulate,
)
from wavelqg.spectral import laplacian_spectrum

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


def test_simulate_rejects_unstable_euler_map():
    # the guard ignores pi1 and pi2; simulate's Euler radius check does not
    p = NondimParams(pi1=0.5, pi2=100.0, pi3=40.0, pi4=4.0, n=8)
    assert 0.0055 < 0.1 / np.sqrt(4.0 + p.pi3 + p.pi4)
    simulate(SimConfig(params=p, dt=0.0049, t_final=0.1))
    cfg = SimConfig(params=p, dt=0.0051)  # the config checks its fields only
    with pytest.raises(ValueError, match=r"stable only for dt < 0\.005\b"):
        simulate(cfg)


def test_simulate_asserts_hurwitz_poles(monkeypatch):
    # Riccati theory makes every G_k Hurwitz; a pole off the open left
    # half plane can only come from a bug in the closed forms.
    poles = analysis.loop_poles

    def unstable(s):
        return -poles(s)  # mirrored into the right half plane

    monkeypatch.setattr(analysis, "loop_poles", unstable)
    cfg = SimConfig(params=MILD)
    with pytest.raises(AssertionError, match="not stable"):
        simulate(cfg)


_PI = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(pi1=_PI, pi2=_PI, pi3=_PI, pi4=_PI, n=st.integers(2, 16))
def test_stability_check_never_asserts_over_the_wide_range(pi1, pi2, pi3,
                                                           pi4, n):
    # the closed forms are Hurwitz everywhere; at half the guard a run
    # completes or rejects its dt (Euler map or blow-up), never asserts
    p = NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)
    dt = 0.05 / np.sqrt(4.0 + pi3 + pi4)
    try:
        simulate(SimConfig(params=p, dt=dt, t_final=12 * dt))
    except ValueError:
        pass


def test_one_run_evaluates_the_design_once(monkeypatch):
    # once: simulate checks, steps and predicts from one design
    calls = []
    design = synthesis.design_spectra

    def counted(*args):
        calls.append(args)
        return design(*args)

    for module in (analysis, synthesis):
        monkeypatch.setattr(module, "design_spectra", counted)
    cfg = SimConfig(params=MILD, t_final=1.0)
    assert len(calls) == 0
    _, summ = simulate(cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    assert summ.predicted_lqg_cost == analysis.report(MILD).j_lqg
    assert summ.predicted_est_err_cov_trace == analysis.kf_cost(MILD)


def test_config_requires_ten_steps():
    with pytest.raises(ValueError, match="at least 10 steps"):
        SimConfig(params=MILD, dt=0.01, t_final=0.05)
    with pytest.raises(ValueError, match=r"t_final must be positive and "
                       r"finite, got -1\.0$"):
        SimConfig(params=MILD, t_final=-1.0)


@pytest.mark.parametrize("kw", [
    {"burn_in": -0.1},
    {"burn_in": 1.0},
    {"n_realizations": 0},
    {"store_every": 0},
    {"noise_scale": -1.0},
    {"t_final": math.inf},
    {"dt": 1e-320, "t_final": 1.0},  # t_final / dt overflows
    {"store_every": 2.5},
    {"store_every": True},
    {"n_realizations": 1.5},
    {"n_realizations": 2.0},
    {"n_realizations": True},
    {"t_final": -1.0},
    {"t_final": math.nan},
    {"noise_scale": math.inf},
])
def test_config_field_validation(kw):
    # the message names the field at fault
    with pytest.raises(ValueError, match="|".join(kw)):
        SimConfig(params=MILD, **kw)


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3", None])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        SimConfig(params=MILD, seed=seed)


def test_config_step_count():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=2.0)
    assert cfg.n_steps == 200


def test_burn_in_must_leave_samples():
    with pytest.raises(ValueError, match="post-burn-in"):
        SimConfig(params=MILD, dt=0.01, t_final=0.1, burn_in=0.99)


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


@pytest.mark.parametrize("n", [4, 8, 30])
def test_realizations_split_independently_of_grouping(n):
    # A run over several kernel blocks with more realizations than one
    # group: the grouping may not change any realization's arithmetic.
    group = simulator._GROUP_ENTRIES // (8 * (n // 2 + 1))
    p = NondimParams(pi1=0.3, pi2=1.0, pi3=3.0, pi4=2.0, n=n)
    kw = dict(params=p, dt=0.01, t_final=6.0, seed=4, store_every=1000)
    many = simulate(SimConfig(n_realizations=group + 2, **kw))[1]
    for r in (1, 3, group + 1):
        fewer = simulate(SimConfig(n_realizations=r, **kw))[1]
        assert many.realization_costs[:r] == fewer.realization_costs
        assert many.realization_err_traces[:r] == fewer.realization_err_traces


def test_results_do_not_depend_on_chunking():
    # The kernel runs over fixed blocks of steps whatever store_every is,
    # so changing it replays the identical arithmetic: states and costs
    # agree bitwise.
    fine = SimConfig(params=MILD, dt=0.01, t_final=8.0, seed=11, store_every=1)
    coarse = SimConfig(params=MILD, dt=0.01, t_final=8.0, seed=11,
                       store_every=997)
    traj_f, summ_f = simulate(fine)
    traj_c, summ_c = simulate(coarse)
    assert np.array_equal(traj_f.plant_state[-1], traj_c.plant_state[-1])
    assert np.array_equal(traj_f.estimate[-1], traj_c.estimate[-1])
    assert traj_f.running_cost[-1] == traj_c.running_cost[-1]
    assert summ_f.empirical_lqg_cost == summ_c.empirical_lqg_cost
    assert (summ_f.empirical_est_err_cov_trace
            == summ_c.empirical_est_err_cov_trace)


def test_noise_scale_rescales_exactly():
    # The loop is linear and 2 is a power of two: doubling the noise
    # amplitude doubles every state bitwise and quadruples the cost.
    base = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=5))[1]
    twice = simulate(SimConfig(params=MILD, dt=0.01, t_final=5.0, seed=5,
                               noise_scale=2.0))[1]
    assert twice.realization_costs[0] == 4.0 * base.realization_costs[0]


@pytest.mark.parametrize("t_final", [7.73, 5.12])
def test_per_step_sums_only_where_they_are_read(monkeypatch, t_final):
    # realization 0's stored steps read its per-step sums, and the burn-in
    # step every realization's; each other block asks for totals alone
    # (at t_final 5.12 the burn-in step starts a block)
    calls = []
    advance = _kernels.advance

    def recording(z, *args, running=0, **kw):
        calls.append((z.shape[0], running))
        return advance(z, *args, running=running, **kw)

    monkeypatch.setattr(_kernels, "advance", recording)
    n = 8
    group = simulator._GROUP_ENTRIES // (8 * (n // 2 + 1))
    p = NondimParams(pi1=0.3, pi2=1.0, pi3=3.0, pi4=2.0, n=n)
    cfg = SimConfig(params=p, dt=0.01, t_final=t_final, seed=21,
                    n_realizations=group + 2, burn_in=0.5)
    simulate(cfg)
    block = simulator._BLOCK
    starts = range(0, cfg.n_steps, block)
    burn = [lo < cfg.burn_steps < lo + block for lo in starts]
    assert sum(burn) == (cfg.burn_steps % block != 0)
    assert calls == [(size, size if b else lead)
                     for size, lead in ((group, 1), (2, 0)) for b in burn]


_BLAS_THREADS_RUN = """
import hashlib
from wavelqg.params import NondimParams
from wavelqg.simulator import SimConfig, simulate
for n, reals in ((8, 8), (128, 2)):
    p = NondimParams(pi1=0.3, pi2=1.0, pi3=3.0, pi4=2.0, n=n)
    traj, summary = simulate(SimConfig(params=p, dt=0.01, t_final=5.5,
                                       seed=8, n_realizations=reals,
                                       store_every=10))
    h = hashlib.sha256(repr(summary).encode())
    for name in ("times", "plant_state", "estimate", "control",
                 "running_cost"):
        h.update(getattr(traj, name).tobytes())
    print(n, reals, h.hexdigest())
"""


def test_outputs_do_not_depend_on_blas_threads():
    # a reduction through BLAS (np.vecdot's ddot, say) may split its sum
    # over threads, so its last bits would follow OPENBLAS_NUM_THREADS;
    # at n = 128 with two realizations the second one's totals come from
    # a 133120-term sum
    src = os.path.dirname(os.path.dirname(simulator.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads}
        outs.append(subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_RUN], capture_output=True,
            text=True, check=True, env=env, timeout=300).stdout)
    assert outs[0].count("\n") == 2
    assert outs[0] == outs[1]


def _cpus_seen(monkeypatch, cpus):
    """Make simulate see ``cpus`` CPUs; returns the list of threads that
    ran its draws, filled as it runs."""
    monkeypatch.setattr(simulator.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    threads = []
    draw = simulator._draw

    def traced(rngs, out):
        threads.append(threading.current_thread())
        draw(rngs, out)

    monkeypatch.setattr(simulator, "_draw", traced)
    return threads


def test_draws_ahead_on_a_helper_thread_without_changing_a_bit(monkeypatch):
    # more realizations than one group, three full blocks and a last one
    # shorter than a chunk: the helper thread (two CPUs) and the inline
    # draws (one CPU) give the same trajectory and summary, bit for bit
    n = 8
    p = NondimParams(pi1=0.3, pi2=1.0, pi3=3.0, pi4=2.0, n=n)
    group = simulator._GROUP_ENTRIES // (8 * (n // 2 + 1))
    cfg = SimConfig(params=p, dt=0.01, t_final=7.73, seed=21,
                    n_realizations=group + 2, store_every=7)
    assert cfg.n_steps % simulator._BLOCK < simulator._KB
    # the batch sizes of the helper's tasks and of the kernel's calls, in
    # the order they are submitted and made
    events = []
    submit = concurrent.futures.ThreadPoolExecutor.submit
    advance = _kernels.advance

    def spied_submit(pool, fn, rngs, out):
        events.append(("submit", len(rngs)))
        return submit(pool, fn, rngs, out)

    def spied_advance(z, *args, **kw):
        events.append(("advance", len(z)))
        return advance(z, *args, **kw)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit",
                        spied_submit)
    monkeypatch.setattr(_kernels, "advance", spied_advance)
    runs = {}
    interval = sys.getswitchinterval()
    for cpus in (1, 2):
        threads = _cpus_seen(monkeypatch, cpus)
        del events[:]
        sys.setswitchinterval(1e-5)  # hand the GIL over often
        try:
            runs[cpus] = simulate(cfg)
        finally:
            sys.setswitchinterval(interval)
        helpers = {t for t in threads if t is not threading.main_thread()}
        assert len(helpers) == cpus - 1
        # every task is one block at n = 8 with 12 realizations, for both
        # groups: four per group
        assert len(threads) == 8
        if cpus == 2:
            # group 1's first task is drawn while group 0 is stepped
            last = max(i for i, e in enumerate(events)
                       if e == ("advance", group))
            assert events.index(("submit", 2)) < last
    (traj_1, summ_1), (traj_2, summ_2) = runs[1], runs[2]
    for name in ("times", "plant_state", "estimate", "control",
                 "running_cost"):
        assert np.array_equal(getattr(traj_1, name), getattr(traj_2, name))
    assert summ_1 == summ_2


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_task_size_changes_no_output(monkeypatch, tmp_path, capsys, blocks):
    # tasks of 1, 2 or 3 blocks, for both groups, over 7 blocks, the last
    # one partial: each generator fills its blocks in order, so the CLI's
    # summary and trajectory are byte for byte those of the default task
    # size
    n = 8
    reals = simulator._GROUP_ENTRIES // (8 * (n // 2 + 1)) + 2
    argv = ["simulate", "--pi1", "0.3", "--pi3", "3", "--pi4", "2", "--n",
            str(n), "--t-final", "15.73", "--realizations", str(reals),
            "--seed", "13", "--store-every", "9"]
    assert 6 * simulator._BLOCK < 1573 < 7 * simulator._BLOCK
    outputs = {}
    for size in ("default", blocks):
        threads = _cpus_seen(monkeypatch, 2)
        if size != "default":
            monkeypatch.setattr(simulator, "_TASK_NORMALS",
                                size * (reals - 2) * 2 * n * simulator._BLOCK)
        before = threading.active_count()
        files = tmp_path / f"s{size}.json", tmp_path / f"t{size}.csv"
        assert main([*argv, "--summary-json", str(files[0]),
                     "--traj-csv", str(files[1])]) == 0
        assert threading.active_count() == before
        outputs[size] = [f.read_bytes() for f in files]
    # each group draws its 7 blocks in tasks of the same size
    assert len(threads) == 2 * -(-7 // blocks)
    assert outputs[blocks] == outputs["default"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs affinity calls and two CPUs")
def test_helper_runs_on_a_cpu_of_its_own(monkeypatch):
    # the helper pins itself to the highest CPU of the process mask other
    # than the one the main thread was on when the run started; the main
    # thread's mask is the same before, during and after the run
    mask = os.sched_getaffinity(0)
    seen, helper_masks, main_masks = [], [], []
    this_cpu, draw, advance = (simulator._this_cpu, simulator._draw,
                               _kernels.advance)

    def traced_cpu():
        seen.append(this_cpu())
        return seen[-1]

    def traced_draw(rngs, out):
        helper_masks.append(os.sched_getaffinity(0))
        draw(rngs, out)

    def traced_advance(*args, **kw):
        main_masks.append(os.sched_getaffinity(0))
        return advance(*args, **kw)

    monkeypatch.setattr(simulator, "_this_cpu", traced_cpu)
    monkeypatch.setattr(simulator, "_draw", traced_draw)
    monkeypatch.setattr(_kernels, "advance", traced_advance)
    simulate(SimConfig(params=MILD, dt=0.01, t_final=30.0, seed=4))
    assert len(seen) == 1 and seen[0] in mask
    own = {max(mask - {seen[0]})}
    assert helper_masks and all(m == own for m in helper_masks)
    assert main_masks and all(m == mask for m in main_masks)
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("refusal", ["oserror", "missing"])
def test_a_refused_pin_changes_nothing(monkeypatch, refusal):
    # the pin is best effort: refused, or without the call, the helper runs
    # unpinned and the run is bitwise the inline one
    n = 8
    p = NondimParams(pi1=0.3, pi2=1.0, pi3=3.0, pi4=2.0, n=n)
    cfg = SimConfig(params=p, dt=0.01, t_final=7.73, seed=21,
                    n_realizations=3, store_every=7)
    _cpus_seen(monkeypatch, 1)
    traj_1, summ_1 = simulate(cfg)

    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    if refusal == "oserror":
        monkeypatch.setattr(simulator.os, "sched_setaffinity", refuse)
    else:
        monkeypatch.delattr(simulator.os, "sched_setaffinity", raising=False)
    threads = _cpus_seen(monkeypatch, 2)
    before = threading.active_count()
    traj_2, summ_2 = simulate(cfg)
    assert threading.active_count() == before
    assert any(t is not threading.main_thread() for t in threads)
    for name in ("times", "plant_state", "estimate", "control",
                 "running_cost"):
        assert np.array_equal(getattr(traj_1, name), getattr(traj_2, name))
    assert summ_1 == summ_2


def test_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
    assert simulator._cpus() == 1
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    assert simulator._cpus() == 3


# ------------------------------------------- per-frequency vs dense loop

@pytest.mark.parametrize("n", [2, 3, 7, 8])
def test_frequency_blocks_match_dense_loop_for_any_gains(n):
    # Arbitrary positive symmetric gain spectra: one Euler step, the noise
    # injection and both integrands agree with the dense 4n x 4n loop.
    rng = np.random.default_rng(n)
    p = NondimParams(pi1=0.6, pi2=1.7, pi3=2.5, pi4=1.5, n=n)
    raw = rng.uniform(0.5, 2.0, (4, n))
    blocks = (raw + np.roll(raw[:, ::-1], 1, axis=1)) / 2.0  # K1 K2 L1 L2
    dt, scale = 0.01, 1.3
    k0, kc, lc, l0 = blocks[:, :n // 2 + 1]
    s = replace(synthesis.ring_design(p), k0=k0, kc=kc, l0=l0, lc=lc)
    a, b, w = frequency_blocks(s, dt, noise_scale=scale)

    kmat, lmat = dense.gains(blocks)
    gen = dense.closed_loop(p, blocks)

    def to_bins(x):  # (r, n) sites -> (bins, r, 2)
        f = np.fft.rfft(x, norm="ortho")
        return np.stack([f.real, f.imag], axis=-1).transpose(1, 0, 2)

    def to_sites(zb):  # inverse of to_bins
        f = zb[..., 0] + 1j * zb[..., 1]
        return np.fft.irfft(f.T, n=n, norm="ortho")

    x = rng.standard_normal(4 * n)
    white = rng.standard_normal((2, n))
    # b takes unit normals: the orthonormal rfft of white noise over the
    # bins' 1/sqrt(multiplicity)
    unit = to_bins(white) * np.sqrt(s.mult)[:, None, None]
    step = x + dt * gen @ x
    step[n:2 * n] += np.sqrt(dt) * scale * white[0]
    step[2 * n:] += np.sqrt(dt) * scale * (
        lmat @ (dense.noise_covariance_sqrt(p.pi1, n) @ white[1]))
    zb = a @ to_bins(x.reshape(4, n)) + b @ unit
    assert np.allclose(to_sites(zb).ravel(), step, rtol=0, atol=1e-12)

    qbar = dense.state_weight(p)
    cost = (x[:2 * n] @ qbar @ x[:2 * n]
            + x[2 * n:] @ kmat.T @ kmat @ x[2 * n:] / p.pi3 ** 2)
    err = np.sum((x[:2 * n] - x[2 * n:]) ** 2)
    f_cost, f_err = (wi @ to_bins(x.reshape(4, n)) for wi in w)
    assert np.sum(f_cost ** 2) == pytest.approx(cost, rel=1e-12)
    assert np.sum(f_err ** 2) == pytest.approx(err, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 30, 64])
@pytest.mark.parametrize("pi", [(0.0, 1.0, 1.0, 1.0), (0.5, 1.0, 4.0, 4.0),
                                (0.3, 2.0, 1.5, 0.7), (0.8, 1.3, 2.1, 1.0)],
                         ids=["pi1-zero", "decentral", "generic-a",
                              "generic-b"])
def test_stepped_blocks_reproduce_the_closed_form_costs(pi, n):
    # An independent route to the trace formulas: at dt = 1 the blocks
    # simulate steps give each bin's generator G = a - I and noise input b.
    # The stationary covariance solves G S + S G.T + b b.T = 0 per bin and
    # driven column, and the Parseval-weighted w turn it into the cost and
    # error power; a bin has as many driven columns (its real and
    # imaginary parts, or the real part alone) as its multiplicity.
    # The points stay where scipy's solver is accurate: at harsher ones,
    # such as pi = (3, 0.5, 0.02, 50), it alone drifts to ~1e-12.
    p = NondimParams(*pi, n=n)
    s = synthesis.ring_design(p)
    a, b, w = frequency_blocks(s, dt=1.0)
    cov = np.stack([sla.solve_continuous_lyapunov(g, -bk @ bk.T)
                    for g, bk in zip(a - np.eye(4), b)])
    got = [np.einsum("b,bjk,bjl,blk->", s.mult, wi, wi, cov) for wi in w]
    want = [analysis.report(p).j_lqg, analysis.kf_cost(p)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 3, 7, 8])
@pytest.mark.parametrize("pi1", [0.0, 0.4])
def test_simulation_matches_dense_reference(n, pi1):
    # Odd n, n = 2 and even n with its Nyquist bin, with white and with
    # correlated measurement noise; the run spans three kernel blocks.
    p = NondimParams(pi1=pi1, pi2=1.3, pi3=3.0, pi4=2.0, n=n)
    cfg = SimConfig(params=p, dt=0.01, t_final=6.0, seed=5,
                    n_realizations=2, store_every=37)
    traj, summ = simulate(cfg)
    costs, errs, stored = dense.simulation(cfg)
    assert np.allclose(summ.realization_costs, costs, rtol=1e-12, atol=0)
    assert np.allclose(summ.realization_err_traces, errs, rtol=1e-12, atol=0)
    states = np.hstack([traj.plant_state, traj.estimate])
    scale = np.abs(stored[:, :-1]).max()
    assert np.allclose(states, stored[:, :-1], rtol=0, atol=1e-12 * scale)
    assert np.allclose(traj.running_cost, stored[:, -1], rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("n", [7, 8])
def test_trajectory_starts_at_exact_zeros(n):
    # every run starts from rest, written as 0.0, never as irfft's -0.0
    p = NondimParams(pi1=0.3, pi2=2.0, pi3=1.5, pi4=0.7, n=n)
    traj, _ = simulate(SimConfig(params=p, dt=0.01, t_final=0.5))
    first = np.concatenate([traj.plant_state[0], traj.estimate[0],
                            traj.control[0]])
    assert not first.any() and not np.signbit(first).any()


def test_zero_noise_decay_rate_matches_filter_abscissa():
    # Without noise the estimation error follows e' = (A - LC)e, so its
    # asymptotic decay is at least as fast as the slowest filter mode.
    # simulate starts from rest, so the kernel steps the loop here, from a
    # random plant state and a zero estimate with zero noise rows.
    a, _, c = dense.plant(MILD)
    _, lmat = dense.gains(synthesis.design_spectra(
        MILD.pi1, MILD.pi2, MILD.pi3, MILD.pi4,
        laplacian_spectrum(MILD.n), 1.0).blocks)
    absc = dense.spectral_abscissa(a - lmat @ c)
    assert absc < 0.0

    s = synthesis.ring_design(MILD)
    dt, kb, steps, every = 0.004, simulator._KB, 250, 25
    m, bm, (w_cost, w_err) = frequency_blocks(s, dt)
    ab = np.concatenate([m, bm], axis=-1)
    plan = _kernels.make_plan(ab, w_cost, w_err, kb)
    bins = s.d.size
    work = _kernels.work_buffer(kb, -(-steps // kb), (1,), bins,
                                plan.w.shape[-2])
    work[...] = 0.0  # zero noise rows
    z = np.zeros((1, 4, bins, 2))
    x0 = np.fft.rfft(np.random.default_rng(7).standard_normal((2, MILD.n)),
                     norm="ortho")
    z[0, :2, :, 0], z[0, :2, :, 1] = x0.real, x0.imag
    path = []
    for _ in range(40):  # t = 0 .. 40 in calls of 250 steps, every 0.1
        _kernels.advance(z, ab, w_cost, w_err, work, dt, steps, plan=plan)
        states = np.transpose(work[0, _kernels.STATE_ROWS], (3, 1, 0, 2, 4))
        path.append(states.reshape(-1, 4, bins, 2)[:steps:every])
    path = np.concatenate(path + [z])
    times = np.arange(len(path)) * every * dt

    def norm(v):  # site-space norm by Parseval: bins weighted by mult
        return np.sqrt(np.einsum("tibk,b->t", v * v, s.mult))

    err = norm(path[:, :2] - path[:, 2:])
    window = (times >= 15.0) & (times <= 35.0)
    rate = np.polyfit(times[window], np.log(err[window]), 1)[0]
    assert rate <= 0.95 * absc  # decays at least ~that fast
    # and everything relaxes to the origin
    assert norm(path[-1:, :2])[0] < 1e-3
    assert norm(path[-1:, 2:])[0] < 1e-3


def test_blow_up_raises_naming_dt(monkeypatch):
    monkeypatch.setattr(simulator, "_BLOWUP", 1e-6)
    cfg = SimConfig(params=MILD, dt=0.01, t_final=1.0)
    with pytest.raises(InstabilityError, match=r"reduce dt=0\.01"):
        simulate(cfg)


def test_no_helper_thread_outlives_a_run(monkeypatch):
    threads = _cpus_seen(monkeypatch, 2)
    before = threading.active_count()
    simulate(SimConfig(params=MILD, dt=0.01, t_final=10.0, seed=2))
    assert threading.active_count() == before
    # a run that blows up in its first block, with the next task's draws
    # under way on the helper: 36 blocks, in tasks of 32 and 4 at n = 4
    cfg = SimConfig(params=MILD, dt=0.01, t_final=90.0)
    del threads[:]
    monkeypatch.setattr(simulator, "_BLOWUP", 1e-6)
    with pytest.raises(InstabilityError, match=r"reduce dt=0\.01"):
        simulate(cfg)
    assert len(threads) == 2 and threads[1] is not threading.main_thread()
    assert threading.active_count() == before
    # a run refused by the Euler check, with its first draw under way
    p = NondimParams(pi1=0.5, pi2=100.0, pi3=40.0, pi4=4.0, n=8)
    del threads[:]
    with pytest.raises(ValueError, match="stable only for dt"):
        simulate(SimConfig(params=p, dt=0.0051))
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
    assert threading.active_count() == before


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
    kmat, _ = dense.gains(synthesis.design_spectra(
        DECENTRAL.pi1, DECENTRAL.pi2, DECENTRAL.pi3, DECENTRAL.pi4,
        laplacian_spectrum(DECENTRAL.n), 1.0).blocks)
    assert np.allclose(traj.control, -traj.estimate @ kmat.T, atol=1e-13)


def test_summary_records_backend_and_generator():
    cfg = SimConfig(params=MILD, dt=0.01, t_final=1.0, seed=8)
    _, summ = simulate(cfg)
    assert summ.backend == kernel_backend()
    assert summ.generator == "pcg64"
    assert summ.seed == 8
    d = asdict(summ)
    assert d["dt"] == 0.01 and d["backend"] == summ.backend


# ----------------------------------------------------------- noise law

def test_site_variance_is_spectral_average():
    # The dense reference is (I - pi1 Lap)^-1; by circulant stationarity
    # every site has variance (1/n) sum 1/(1-pi1 d).
    lap = dense.laplacian(4)
    assert np.allclose((np.eye(4) - lap) @ dense.noise_covariance(1.0, 4),
                       np.eye(4), atol=1e-12)
    for pi1, n in [(1.0, 4), (0.3, 8), (2.5, 30)]:
        d = laplacian_spectrum(n)
        expected = np.mean(1.0 / (1.0 - pi1 * d))
        assert np.diag(dense.noise_covariance(pi1, n)) == pytest.approx(
            expected, rel=1e-12)


# ------------------------------------------------------ cost statistics

def test_cost_integrand_weights_potential_energy():
    # The state-cost weight is [[I - pi1 Lap, 0], [0, pi2 I]]: evaluated on
    # (phi, psi) it is the L2 terms plus pi1 times the discrete potential
    # energy -phi' Lap phi, exactly.
    n, pi1, pi2 = 6, 0.7, 1.3
    lap = dense.laplacian(n)
    qbar = dense.state_weight(NondimParams(pi1=pi1, pi2=pi2, pi3=1.0,
                                           pi4=1.0, n=n))
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
