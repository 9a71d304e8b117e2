"""Simulation runs at the edges of the kernel's blocks and of the stored
trajectory's size cap."""

import re
import tracemalloc

import numpy as np
import pytest

import dense
from wavelqg import simulator
from wavelqg.cli import main
from wavelqg.params import NondimParams
from wavelqg.simulator import SimConfig, simulate

MILD = NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=4)


@pytest.mark.parametrize("tail", [1, 15, 16, 17])
def test_short_last_block_matches_dense_reference(tail):
    # The last kernel call covers `tail` steps: less than one chunk, one
    # chunk exactly, or one step into a second.  Every stored state,
    # those of the short chunk included, must match the dense loop.
    p = NondimParams(pi1=0.4, pi2=1.3, pi3=3.0, pi4=2.0, n=7)
    cfg = SimConfig(params=p, dt=0.01, t_final=(simulator._BLOCK + tail) / 100,
                    seed=5, n_realizations=2)
    assert cfg.n_steps % simulator._BLOCK == tail
    traj, summ = simulate(cfg)
    costs, errs, stored = dense.simulation(cfg)
    assert np.allclose(summ.realization_costs, costs, rtol=1e-12, atol=0)
    assert np.allclose(summ.realization_err_traces, errs, rtol=1e-12, atol=0)
    states = np.hstack([traj.plant_state, traj.estimate])
    scale = np.abs(stored[:, :-1]).max()
    assert np.allclose(states, stored[:, :-1], rtol=0, atol=1e-12 * scale)
    assert np.allclose(traj.running_cost, stored[:, -1], rtol=1e-12, atol=0)


def test_simulate_with_a_last_block_shorter_than_a_chunk(capsys):
    # 6660 steps: the last kernel call covers 4 of them
    argv = ["simulate", "--pi1", "0.5", "--pi3", "4", "--pi4", "4",
            "--n", "7", "--dt", "0.005", "--t-final", "33.3",
            "--burn-in", "0.37"]
    assert main(argv) == 0
    assert "empirical lqg cost" in capsys.readouterr().out


def test_stored_trajectory_cap_is_checked_before_allocating():
    # 1e11 steps stored one by one: the error must come from the config,
    # before any array the size of the trajectory exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="stored trajectory") as exc:
            SimConfig(params=MILD, t_final=1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    message = str(exc.value)
    assert "100000000001 samples of 22 values" in message
    fits = int(re.search(r"store_every >= (\d+)", message).group(1))
    SimConfig(params=MILD, t_final=1e9, store_every=fits)
    with pytest.raises(ValueError, match=f"store_every >= {fits}"):
        SimConfig(params=MILD, t_final=1e9, store_every=fits - 1)


def test_oversized_trajectory_is_a_usage_error(capsys):
    argv = ["simulate", "--pi1", "0", "--n", "4", "--t-final", "1e9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "store_every >=" in err
