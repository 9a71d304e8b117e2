"""benchmarks/bench_stepper.py runs, and its workload steps through the
kernel the way perfbench's backend comparison calls it."""

import importlib.util
from pathlib import Path

import numpy as np

from wavelqg import _kernels
from wavelqg.simulator import _KB

_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
         / "bench_stepper.py")


def _bench_stepper():
    spec = importlib.util.spec_from_file_location("bench_stepper", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_steps_through_a_positional_advance_call():
    n, steps = 8, 300
    z0, m, w_cost, w_err, work = _bench_stepper().build_workload(n, steps)
    bins = n // 2 + 1
    assert z0.shape == (4, bins, 2)
    assert m.shape == (bins, 4, 6)
    assert work.shape == _kernels.work_buffer(
        _KB, -(-steps // _KB), (), bins, 5).shape
    # no imaginary noise at k = 0 and at the Nyquist bin
    assert not work[_kernels.NOISE_ROWS][..., [0, bins - 1], :, 1].any()
    for advance in _kernels.available_backends().values():
        z = z0.copy()
        cost, err, mx, _ = advance(z, m, w_cost, w_err, work, 0.005)
        assert np.isfinite(z).all() and not np.array_equal(z, z0)
        assert 0.0 < cost < np.inf and 0.0 < err < np.inf
        assert np.isfinite(mx)


def test_workload_is_zero_outside_the_noise_rows():
    # the kernel's buffer is uninitialized: dirty the memory it may reuse
    n, steps = 8, 300
    shape = _kernels.work_buffer(_KB, -(-steps // _KB), (), n // 2 + 1,
                                 5).shape
    dirty = np.full(shape, np.nan)
    del dirty
    work = _bench_stepper().build_workload(n, steps)[-1]
    rest = np.ones(work.shape[0], dtype=bool)
    rest[_kernels.NOISE_ROWS] = False
    assert np.array_equal(work[rest], np.zeros_like(work[rest]))


def test_main_prints_a_rate(capsys):
    bench = _bench_stepper()
    assert bench.main(["--n", "4", "--steps", "300", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=4, steps=300, 3 frequency bins")
    assert "steps/s" in out
