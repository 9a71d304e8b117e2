"""Euler-Maruyama Monte Carlo validation of the closed-loop design.

The loop simulated here is the optimal output-feedback loop on the
ring, started from rest: plant driven by unit-intensity force
disturbance, estimator driven by the measured displacements corrupted by
spatially correlated noise with covariance (I - pi1 Lap)^-1, control
u = -K (estimate).  A run is its :class:`SimConfig`: the costs it
checks are time averages after burn-in, which no initial state changes.
:func:`frequency_blocks` is the one implementation of that noise law: it
scales each bin's white measurement noise by 1/sqrt(1 - pi1 d(k)), the
square root of the law's per-frequency variance.  The empirical
time-averaged quadratic cost and estimation-error power then have
closed-form predictions, which :func:`simulate` takes with
``analysis.costs`` from the design it steps; that is what makes the
simulator a useful end-to-end check.

Per-frequency stepping
----------------------
Every matrix of the loop is circulant, so the orthonormal real DFT
(``numpy.fft.rfft`` with ``norm="ortho"``) splits it into independent real
4x4 blocks, one per bin k = 0 .. n//2, in (plant, estimate) coordinates.
A bin's real and imaginary parts are two columns driven by the same
block; :func:`frequency_blocks` builds the blocks once per run from the
design record alone, point included, so the simulator never forms a
4n x 4n matrix.  By Parseval, a site-space quadratic form is the sum
over bins of the per-bin forms, each weighted by its multiplicity, which
the design carries (1 at k = 0 and at the Nyquist bin k = n/2 of an
even ring, 2 elsewhere).  Stored samples go back to sites by ``irfft``.

Determinism
-----------
Realization i draws from numpy's PCG64 seeded with
``SeedSequence(seed, spawn_key=(i,))`` -- a documented, order-independent
splitting rule.  It draws exactly 2n standard normals per step, block by
block of ``_BLOCK`` = 256 steps: per noise row and chunk slot, the inner
bins' (chunk, re/im) normals, then the real parts at k = 0 and at the
Nyquist bin, one per chunk (:func:`_split`).  The main thread copies them
into the kernel's noise rows, whose imaginary parts at k = 0 and at the
Nyquist bin stay zero.  The orthonormal rfft of 2n white site normals per
step has independent N(0, 1/2) real and imaginary parts inside and a
real N(0, 1) at those two bins, so after :func:`frequency_blocks`' b,
which carries each bin's 1/sqrt(multiplicity), the noise has exactly its
law.  A task fills each realization's blocks of one group in one
contiguous ``standard_normal`` call.  Every task of the run has as many
blocks as make about ``_TASK_NORMALS`` = 2**16 normals over the first
group (two at n = 8 with 8 realizations, one at n = 128 with one), and
none is drawn past the last block (:func:`_drawn`).  When the process
may run on a second CPU, a helper thread draws the next task, of the
same group or of the next, into the other of two raw slabs
(``standard_normal`` releases the GIL as it fills) while the kernel
steps the current task's blocks, so one task is always in flight; the
run's first task is drawn while the design is evaluated and checked.
The helper pins itself to the highest-numbered CPU the process may use
other than the one the main thread is on when the run starts
(:func:`_pin_helper`), because the scheduler otherwise wakes it on the
stepping thread's CPU and the two time-share it; the pin is best effort,
and the main thread stays unpinned.  With one CPU each task is drawn
when it is read, after the task before it is stepped, into one slab that
both slots share.  Each generator fills its blocks in the same order
whatever the task size, the thread and the CPU it runs on, so no output
depends on them.  The kernel is called once per block with maps planned
once per run, whatever ``store_every`` and the burn-in are, so states do
not depend on them; realization 0's stored steps are
located in the blocks once per run, too.  It scans the block in chunks
of ``_KB`` = sqrt(``_BLOCK``) = 16 steps (see :mod:`wavelqg._kernels`),
so states and costs agree with step-by-step Euler to roundoff, not
bitwise.  It steps with the nonzero rows of the weight factors only, 3
for the cost and 2 for the error.  Each call returns every realization's
cost and error totals over its block.  Per-step running sums are taken
only where they are read: for realization 0 in every block (its stored
running cost) and, in the one block that holds the burn-in step, for
every realization.  A realization's block totals are the last of its
running sums, bit for bit, when it has them, and otherwise BLAS-free
sums over each of its factor rows, then over the rows, which round
differently by a few ulps; so realization 0's costs and the trajectory
do not depend on the choice, and no output depends on the BLAS thread
count.  Realizations are stepped together in groups of ``max(1, 512 //
(8 (n//2 + 1)))``, yet every product and every sum is taken per
realization, so realization i's results are bitwise the same whatever
the number of realizations R and however they are grouped; the loop is
linear, so scaling the noise by a power of two scales them exactly.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, analysis
from .params import NondimParams
from .synthesis import DesignSpectra, ring_design

__all__ = [
    "InstabilityError",
    "SimConfig",
    "Trajectory",
    "SimSummary",
    "frequency_blocks",
    "simulate",
    "kernel_backend",
]

_BLOWUP = 1e12
_BLOCK = 256          # steps per noise block and per kernel call
_KB = math.isqrt(_BLOCK)  # steps per chunk of the kernel's scan
_GROUP_ENTRIES = 512  # state entries (realizations x bins x 8) per group
_TASK_NORMALS = 2 ** 16  # normals a helper task draws over its group
_MAX_STORED = 2 ** 27  # float64 values a stored trajectory may hold (1 GiB)


class InstabilityError(ValueError):
    """The discretized loop blew up; the step size ``dt`` is too coarse."""


def kernel_backend() -> str:
    """Name of the stepping kernel, as recorded in every summary ("python")."""
    return _kernels.BACKEND


def frequency_blocks(s: DesignSpectra, dt: float, noise_scale: float = 1.0
                     ) -> tuple[np.ndarray, np.ndarray,
                                tuple[np.ndarray, np.ndarray]]:
    """The loop's per-bin Euler-Maruyama blocks for the gain spectra of
    the one-point design ``s`` (other gains by ``dataclasses.replace``), at
    its point ``s.pi1`` .. ``s.pi4`` and its bins ``s.d``.

    ``s.k0``, ``s.kc`` are the regulator spectra (u = -(K1 phi + K2 psi))
    and ``s.l0``, ``s.lc`` the filter's (L2 and L1), over m bins, in
    :func:`simulate` the n//2 + 1 rfft bins.  Returns

    a : (m, 4, 4) Euler maps I + dt G_k, with G_k bin k's loop generator
        on (x, xhat): the plant [[0, 1], [d, 0]] under the control
        -[k0, kc] xhat, and the estimate driven by the innovation
        pi4 [lc, l0] (phi - phi hat);
    b : (m, 4, 2) injection of a bin's (force, measurement) standard
        normals: sqrt(dt) noise_scale times the force column [0, 1, 0, 0]
        and the filtered measurement column [0, 0, lc, l0] / sqrt(1 - pi1
        d), both divided by the square root of the bin's multiplicity
        ``s.mult``.  The orthonormal rfft of white site noise has variance
        1/2 in each part of an inner bin and 1 in the real part at k = 0
        and at the Nyquist bin, so unit normals through b, with zero
        imaginary parts at those two bins, have exactly its law;
    w : (w_cost, w_err), the cost and error weights as square-root
        factors, nonzero rows only: a bin's running cost is |w_cost z|**2
        and its squared estimation error |w_err z|**2, with w_cost (m, 3,
        4) = diag(sqrt(1 - pi1 d), sqrt(pi2)) on x above the row [k0, kc]
        / pi3 on xhat, and w_err (m, 2, 4) = [I, -I].  Both carry the
        square root of the bin's Parseval weight, its multiplicity.
    """
    d, k0, kc, l0, lc, pi4 = s.d, s.k0, s.kc, s.l0, s.lc, s.pi4
    m = d.size
    g = np.zeros((m, 4, 4))  # the generators G_k on (x, xhat)
    g[:, 0, 1] = 1.0
    g[:, 1, 0] = d
    g[:, 1, 2] = -k0
    g[:, 1, 3] = -kc
    g[:, 2, 0] = pi4 * lc
    g[:, 2, 2] = -pi4 * lc
    g[:, 2, 3] = 1.0
    g[:, 3, 0] = pi4 * l0
    g[:, 3, 2] = d - pi4 * l0 - k0
    g[:, 3, 3] = -kc
    a = np.eye(4) + dt * g
    amp = math.sqrt(dt) * noise_scale
    filt = amp / np.sqrt(1.0 - s.pi1 * d)
    b = np.zeros((m, 4, 2))
    b[:, 1, 0] = amp
    b[:, 2, 1] = filt * lc
    b[:, 3, 1] = filt * l0
    root = np.sqrt(s.mult)[:, None, None]
    w_cost = np.zeros((m, 3, 4))
    w_cost[:, 0, 0] = np.sqrt(1.0 - s.pi1 * d)
    w_cost[:, 1, 1] = np.sqrt(s.pi2)
    w_cost[:, 2, 2] = k0 / s.pi3
    w_cost[:, 2, 3] = kc / s.pi3
    w_err = np.broadcast_to(np.hstack([np.eye(2), -np.eye(2)]), (m, 2, 4))
    return a, b / root, (w_cost * root, w_err * root)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description.

    Construction checks the fields alone.  ``dt`` must pass the
    explicit-integration guard dt <= 0.1 / sqrt(4 + pi3 + pi4), which
    bounds the step by the closed-loop frequencies (they grow with the
    gains); ``t_final`` must be positive and finite and cover a finite
    number of steps, at least 10, and the burn-in must leave at least one
    of them.  The stored
    trajectory, every ``store_every``-th step, may hold at most
    ``_MAX_STORED`` values, so a run too long for memory fails here, not
    in :func:`simulate`.  ``n_realizations`` and ``store_every`` must be
    positive integers and ``seed`` a nonnegative one; bools are refused.
    ``noise_scale`` must be nonnegative and finite.
    The guard ignores pi1 and pi2, so :func:`simulate` also checks the
    Euler maps it is about to step.
    """

    params: NondimParams
    dt: float = 0.01
    t_final: float = 200.0
    seed: int = 0
    burn_in: float = 0.2
    n_realizations: int = 1
    noise_scale: float = 1.0
    store_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        guard = 0.1 / math.sqrt(4.0 + self.params.pi3 + self.params.pi4)
        if self.dt > guard:
            raise ValueError(
                f"dt={self.dt!r} exceeds the stability guard {guard:.6g} "
                "= 0.1/sqrt(4 + pi3 + pi4) for these parameters")
        if not (0.0 < self.t_final < math.inf):
            raise ValueError(
                f"t_final must be positive and finite, got {self.t_final!r}")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final={self.t_final!r} / dt={self.dt!r} is "
                             "not a finite number of steps")
        if self.n_steps < 10:
            raise ValueError("t_final must cover at least 10 steps")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError(f"burn_in must lie in [0, 1), got {self.burn_in!r}")
        if self.burn_steps >= self.n_steps:
            raise ValueError("burn_in leaves no post-burn-in samples")
        for name, least in (("n_realizations", 1), ("store_every", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool) and value >= least):
                kind = "positive" if least else "nonnegative"
                raise ValueError(
                    f"{name} must be a {kind} integer, got {value!r}")
        # stored samples: every store_every-th step, the last, and t = 0;
        # each holds a time, 2n plant and 2n estimate states, n controls
        # and a running cost
        stored = -(-self.n_steps // self.store_every) + 1
        per_row = 5 * self.params.n + 2
        if stored * per_row > _MAX_STORED:
            fits = _MAX_STORED // per_row - 1  # stored intervals that fit
            hint = (f"use store_every >= {-(-self.n_steps // fits)}"
                    if fits > 0 else "no store_every fits at this n")
            raise ValueError(
                f"the stored trajectory would hold {stored} samples of "
                f"{per_row} values ({stored * per_row * 8 / 1e9:.3g} GB), "
                f"over the cap of {_MAX_STORED} values; {hint}")
        if not (0.0 <= self.noise_scale < math.inf):
            raise ValueError("noise_scale must be nonnegative and finite, "
                             f"got {self.noise_scale!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in * self.n_steps))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored path of the first realization (subsampled by store_every)."""

    times: np.ndarray        # (m,)
    plant_state: np.ndarray  # (m, 2n)
    estimate: np.ndarray     # (m, 2n)
    control: np.ndarray      # (m, n)
    running_cost: np.ndarray  # (m,) cumulative cost integral from t = 0


@dataclass(frozen=True)
class SimSummary:
    """Aggregated Monte Carlo outcome next to the closed-form predictions."""

    empirical_lqg_cost: float
    empirical_est_err_cov_trace: float
    predicted_lqg_cost: float
    predicted_est_err_cov_trace: float
    realization_costs: list[float] = field(default_factory=list)
    realization_err_traces: list[float] = field(default_factory=list)
    seed: int = 0
    dt: float = 0.0
    t_final: float = 0.0
    burn_in: float = 0.0
    n_realizations: int = 0
    noise_scale: float = 1.0
    generator: str = "pcg64"
    backend: str = ""


def _to_sites(bins: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal rfft bins (..., n//2 + 1, 2), real and imaginary parts
    last -> site rows (..., n)."""
    return np.fft.irfft(bins[..., 0] + 1j * bins[..., 1], n=n, norm="ortho")


def _cpus() -> int:
    """CPUs this process may run on.

    With two or more, :func:`simulate` draws the noise on a helper thread
    that :func:`_pin_helper` pins, best effort, to the highest-numbered of
    them other than the main thread's, since the scheduler otherwise wakes
    it on the stepping thread's CPU; where or whether it is pinned changes
    no output.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _this_cpu() -> int | None:
    """The CPU the calling thread runs on, from Linux's
    ``/proc/thread-self/stat``; None where that does not say."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _pin_helper(away: int | None) -> None:
    """Pin the calling thread, best effort, to the highest-numbered CPU
    the process may use other than ``away`` (the main thread's), or to the
    highest one when ``away`` is None or the only one.

    Left alone, the scheduler wakes the helper on the stepping thread's
    CPU, so the two threads time-share one CPU while another idles; so
    does a fixed choice whenever the main thread happens to run there.
    On Linux the affinity calls act on the calling thread only, so the
    main thread stays unpinned.  Where the platform has no affinity calls,
    or refuses the mask (EINVAL when the CPU is not in the cpuset), the
    helper runs unpinned; this never raises, since a raising initializer
    would break the pool.
    """
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(mask - {away} or mask)})
    except (AttributeError, OSError):
        pass


def _draw(rngs, out) -> None:
    """Fill each ``out[i]`` (contiguous) with standard normals from
    ``rngs[i]``; numpy only, so it may run on a helper thread."""
    for rng, slab in zip(rngs, out):
        rng.standard_normal(out=slab)


def _split(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of draws (..., n chunks), chunk count inferred, as the inner
    bins' (..., (n - 1)//2, chunks, 2) normals and the real-only bins'
    (..., n % 2 or 2, chunks): the order :func:`_drawn` draws them in."""
    inner = (n - 1) // 2
    chunks = draws.shape[-1] // n
    lead = draws.shape[:-1]
    cut = 2 * inner * chunks
    return (draws[..., :cut].reshape(lead + (inner, chunks, 2)),
            draws[..., cut:].reshape(lead + (-1, chunks)))


def _bin_parts(n: int) -> tuple[slice, slice]:
    """The inner bins, and the bins with a real part only (k = 0, and the
    Nyquist bin of an even ring), of the n//2 + 1 rfft bins."""
    bins = n // 2 + 1
    if n % 2:
        return slice(1, bins), slice(0, 1)
    return slice(1, bins - 1), slice(0, bins, bins - 1)


def _drawn(pool, seed, groups, n, n_blocks):
    """Each block's normals, group by group of ``groups``, as the views
    :func:`_split` makes of its (realization, noise row, slot) draws; the
    first ``next`` only submits the run's first task.

    Every task draws as many blocks as make about ``_TASK_NORMALS``
    normals over the first group, one contiguous fill per realization.
    With a ``pool`` the next task, of this group or the next, is submitted
    as each is read, into the other of two slabs; with None (one CPU) a
    task is drawn when it is read, into the one slab: pinned to one CPU
    (2-core x86-64), the helper path took 1.04-1.08x the inline time at
    n = 8, R = 8 and 1.00-1.07x at n = 128, R = 1 (won 13 and 28 of 100).
    """
    per_task = max(1, _TASK_NORMALS // (len(groups[0]) * 2 * n * _BLOCK))
    shape = (len(groups[0]), per_task, 2, _KB, n * (_BLOCK // _KB))
    slab = np.empty(shape)
    slabs = slab, (slab if pool is None else np.empty(shape))

    def tasks():  # each next() submits the run's next task
        count = 0
        for reals in groups:
            rngs = [np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(seed, spawn_key=(real,))))
                for real in reals]
            for lo in range(0, n_blocks, per_task):
                out = slabs[count % 2][:len(rngs),
                                       :min(per_task, n_blocks - lo)]
                count += 1
                if pool is None:
                    yield out, functools.partial(_draw, rngs, out)
                else:
                    yield out, pool.submit(_draw, rngs, out).result

    todo = tasks()
    task = next(todo)
    yield  # the first task is under way
    while task:
        out, drawn = task
        drawn()
        task = next(todo, None)  # in flight while this task is stepped
        inner, real = _split(out, n)
        for j in range(out.shape[1]):
            yield inner[:, j], real[:, j]


def simulate(cfg: SimConfig) -> tuple[Trajectory, SimSummary]:
    """Run the Monte Carlo experiment ``cfg``, each realization from rest.

    Returns the (subsampled) trajectory of the first realization together
    with summary statistics over all realizations.

    Raises
    ------
    ValueError
        If ``cfg.dt`` makes a forward Euler map I + dt G_k of
        :func:`frequency_blocks` unstable.  The eigenvalues lam of G_k are
        bin k's poles from :func:`~wavelqg.analysis.loop_poles`, and
        |1 + dt lam| < 1 exactly when dt < -2 Re lam / |lam|**2; the
        message names the radius and the largest stable step.
    AssertionError
        If some pole is not in the open left half plane, which Riccati
        theory rules out: it would be a bug in the closed forms.
    InstabilityError
        (a ``ValueError``) If any state coordinate exceeds 1e12 in
        magnitude, measured in the orthonormal Fourier coordinates the
        loop is stepped in: the discretization, not the design, failed.
    """
    n = cfg.params.n
    bins = n // 2 + 1
    n_real = cfg.n_realizations
    group = max(1, _GROUP_ENTRIES // (8 * bins))
    groups = [range(first, min(first + group, n_real))
              for first in range(0, n_real, group)]
    inner, real = _bin_parts(n)
    n_steps = cfg.n_steps
    n_blocks = -(-n_steps // _BLOCK)

    # the next task's draws depend only on the generators, so a helper
    # thread draws it while the kernel steps this task's blocks; each
    # generator still draws its blocks in order, on one thread at a time
    if _cpus() > 1:
        # concurrent.futures costs about 5.6 ms to import, and only the
        # helper needs it, so it is imported here, not at CLI start-up
        from concurrent.futures import ThreadPoolExecutor
        helper = ThreadPoolExecutor(1, initializer=_pin_helper,
                                    initargs=(_this_cpu(),))
    else:
        helper = contextlib.nullcontext()
    with helper as pool:
        # the first task is drawn while the design is evaluated and
        # checked; leaving the with block joins the helper, on error too
        blocks = _drawn(pool, cfg.seed, groups, n, n_blocks)
        next(blocks)
        s = ring_design(cfg.params)
        a, b, w = frequency_blocks(s, cfg.dt, cfg.noise_scale)
        lam = analysis.loop_poles(s)  # G_k's poles
        top = float(lam.real.max())
        if not top < 0.0:
            raise AssertionError(
                f"closed loop is not stable (abscissa {top:.3e}); "
                "assembly bug")
        dt_max = float(np.min(-2.0 * lam.real / np.abs(lam) ** 2))
        if not cfg.dt < dt_max:
            radius = float(np.abs(1.0 + cfg.dt * lam).max())
            raise ValueError(
                f"dt={cfg.dt!r} makes the forward Euler map unstable "
                f"(spectral radius {radius:.6g}); for these parameters it "
                f"is stable only for dt < {dt_max:.6g}")
        ab = np.concatenate([a, b], axis=-1)
        w_cost, w_err = w
        plan = _kernels.make_plan(ab, w_cost, w_err, _KB)

        burn_step = cfg.burn_steps
        t_post = (n_steps - burn_step) * cfg.dt
        stored = np.unique(np.append(
            np.arange(0, n_steps + 1, cfg.store_every), n_steps))
        # realization 0's stored steps in (lo, hi] of block k are
        # stored[marks[k]:marks[k + 1]]; those before cuts[k] are in the
        # block's work buffer as the state before step lo + off (chunk,
        # slot), the one at hi is z after the block
        lows = np.arange(0, n_steps, _BLOCK)
        marks = np.searchsorted(stored, np.append(lows, n_steps), "right")
        cuts = np.searchsorted(stored, np.append(lows[1:], n_steps))
        off = stored - np.append(0, np.repeat(lows, np.diff(marks)))
        chunk, slot = np.divmod(off, _KB)
        marks, cuts = marks.tolist(), cuts.tolist()

        costs = np.empty(n_real)
        errs = np.empty(n_real)
        traj_bins = np.empty((stored.size, 4, bins, 2))
        traj_bins[0] = 0.0
        traj_cost = np.zeros(stored.size)
        cum_cost = 0.0  # realization 0's, up to the current block

        for reals in groups:
            first, stop = reals.start, reals.stop
            work = _kernels.work_buffer(_KB, _BLOCK // _KB, (len(reals),),
                                        bins, plan.w.shape[-2])
            noise = work[:, _kernels.NOISE_ROWS]
            noise[..., real, :, 1] = 0.0  # k = 0 and Nyquist: real only
            dst = noise[..., inner, :, :], noise[..., real, :, 0]
            z = np.zeros((len(reals), 4, bins, 2))  # at rest
            post_cost = np.zeros(len(reals))
            post_err = np.zeros(len(reals))
            for k, lo in enumerate(range(0, n_steps, _BLOCK)):
                hi = min(lo + _BLOCK, n_steps)
                for to, part in zip(dst, next(blocks)):
                    np.copyto(to, part)
                buf = work[..., :-(-(hi - lo) // _KB), :]  # chunks it steps
                # per-step sums only where they are read: realization 0's
                # stored steps, and every realization's burn-in step
                burn = lo < burn_step < hi
                cost, err, mx, sums = _kernels.advance(
                    z, ab, w_cost, w_err, buf, cfg.dt, hi - lo, plan=plan,
                    running=len(reals) if burn else int(first == 0))
                fine = mx <= _BLOWUP  # also catches nan
                if not fine.all():
                    raise InstabilityError(
                        f"state magnitude exceeded {_BLOWUP:.0e} at "
                        f"t ~ {hi * cfg.dt:.3g} (realization "
                        f"{first + int(np.argmin(fine))}); "
                        f"reduce dt={cfg.dt!r}")
                if first == 0:
                    i, j, m = marks[k], cuts[k], marks[k + 1]
                    traj_bins[i:j] = buf[0, _kernels.STATE_ROWS, slot[i:j],
                                         :, chunk[i:j]]
                    traj_bins[j:m] = z[0]
                    traj_cost[i:m] = cum_cost + sums[off[i:m] - 1, 0, 0]
                    cum_cost += cost[0]
                if burn:
                    cost -= sums[burn_step - lo - 1, :, 0]
                    err -= sums[burn_step - lo - 1, :, 1]
                if burn_step < hi:
                    post_cost += cost
                    post_err += err
            costs[first:stop] = post_cost / t_post
            errs[first:stop] = post_err / t_post

    sites = _to_sites(traj_bins, n)
    gain = np.stack([s.k0, s.kc])[..., None]
    control = _to_sites(-(traj_bins[:, 2] * gain[0]
                          + traj_bins[:, 3] * gain[1]), n)
    sites[0] = control[0] = 0.0  # at rest; irfft of zeros may sign them
    traj = Trajectory(times=stored * cfg.dt,
                      plant_state=sites[:, :2].reshape(-1, 2 * n),
                      estimate=sites[:, 2:].reshape(-1, 2 * n),
                      control=control, running_cost=traj_cost)
    _, j_kf, j_lqg = analysis.costs(s).tolist()
    summary = SimSummary(
        empirical_lqg_cost=float(np.mean(costs)),
        empirical_est_err_cov_trace=float(np.mean(errs)),
        predicted_lqg_cost=j_lqg,
        predicted_est_err_cov_trace=j_kf,
        realization_costs=[float(c) for c in costs],
        realization_err_traces=[float(e) for e in errs],
        seed=cfg.seed, dt=cfg.dt, t_final=cfg.t_final, burn_in=cfg.burn_in,
        n_realizations=cfg.n_realizations, noise_scale=cfg.noise_scale,
        generator="pcg64", backend=_kernels.BACKEND)
    return traj, summary
