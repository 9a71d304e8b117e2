"""Euler-Maruyama Monte Carlo validation of the closed-loop design.

The loop simulated here is exactly the one ``analysis.build_closed_loop``
assembles: plant driven by unit-intensity force disturbance, estimator
driven by the measured displacements corrupted by spatially correlated
noise with covariance (I - pi1 Lap)^-1, control u = -K (estimate).  The
empirical time-averaged quadratic cost and estimation-error power then have
closed-form predictions (``analysis.lqg_cost`` / ``analysis.kf_cost``),
which is what makes the simulator a useful end-to-end check.

Determinism
-----------
Realization i draws from numpy's PCG64 seeded with
``SeedSequence(seed, spawn_key=(i,))`` -- a documented, order-independent
splitting rule.  Within a realization each step consumes 2n standard
normals (n disturbance, n measurement) drawn row-wise, so the noise stream
does not depend on internal chunk sizes and paths agree across chunkings
to floating-point roundoff.  Realizations are stepped together in groups
of ``max(1, 256 // 4n)``, yet every product is taken per realization, and
the noise blocks and kernel segments depend only on the step count,
``store_every`` and the burn-in, so realization i's results are bitwise the
same whatever the number of realizations R.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from .analysis import build_closed_loop, kf_cost, lqg_cost
from .params import NondimParams
from .spectral import laplacian_circulant, laplacian_spectrum
from .synthesis import design_spectra

__all__ = [
    "InstabilityError",
    "SimConfig",
    "Trajectory",
    "SimSummary",
    "sample_correlated_noise",
    "noise_covariance",
    "simulate",
    "kernel_backend",
]

_BLOWUP = 1e12
_BLOCK = 256          # steps per noise block; bounds each kernel call
_GROUP_ENTRIES = 256  # state entries (realizations x 4n) stepped together


class InstabilityError(RuntimeError):
    """The discretized loop blew up; the step size is too coarse."""


def kernel_backend() -> str:
    """Name of the stepping kernel, as recorded in every summary ("python")."""
    return _kernels.BACKEND


def _euler_stability(p: NondimParams, dt: float) -> tuple[float, float]:
    """Spectral radius of the loop's forward Euler map at step ``dt``, and
    the largest step min(-2 Re lam / |lam|**2) that keeps it below 1."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    d = laplacian_spectrum(p.n)
    ones, zeros = np.ones(p.n), np.zeros(p.n)
    ctrl = np.stack([zeros, ones, d - s.k0, -s.kc], axis=-1)
    filt = np.stack([-p.pi4 * s.lc, ones, d - p.pi4 * s.l0, zeros], axis=-1)
    lam = np.linalg.eigvals(np.concatenate([ctrl, filt]).reshape(-1, 2, 2))
    radius = float(np.abs(1.0 + dt * lam).max())
    return radius, float(np.min(-2.0 * lam.real / np.abs(lam) ** 2))


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description.

    ``dt`` must pass two checks.  The explicit-integration guard
    dt <= 0.1 / sqrt(4 + pi3 + pi4) bounds the step by the closed-loop
    frequencies, which grow with the gains.  The guard ignores pi1 and pi2,
    so dt must also keep the forward Euler map I + dt M of the loop
    generator M stable: max |1 + dt lam| < 1 over its eigenvalues lam.  In
    (plant state, estimation error) coordinates M is block triangular, so
    those are the eigenvalues of the per-frequency control blocks
    [[0, 1], [d - k0, -kc]] and filter blocks
    [[-pi4 lc, 1], [d - pi4 l0, 0]].
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
        radius, dt_max = _euler_stability(self.params, self.dt)
        if radius >= 1.0:
            raise ValueError(
                f"dt={self.dt!r} makes the forward Euler map unstable "
                f"(spectral radius {radius:.6g}); for these parameters it "
                f"is stable only for dt < {dt_max:.6g}")
        if not (self.t_final > 0.0) or self.n_steps < 10:
            raise ValueError("t_final must cover at least 10 steps")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError(f"burn_in must lie in [0, 1), got {self.burn_in!r}")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.store_every < 1:
            raise ValueError("store_every must be at least 1")
        if not (self.noise_scale >= 0.0):
            raise ValueError("noise_scale must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


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

    def to_dict(self) -> dict:
        return asdict(self)


def _noise_filter(pi1: float, n: int) -> np.ndarray | None:
    """Spectral scaling turning white noise into covariance (I-pi1 Lap)^-1."""
    if pi1 == 0.0:
        return None
    d = laplacian_spectrum(n)
    return np.sqrt(1.0 / (1.0 - pi1 * d))


def _correlate(white: np.ndarray, scaling: np.ndarray | None) -> np.ndarray:
    if scaling is None:
        return white
    return np.fft.ifft(np.fft.fft(white, axis=-1) * scaling, axis=-1).real


def sample_correlated_noise(pi1: float, n: int, rng: np.random.Generator,
                            size: int | None = None) -> np.ndarray:
    """Gaussian vector(s) with covariance (I - pi1 Lap)^-1.

    Sampling is spectral: scale the DFT of white noise by the square root
    of the per-frequency variance 1/(1 - pi1 d(k)) and transform back; the
    filter is real and symmetric so the output is real.  With ``size`` an
    (size, n) array of independent draws is returned.
    """
    if pi1 < 0.0:
        raise ValueError("pi1 must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    shape = (n,) if size is None else (int(size), n)
    white = rng.standard_normal(shape)
    return _correlate(white, _noise_filter(pi1, n))


def noise_covariance(pi1: float, n: int) -> np.ndarray:
    """Dense (I - pi1 Lap)^-1, the measurement noise covariance."""
    lap = laplacian_circulant(n).dense()
    return np.linalg.inv(np.eye(n) - pi1 * lap)


def _segments(n_steps: int, store_every: int, burn_step: int) -> list[tuple[int, int]]:
    """Split [0, n_steps) at stored samples, the burn-in boundary and the
    noise blocks of ``_BLOCK`` steps; every boundary type is honored."""
    cuts = set(range(0, n_steps, store_every)) | set(range(0, n_steps, _BLOCK))
    ordered = sorted(cuts | {burn_step, n_steps})
    return list(zip(ordered[:-1], ordered[1:]))


def simulate(cfg: SimConfig,
             x0: np.ndarray | None = None,
             xh0: np.ndarray | None = None) -> tuple[Trajectory, SimSummary]:
    """Run the Monte Carlo experiment described by ``cfg``.

    Returns the (subsampled) trajectory of the first realization together
    with summary statistics over all realizations.  ``x0``/``xh0`` override
    the zero initial plant state / estimate (mainly for decay tests).

    Raises
    ------
    InstabilityError
        If any state magnitude exceeds 1e12, which for this always-stable
        loop means the discretization, not the design, failed.
    """
    p = cfg.params
    n = p.n
    cl = build_closed_loop(p)
    m_aug = np.ascontiguousarray(cl.augmented)
    qbar = np.ascontiguousarray(cl.qbar)
    krk = np.ascontiguousarray(cl.krk)
    kmat, lmat = cl.kmat, cl.lmat

    n_steps = cfg.n_steps
    burn_step = int(round(cfg.burn_in * n_steps))
    segs = _segments(n_steps, cfg.store_every, burn_step)
    stored_steps = sorted(set(range(0, n_steps + 1, cfg.store_every)) | {n_steps})
    store_at = {s: i for i, s in enumerate(stored_steps)}
    scaling = _noise_filter(p.pi1, n)

    z0 = np.zeros(4 * n)
    if x0 is not None:
        z0[:2 * n] = np.asarray(x0, dtype=float).reshape(2 * n)
    if xh0 is not None:
        z0[2 * n:] = np.asarray(xh0, dtype=float).reshape(2 * n)

    t_post = (n_steps - burn_step) * cfg.dt
    if t_post <= 0.0:
        raise ValueError("burn_in leaves no post-burn-in samples")

    n_real = cfg.n_realizations
    group = max(1, _GROUP_ENTRIES // (4 * n))
    amp = cfg.noise_scale * math.sqrt(cfg.dt)
    costs = np.empty(n_real)
    errs = np.empty(n_real)
    traj_states = np.empty((len(stored_steps), 4 * n))
    traj_cost = np.empty(len(stored_steps))
    traj_states[0] = z0
    traj_cost[0] = 0.0

    for first in range(0, n_real, group):
        stop = min(first + group, n_real)
        reals = range(first, stop)
        rngs = [np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed, spawn_key=(real,))))
            for real in reals]
        z = np.tile(z0, (len(reals), 1))
        cum_cost = np.zeros(len(reals))
        post_cost = np.zeros(len(reals))
        post_err = np.zeros(len(reals))
        for lo, hi in segs:
            off = lo % _BLOCK
            if off == 0:  # segments never straddle a block (see _segments)
                steps = min(_BLOCK, n_steps - lo)
                noise = np.zeros((steps, len(reals), 4 * n))
                for i, rng in enumerate(rngs):
                    raw = rng.standard_normal((steps, 2 * n))
                    if cfg.noise_scale != 0.0:
                        noise[:, i, n:2 * n] = amp * raw[:, :n]
                        noise[:, i, 2 * n:] = amp * (
                            _correlate(raw[:, n:], scaling) @ lmat.T)
            c_int, e_int, mx = _kernels.advance(
                z, m_aug, qbar, krk, noise[off:off + hi - lo], cfg.dt)
            bad = np.flatnonzero(~(mx <= _BLOWUP))  # also catches nan
            if bad.size:
                raise InstabilityError(
                    f"state magnitude exceeded {_BLOWUP:.0e} at "
                    f"t ~ {hi * cfg.dt:.3g} (realization {reals[bad[0]]}); "
                    f"reduce dt={cfg.dt!r}")
            cum_cost += c_int
            if lo >= burn_step:
                post_cost += c_int
                post_err += e_int
            if first == 0 and hi in store_at:
                idx = store_at[hi]
                traj_states[idx] = z[0]
                traj_cost[idx] = cum_cost[0]
        costs[first:stop] = post_cost / t_post
        errs[first:stop] = post_err / t_post

    times = np.array(stored_steps, dtype=float) * cfg.dt
    plant = traj_states[:, :2 * n]
    est = traj_states[:, 2 * n:]
    control = -(est @ kmat.T)
    traj = Trajectory(times=times, plant_state=plant, estimate=est,
                      control=control, running_cost=traj_cost)
    summary = SimSummary(
        empirical_lqg_cost=float(np.mean(costs)),
        empirical_est_err_cov_trace=float(np.mean(errs)),
        predicted_lqg_cost=lqg_cost(p),
        predicted_est_err_cov_trace=kf_cost(p),
        realization_costs=[float(c) for c in costs],
        realization_err_traces=[float(e) for e in errs],
        seed=cfg.seed, dt=cfg.dt, t_final=cfg.t_final, burn_in=cfg.burn_in,
        n_realizations=cfg.n_realizations, noise_scale=cfg.noise_scale,
        generator="pcg64", backend=_kernels.BACKEND)
    return traj, summary
