"""Cost evaluation, closed-loop assembly and locality sweeps.

All steady-state costs reduce to sums over the per-frequency Riccati
solutions because traces are invariant under the DFT:

    lqr_cost = trace(P)            = sum_k p1(k) + p2(k)
    kf_cost  = trace(S)            = sum_k s1(k) + s2(k)
    lqg_cost = trace(P B B') + trace(S K' R K)

with R = I/pi3**2.  The output-feedback cost has an equivalent dual form
trace(S Qbar) + trace(P L V L') with Qbar the state weight and V =
(I - pi1 Lap)**-1 the measurement noise covariance; both are computed here
through independent per-frequency combinations and must agree, which the
test suite and the ``verify`` command exercise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .params import NondimParams, locality_residuals
from .spectral import (circulant_rows, laplacian_circulant, laplacian_spectrum,
                       offdiag_masses)
from .synthesis import (IMAG_TOL, DesignSpectra, GainSet, assemble_gains,
                        design_spectra, kf_spectral_gain, lqr_spectral_gain)

__all__ = [
    "CostLocalityReport",
    "ClosedLoopLqg",
    "SweepGrid",
    "SweepRow",
    "lqr_cost",
    "kf_cost",
    "lqg_cost",
    "lqg_cost_dual",
    "build_closed_loop",
    "report",
    "sweep",
    "curve_reports",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = ("pi1,pi2,pi3,pi4,n,j_lqr,j_kf,j_lqg,offdiag_k1,offdiag_k2,"
              "offdiag_l1,offdiag_l2,res_k,res_l,on_curve")


def _costs(s: DesignSpectra) -> np.ndarray:
    """(j_lqr, j_kf, j_lqg) along a new last axis, per point of ``s``."""
    # trace(S K' R K): R = 1/pi3**2 is folded into p0 and p2
    ctrl = s.s1 * s.k0 * s.p0 + 2.0 * s.s0 * s.k0 * s.p2 + s.s2 * s.kc * s.p2
    return np.sum(np.stack([s.p1 + s.p2, s.s1 + s.s2, s.p2 + ctrl], axis=-2),
                  axis=-1)


def lqr_cost(p: NondimParams) -> float:
    """trace of the control Riccati solution."""
    return float(_costs(design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n))[0])


def kf_cost(p: NondimParams) -> float:
    """trace of the steady-state estimation error covariance."""
    return float(_costs(design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n))[1])


def lqg_cost(p: NondimParams) -> float:
    """Steady-state output-feedback cost, trace(P B B') + trace(S K' R K).

    Per frequency: p2 + (s1 k0**2 + 2 s0 k0 kc + s2 kc**2) / pi3**2.
    """
    return float(_costs(design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n))[2])


def lqg_cost_dual(p: NondimParams) -> float:
    """Same cost through the dual form trace(S Qbar) + trace(P L V L')."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    v_inv = 1.0 - p.pi1 * laplacian_spectrum(p.n).values.real
    state = s.s1 * v_inv + s.s2 * p.pi2
    inject = (s.p1 * s.lc ** 2 + 2.0 * s.p0 * s.lc * s.l0
              + s.p2 * s.l0 ** 2) / v_inv
    return float(np.sum(state + inject))


@dataclass(frozen=True, eq=False)
class ClosedLoopLqg:
    """Dense realization of the output-feedback loop.

    ``augmented`` is the 4n-by-4n generator of (plant state, estimate):

        [[A, -B K], [L C, A - L C - B K]].
    """

    a: np.ndarray
    b: np.ndarray
    c_meas: np.ndarray
    gain_k: GainSet
    gain_l: GainSet
    params: NondimParams
    augmented: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n


def plant_matrices(p: NondimParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A, B, C): wave dynamics, force injection, displacement sensing."""
    n = p.n
    lap = laplacian_circulant(n).dense()
    zero = np.zeros((n, n))
    eye = np.eye(n)
    a = np.block([[zero, eye], [lap, zero]])
    b = np.vstack([zero, eye])
    c = np.hstack([p.pi4 * eye, zero])
    return a, b, c


def build_closed_loop(p: NondimParams) -> ClosedLoopLqg:
    """Assemble the dense LQG loop for simulation and eigenvalue checks."""
    a, b, c = plant_matrices(p)
    gk = assemble_gains(lqr_spectral_gain(p), p)
    gl = assemble_gains(kf_spectral_gain(p), p)
    kmat = np.hstack([gk.block1.dense(), gk.block2.dense()])
    lmat = np.vstack([gl.block1.dense(), gl.block2.dense()])
    bk = b @ kmat
    lc = lmat @ c
    aug = np.block([[a, -bk], [lc, a - lc - bk]])
    # Riccati theory guarantees both halves are Hurwitz; a violation here
    # means the assembly is wrong, not the parameters.
    top = max(np.linalg.eigvals(a - bk).real.max(),
              np.linalg.eigvals(a - lc).real.max())
    if not top < 0.0:
        raise AssertionError(
            f"closed loop is not stable (abscissa {top:.3e}); assembly bug")
    return ClosedLoopLqg(a=a, b=b, c_meas=c, gain_k=gk, gain_l=gl, params=p,
                         augmented=aug)


@dataclass(frozen=True)
class CostLocalityReport:
    """Costs plus locality diagnostics at one parameter point."""

    pi1: float
    pi2: float
    pi3: float
    pi4: float
    n: int
    j_lqr: float
    j_kf: float
    j_lqg: float
    offdiag_k1: float
    offdiag_k2: float
    offdiag_l1: float
    offdiag_l2: float
    residual_lqr_decentral: float
    residual_kf_decentral: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CostLocalityReport":
        return cls(**d)


# Point-frequency cells per kernel call.  The kernel holds about 300 bytes
# per cell, so this caps its working memory near 1.4 MB for any grid size,
# small enough not to raise a sweep's peak resident memory.
_CHUNK_CELLS = 1 << 12


def _reports(points: list[NondimParams], n: int) -> list[CostLocalityReport]:
    """:func:`report` at each point (all on n sites), chunk by chunk."""
    step = max(1, _CHUNK_CELLS // n)
    out = []
    for i in range(0, len(points), step):
        chunk = points[i:i + step]
        pi = np.array([[pt.pi1, pt.pi2, pt.pi3, pt.pi4] for pt in chunk])
        s = design_spectra(*pi.T, n)
        # K1, K2, L1, L2 spectra; the filter's block1 carries the companion
        blocks = np.stack([s.k0, s.kc, s.lc, s.l0], axis=-2)
        masses = offdiag_masses(circulant_rows(blocks, IMAG_TOL))
        values = np.concatenate([_costs(s), masses], axis=-1).tolist()
        # positional in field order: point, costs, masses, residuals
        out += [CostLocalityReport(pt.pi1, pt.pi2, pt.pi3, pt.pi4, pt.n, *v,
                                   *locality_residuals(pt))
                for pt, v in zip(chunk, values)]
    return out


def report(p: NondimParams) -> CostLocalityReport:
    """Evaluate costs and locality measures at one parameter point."""
    return _reports([p], p.n)[0]


@dataclass(frozen=True)
class SweepGrid:
    """Log-log grid over (pi1, pi3/pi4) at fixed pi2 and n.

    With ``tie_pi3_pi4`` (the default) each grid value v sets pi3 = pi4 = v,
    so one sweep serves both the regulator and the filter maps.  Untied,
    the second axis drives pi4 alone and pi3 stays at ``pi3_fixed``.
    """

    pi1_values: np.ndarray
    pi34_values: np.ndarray
    pi2: float = 1.0
    n: int = 30
    tie_pi3_pi4: bool = True
    pi3_fixed: float = 1.0

    def __post_init__(self):
        for name in ("pi1_values", "pi34_values"):
            vals = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vals.size < 1 or np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, vals)
        if not (self.pi2 > 0.0 and self.pi3_fixed > 0.0):
            raise ValueError("pi2 and pi3_fixed must be positive")
        if self.n < 2:
            raise ValueError("n must be at least 2")


@dataclass(frozen=True)
class SweepRow:
    params: NondimParams
    report: CostLocalityReport
    on_curve: bool


def _log_half_cell(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return 0.5 * float(np.max(np.diff(np.log(values))))


def _near_curve(pi1: float, pi_other: float, half_cell: float) -> bool:
    """Within half a grid cell (log space) of the set pi1 * pi_other = 2."""
    dist = abs(math.log(pi1) + math.log(pi_other) - math.log(2.0)) / math.sqrt(2.0)
    return dist <= max(half_cell, 1e-12)


def sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate :func:`report` on every grid point, tagging curve proximity.

    Rows come back pi1-major: the outer loop walks pi1_values, the inner one
    pi34_values.
    """
    half = max(_log_half_cell(grid.pi1_values),
               _log_half_cell(grid.pi34_values))
    points = [NondimParams(pi1=float(pi1), pi2=grid.pi2, n=grid.n,
                           pi3=float(v if grid.tie_pi3_pi4
                                     else grid.pi3_fixed), pi4=float(v))
              for pi1 in grid.pi1_values for v in grid.pi34_values]
    return [SweepRow(params=pt, report=rep,
                     on_curve=(_near_curve(pt.pi1, pt.pi3, half)
                               and _near_curve(pt.pi1, pt.pi4, half)))
            for pt, rep in zip(points, _reports(points, grid.n))]


def curve_reports(pi1_values, pi2: float = 1.0, n: int = 30
                  ) -> list[SweepRow]:
    """Reports along the fully decentralized family pi3 = pi4 = 2/pi1."""
    points = [NondimParams(pi1=float(pi1), pi2=pi2, pi3=2.0 / float(pi1),
                           pi4=2.0 / float(pi1), n=n)
              for pi1 in np.atleast_1d(np.asarray(pi1_values, dtype=float))]
    return [SweepRow(params=pt, report=rep, on_curve=True)
            for pt, rep in zip(points, _reports(points, n))]


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows with the fixed header; floats use shortest repr."""
    lines = [CSV_HEADER]
    for row in rows:
        r = row.report
        vals = [r.pi1, r.pi2, r.pi3, r.pi4]
        cells = [repr(float(v)) for v in vals] + [str(r.n)]
        cells += [repr(float(v)) for v in
                  (r.j_lqr, r.j_kf, r.j_lqg, r.offdiag_k1, r.offdiag_k2,
                   r.offdiag_l1, r.offdiag_l2, r.residual_lqr_decentral,
                   r.residual_kf_decentral)]
        cells.append("true" if row.on_curve else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
