"""Cost evaluation, closed-loop poles and locality sweeps.

All steady-state costs reduce to sums over the per-frequency Riccati
solutions because traces are invariant under the DFT.  Frequencies k and
n - k share every summand, so each cost is a sum over the rfft half
k = 0 .. n//2, with k weighted by its multiplicity m(k), as the design
carries them (:attr:`~wavelqg.synthesis.DesignSpectra.mult`):

    j_lqr = trace(P) = sum_k m(k) (p1(k) + p2(k))
    j_kf  = trace(S) = sum_k m(k) (s1(k) + s2(k))
    j_lqg = trace(P B B') + trace(S K' R K)

with R = I/pi3**2.  The output-feedback cost has an equivalent dual form
trace(S Qbar) + trace(P L V L') with Qbar the state weight and V =
(I - pi1 Lap)**-1 the measurement noise covariance.  Functions taking a
design record read its point from it and batch over its points; the two
forms are independent sums, which the tests and ``verify`` compare.

:func:`sweep` and :func:`curve_reports` return tables: a dict that maps
each column of :data:`CSV_HEADER` (:data:`COLUMNS`) to a 1-D array, one
entry per point, which :func:`rows_to_csv` renders as CSV.  A table's
off-diagonal masses come from the half by Parseval, with no transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import NondimParams
from .spectral import offdiag_masses, rfft_half
from .synthesis import DesignSpectra, design_spectra, ring_design

__all__ = [
    "CostLocalityReport",
    "SweepGrid",
    "costs",
    "kf_cost",
    "lqg_cost_dual",
    "dual_lqg_cost",
    "loop_poles",
    "report",
    "sweep",
    "curve_reports",
    "rows_to_csv",
    "COLUMNS",
    "CSV_HEADER",
]

COLUMNS = ("pi1", "pi2", "pi3", "pi4", "n", "j_lqr", "j_kf", "j_lqg",
           "offdiag_k1", "offdiag_k2", "offdiag_l1", "offdiag_l2",
           "res_k", "res_l", "on_curve")
CSV_HEADER = ",".join(COLUMNS)


def costs(s: DesignSpectra) -> np.ndarray:
    """(j_lqr, j_kf, j_lqg) along a new last axis, per point of ``s``, each
    frequency of ``s`` counted ``s.mult`` times."""
    # trace(S K' R K): R = 1/pi3**2 is folded into p0 and p2
    ctrl = s.s1 * s.k0 * s.p0 + 2.0 * s.s0 * s.k0 * s.p2 + s.s2 * s.kc * s.p2
    return np.sum(np.stack([s.p1 + s.p2, s.s1 + s.s2, s.p2 + ctrl], axis=-2)
                  * s.mult, axis=-1)


def kf_cost(p: NondimParams) -> float:
    """trace of the steady-state estimation error covariance."""
    return float(costs(ring_design(p))[1])


def dual_lqg_cost(s: DesignSpectra) -> np.ndarray:
    """The LQG cost through the dual form trace(S Qbar) + trace(P L V L'),
    per point of ``s``, like ``costs(s)[..., 2]``."""
    v_inv = 1.0 - s.pi1 * s.d
    state = s.s1 * v_inv + s.s2 * s.pi2
    inject = (s.p1 * s.lc ** 2 + 2.0 * s.p0 * s.lc * s.l0
              + s.p2 * s.l0 ** 2) / v_inv
    return np.sum(s.mult * (state + inject), axis=-1)


def lqg_cost_dual(p: NondimParams) -> float:
    """Same cost through the dual form trace(S Qbar) + trace(P L V L')."""
    return float(dual_lqg_cost(ring_design(p)))


def loop_poles(s: DesignSpectra) -> np.ndarray:
    """Closed-loop poles of the designs in ``s``, each at its own pi4 and
    at the eigenvalues ``s.d``, shape (..., 2, len(s.d), 2).

    Frequency k's loop is block triangular in (state, estimation error)
    coordinates: its poles are the roots of s**2 + kc s + (k0 - d) (index
    0 of axis -3) and of s**2 + pi4 lc s + (pi4 l0 - d) (index 1), each
    pair as r1 = -(t + sqrt(t**2 - 4 delta)) / 2 and r2 = delta / r1, so
    no root cancels.
    """
    t = np.stack([s.kc, s.pi4 * s.lc], axis=-2)
    delta = np.stack([s.k0 - s.d, s.pi4 * s.l0 - s.d], axis=-2)
    r1 = -0.5 * (t + np.sqrt(t * t - 4.0 * delta + 0j))
    return np.stack([r1, delta / r1], axis=-1)


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


# Sets the points per kernel call: _table steps _CHUNK_CELLS // n points,
# each over the n//2 + 1 rfft bins, so a call holds about 4096
# point-frequency cells (8192 at n = 2, and one point's n//2 + 1 past
# n = 8192).  The kernel holds about 200 bytes per cell (tracemalloc's
# peak over one chunk at n = 8, 30 and 128), so this caps its working
# memory near 1 MB for any grid size.  At 1 << 13 a sweep's peak resident
# memory reads as at 1 << 12; chunks of 1 << 14 cells took another 12%
# off a 2500-point table at n = 128 but raised it by 0.2 to 0.4 MB.
_CHUNK_CELLS = 1 << 13


def _table(pi1, pi2, pi3, pi4, n: int) -> dict[str, np.ndarray]:
    """Every column but ``on_curve`` at the points (pi1, pi2, pi3, pi4),
    broadcast to one axis, all on n sites; the design is evaluated chunk
    by chunk, on the rfft half of the spectrum.  Raises ValueError naming
    n and the first point whose costs or masses are not finite (a cost's
    sum or products can overflow on a design that is finite)."""
    pi = np.stack(np.broadcast_arrays(
        *np.atleast_1d(pi1, pi2, pi3, pi4))).astype(float)
    step = max(1, _CHUNK_CELLS // n)
    d, mult = rfft_half(n)
    values = []
    for i in range(0, pi.shape[1], step):
        s = design_spectra(*pi[:, i:i + step], d, mult)
        with np.errstate(all="ignore"):
            chunk = np.concatenate(
                [costs(s), offdiag_masses(s.blocks, s.mult)], axis=-1)
        finite = np.isfinite(chunk)
        if not finite.all():
            j = i + np.flatnonzero(~finite.all(axis=-1))[0]
            raise ValueError(
                "the costs or masses are not finite in floating point at "
                "pi=({:.6g}, {:.6g}, {:.6g}, {:.6g}), n={}".format(
                    *pi[:, j], n))
        values.append(chunk)
    residuals = pi[0] - 2.0 / pi[2:]  # locality_residuals, per point
    return dict(zip(COLUMNS, (*pi, np.full(pi.shape[1], n),
                              *np.concatenate(values).T, *residuals)))


def report(p: NondimParams) -> CostLocalityReport:
    """Evaluate costs and locality measures at one parameter point."""
    table = _table(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    # the report's fields are the columns before on_curve, in order
    return CostLocalityReport(*(table[c].item() for c in COLUMNS[:-1]))


def _positive_values(name: str, values) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.size < 1 or np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be positive and finite")
    return vals


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
            object.__setattr__(self, name,
                               _positive_values(name, getattr(self, name)))
        # the first point runs the checks on the values all points share
        NondimParams(self.pi1_values[0], self.pi2, self.pi3_fixed,
                     self.pi34_values[0], self.n)


def sweep(grid: SweepGrid) -> dict[str, np.ndarray]:
    """The table of :func:`report` columns on every grid point, plus
    ``on_curve``, which tags the points near the decentralized curve.

    Rows come pi1-major: the outer loop walks pi1_values, the inner one
    pi34_values.
    """
    pi1 = np.repeat(grid.pi1_values, grid.pi34_values.size)
    pi4 = np.tile(grid.pi34_values, grid.pi1_values.size)
    pi3 = pi4 if grid.tie_pi3_pi4 else np.full_like(pi4, grid.pi3_fixed)
    table = _table(pi1, grid.pi2, pi3, pi4, grid.n)
    # on the curve: within half a grid cell (log space) of pi1 pi3 = 2
    # and of pi1 pi4 = 2
    half = 0.5 * max(np.max(np.diff(np.log(v)), initial=0.0)
                     for v in (grid.pi1_values, grid.pi34_values))
    dist = np.abs(np.log(pi1) + np.log([pi3, pi4])
                  - math.log(2.0)) / math.sqrt(2.0)
    table["on_curve"] = np.all(dist <= max(half, 1e-12), axis=0)
    return table


def curve_reports(pi1_values, pi2: float = 1.0, n: int = 30
                  ) -> dict[str, np.ndarray]:
    """The sweep table along the fully decentralized family
    pi3 = pi4 = 2/pi1."""
    pi1 = _positive_values("pi1_values", pi1_values)
    with np.errstate(over="ignore"):
        pi34 = 2.0 / pi1
    if not np.isfinite(pi34).all():
        raise ValueError("pi3 = pi4 = 2/pi1 overflows at pi1 = "
                         f"{float(pi1[~np.isfinite(pi34)][0])!r}")
    NondimParams(pi1[0], pi2, pi34[0], pi34[0], n)  # checks pi2 and n
    table = _table(pi1, pi2, pi34, pi34, n)
    table["on_curve"] = np.ones(pi1.size, dtype=bool)
    return table


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each entry, called once per distinct bit pattern (so
    0.0 and -0.0, and NaNs, keep their own text)."""
    bits = values.view(f"u{values.itemsize}")
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array([repr(v) for v in values[first].tolist()], dtype=object)
    return text[inverse].tolist()


def rows_to_csv(table: dict[str, np.ndarray]) -> str:
    """Render a sweep table under :data:`CSV_HEADER`, one line per row."""
    # repr gives floats in shortest round-trip form, lower() bools as true;
    # the parameter columns pi1..n repeat or tile their few values, and
    # res_k and res_l are bit-equal on tied points (pi3 = pi4) while an
    # untied sweep's res_k repeats along each pi1 row
    columns = [_reprs(table[c]) for c in COLUMNS[:5]]
    columns += [list(map(repr, table[c].tolist())) for c in COLUMNS[5:-3]]
    res = _reprs(np.concatenate([table["res_k"], table["res_l"]]))
    rows = table["res_k"].size
    columns += [res[:rows], res[rows:]]
    columns.append([repr(v).lower() for v in table["on_curve"].tolist()])
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
