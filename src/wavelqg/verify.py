"""Checks of the closed forms against the dense oracle, and gain-file audits.

``verify_point`` scores the closed forms at one parameter point against
the dense Newton-Kleinman oracle, which shares no code path with them;
``audit_gain_set`` checks a gain set read back from a file against its own
parameters.  Both return :class:`Check` records, which the ``verify``
command prints and writes as its JSON report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, synthesis
from .oracle import (ConvergenceError, DenseAreProblem, care_residual,
                     solve_care_dense, spectral_abscissa)
from .params import NondimParams
from .spectral import laplacian_spectrum, spectrum_of_circulant

__all__ = ["Check", "ConvergenceError", "verify_point", "audit_gain_set"]


@dataclass(frozen=True)
class Check:
    """One named comparison of a value with its tolerance."""

    name: str
    value: float
    tol: float
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _at_most(name: str, value: float, tol: float) -> Check:
    return Check(name, float(value), tol, bool(value <= tol))


def _rel_dev(ref: float, x: float) -> float:
    return abs(ref - x) / max(abs(ref), 1e-30)


def verify_point(p: NondimParams) -> list[Check]:
    """Closed forms at ``p`` against the dense oracle, frequency by frequency.

    Checks, in order: the worst relative gain deviation from the oracle,
    the worst closed-form Riccati residual (control and filter), the
    relative agreement of the primal and dual LQG cost forms, and the
    spectral abscissa of the assembled closed loop (strictly negative).
    Raises :class:`ConvergenceError` when the oracle does not converge.
    """
    d = laplacian_spectrum(p.n)
    s = synthesis.design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    gain_err = 0.0
    res_max = 0.0
    for k in range(p.n):
        a = np.array([[0.0, 1.0], [d[k], 0.0]])
        v = 1.0 - p.pi1 * d[k]
        ctrl = DenseAreProblem(a, [0.0, 1.0], np.diag([v, p.pi2]),
                               [[p.pi3 ** 2]])
        _, kd = solve_care_dense(ctrl)
        # the filter equation a S + S a.T + W - S c.T V^-1 c S = 0 is the
        # control equation on transposed data; its gain is L.T
        c = np.array([[p.pi4, 0.0]])
        filt = DenseAreProblem(a.T, c.T, np.diag([0.0, 1.0]), [[v]])
        _, lt = solve_care_dense(filt)
        gain_err = max(gain_err,
                       _rel_dev(kd[0, 0], s.k0[k]), _rel_dev(kd[0, 1], s.kc[k]),
                       _rel_dev(lt[0, 1], s.l0[k]), _rel_dev(lt[0, 0], s.lc[k]))
        res_max = max(res_max,
                      care_residual(np.array([[s.p1[k], s.p0[k]],
                                              [s.p0[k], s.p2[k]]]), ctrl),
                      care_residual(np.array([[s.s1[k], s.s0[k]],
                                              [s.s0[k], s.s2[k]]]), filt))
    dual_dev = _rel_dev(float(analysis.costs(s)[2]),
                        analysis.dual_lqg_cost(s, p))
    absc = spectral_abscissa(analysis.build_closed_loop(p))
    return [
        _at_most("per_frequency_gain_vs_dense_oracle", gain_err, 1e-7),
        _at_most("closed_form_riccati_residual", res_max, 1e-9),
        _at_most("lqg_cost_dual_form_agreement", dual_dev, 1e-6),
        Check("closed_loop_spectral_abscissa", absc, 0.0, bool(absc < 0.0)),
    ]


def audit_gain_set(gs: synthesis.GainSet) -> list[Check]:
    """Consistency of a gain set with its own parameters.

    Checks the Riccati residual its gain spectra imply, then that each
    block's first row carries the spectrum the set claims for it.
    """
    res = synthesis.gain_are_residuals(gs)
    devs = np.abs(spectrum_of_circulant(gs.rows) - gs.spectra).max(axis=-1)
    scales = 1.0 + np.abs(gs.spectra).max(axis=-1)
    return [_at_most("spectral_gain_riccati_residual", res.max(), 1e-9),
            *(_at_most(f"block{i + 1}_rows_match_spectra", dev, 1e-8 * scale)
              for i, (dev, scale) in enumerate(zip(devs, scales)))]
