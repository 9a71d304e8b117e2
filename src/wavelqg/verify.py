"""Checks of the closed forms against the Newton-Kleinman oracle, and
gain-file audits.

``verify_point`` scores the ring design at one parameter point against
the batched per-frequency Newton-Kleinman oracle of :mod:`wavelqg.oracle`,
which shares no code path with them; ``audit_gain_set`` checks a gain set
read back from a file against its own parameters.  Both return
:class:`Check` records, which the ``verify`` command prints and writes as
its JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, synthesis
from .oracle import (ConvergenceError, backward_error, ring_equations,
                     solve_ring, symmetric_blocks)
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


def _at_most(name: str, value: float, tol: float) -> Check:
    return Check(name, float(value), tol, bool(value <= tol))


def _rel_dev(ref, x):
    # the floor only keeps 0/0 from being nan, so a tiny ref scores fully
    return np.abs(ref - x) / np.maximum(np.abs(ref), np.finfo(float).tiny)


def verify_point(p: NondimParams) -> list[Check]:
    """The design :func:`~wavelqg.synthesis.ring_design` gives at ``p``
    against the Newton-Kleinman oracle at ``p``, over the rfft half at once.

    Checks, in order: the worst relative gain deviation from the oracle,
    the worst backward error of the closed-form Riccati blocks (control
    and filter, see :func:`~wavelqg.oracle.backward_error`), the relative
    agreement of the primal and dual LQG cost forms, and the spectral
    abscissa of the closed loop (strictly negative), the largest real part
    of the per-frequency poles of :func:`~wavelqg.analysis.loop_poles`.
    Raises ValueError naming ``p`` when a cost of either form overflows
    (see :func:`~wavelqg.analysis.not_finite_error`), and
    :class:`ConvergenceError` when the oracle does not converge.
    """
    s = synthesis.ring_design(p)
    with np.errstate(all="ignore"):
        primal, dual = analysis.costs(s), analysis.dual_lqg_cost(s)
    if not (np.isfinite(primal).all() and np.isfinite(dual)):
        raise analysis.not_finite_error((p.pi1, p.pi2, p.pi3, p.pi4), p.n)
    _, k = solve_ring(p, s.d)
    # the oracle's kind 1 is the filter's dual, whose gain is [lc, l0]
    closed_k = np.stack([np.stack([s.k0, s.kc], -1),
                         np.stack([s.lc, s.l0], -1)])
    closed_x = np.stack([symmetric_blocks(s.p1, s.p0, s.p2),
                         symmetric_blocks(s.s1, s.s0, s.s2)])
    res_max = backward_error(*ring_equations(p, s.d), closed_x).max()
    dual_dev = _rel_dev(primal[2], dual)
    absc = float(analysis.loop_poles(s).real.max())
    return [
        _at_most("per_frequency_gain_vs_dense_oracle",
                 _rel_dev(k, closed_k).max(), 1e-7),
        _at_most("closed_form_riccati_residual", res_max, 1e-9),
        _at_most("lqg_cost_dual_form_agreement", dual_dev, 1e-6),
        Check("closed_loop_spectral_abscissa", absc, 0.0, bool(absc < 0.0)),
    ]


def audit_gain_set(gs: synthesis.GainSet) -> list[Check]:
    """Consistency of a gain set with its own parameters.

    Checks the worst backward error of the 2x2 Riccati blocks its gain
    spectra imply, over all n frequencies, as the data of a file need not
    be mirror-symmetric (see :func:`~wavelqg.oracle.backward_error`), then
    that each block's first row carries the spectrum the set claims for it.
    """
    p = gs.params
    d = laplacian_spectrum(p.n)
    if gs.kind is synthesis.GainKind.LQR:  # the control Riccati blocks
        kind, (p0, p2) = 0, gs.spectra / p.pi3 ** 2  # from [k0, kc]
        x = symmetric_blocks(p2 * (gs.spectra[0] - d), p0, p2)
    else:  # the filter's dual: error covariances from [lc, l0]
        w = p.pi4 ** 2 * (1.0 - p.pi1 * d)
        kind, (s1, s0) = 1, p.pi4 * gs.spectra / w
        x = symmetric_blocks(s1, s0, s1 * (w * s0 - d))
    res = backward_error(*(e[kind] for e in ring_equations(p, d)), x)
    devs = np.abs(spectrum_of_circulant(gs.rows) - gs.spectra).max(axis=-1)
    scales = 1.0 + np.abs(gs.spectra).max(axis=-1)
    return [_at_most("spectral_gain_riccati_residual", res.max(), 1e-9),
            *(_at_most(f"block{i + 1}_rows_match_spectra", dev, 1e-8 * scale)
              for i, (dev, scale) in enumerate(zip(devs, scales)))]
