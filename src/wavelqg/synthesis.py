"""Closed-form per-frequency Riccati solutions and gain assembly.

The plant is the spatially discretized wave equation on a ring of n sites,
written in first-order form with state (displacements, velocities).  Because
the dynamics, the cost and the noise model all commute with cyclic shifts,
the unitary DFT splits the 2n-dimensional Riccati equations into n
independent 2x2 problems, one per spatial frequency k, each involving only
the Laplacian eigenvalue

    d(k) = -4 sin(pi k / n)**2 .

Those 2x2 problems admit explicit roots, each built on one square root
per frequency.  With v = 1 - pi1 d, X = pi3**2 v and w = pi4**2 v, both
rationalized so that no term cancels (d <= 0):

    K1 spectrum  k0(k) = X / (sqrt(d**2 + X) - d)     (= d + sqrt(d**2 + X))
    K2 spectrum  kc(k) = sqrt(2 k0 + pi2 pi3**2)
    s0(k)              = 1 / (sqrt(d**2 + w) - d)     (the PSD root)

The control Riccati solution [[p1, p0], [p0, p2]] and the estimator error
covariance [[s1, s0], [s0, s2]] follow from the component equations,

    p0 = k0 / pi3**2      p2 = kc / pi3**2      p1 = p2 (k0 - d)
    s1 = sqrt(2 s0 / w)   s2 = s1 (w s0 - d)

and the injection gain L = [L1; L2] has spectra

    L2: l0(k) = w s0 / pi4 = d/pi4 + sqrt((d/pi4)**2 - pi1 d + 1)
    L1: lc(k) = w s1 / pi4 = sqrt(2 l0 / pi4) .

Both k0 and l0 become frequency-independent (all gains diagonal) exactly on
pi1 = 2/pi3 resp. pi1 = 2/pi4, where the square roots collapse to perfect
squares: k0 = pi3 and l0 = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import NondimParams
from .spectral import (Circulant, Spectrum, circulant_from_spectrum,
                       laplacian_spectrum)

__all__ = [
    "GainKind",
    "RiccatiKind",
    "RiccatiSpectrum",
    "SpectralGain",
    "GainSet",
    "DesignSpectra",
    "design_spectra",
    "lqr_riccati_spectrum",
    "lqr_spectral_gain",
    "kf_riccati_spectrum",
    "kf_spectral_gain",
    "assemble_gains",
    "decentralization_tolerance",
]

# |pi1 - 2/pi3| (resp. pi4) below this counts as exactly on the
# decentralization set when classifying parameter points.
decentralization_tolerance = 1e-12

# imaginary leakage allowed when turning symmetric spectra into first rows
IMAG_TOL = 1e-10


class GainKind(str, enum.Enum):
    LQR = "lqr"
    KF = "kf"


class RiccatiKind(str, enum.Enum):
    CONTROL = "control"
    FILTER = "filter"


@dataclass(frozen=True, eq=False)
class RiccatiSpectrum:
    """Per-frequency 2x2 Riccati solutions [[diag1, p0], [p0, diag2]](k)."""

    p0: np.ndarray
    diag1: np.ndarray
    diag2: np.ndarray
    kind: RiccatiKind

    @property
    def n(self) -> int:
        return self.p0.size

    def block(self, k: int) -> np.ndarray:
        """The dense 2x2 solution at frequency k."""
        return np.array([[self.diag1[k], self.p0[k]],
                         [self.p0[k], self.diag2[k]]])


@dataclass(frozen=True, eq=False)
class SpectralGain:
    """Frequency-wise gain pair.

    ``k0`` holds the primary sequence (regulator displacement gain, or
    filter velocity-update gain l0), ``companion`` the other block's
    sequence; both are real and strictly positive.
    """

    k0: np.ndarray
    companion: np.ndarray
    kind: GainKind

    @property
    def n(self) -> int:
        return self.k0.size


@dataclass(frozen=True, eq=False)
class GainSet:
    """Assembled circulant gain blocks.

    For the regulator, u = -(block1 @ displacements + block2 @ velocities);
    for the filter, the injection is [block1; block2] @ innovation.
    """

    block1: Circulant
    block2: Circulant
    kind: GainKind
    params: NondimParams
    spectral: SpectralGain


@dataclass(frozen=True, eq=False)
class DesignSpectra:
    """The spectra of the module docstring at a batch of parameter points;
    each array has the broadcast shape of the pi inputs plus a last axis
    over the n frequencies."""

    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    k0: np.ndarray
    kc: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    l0: np.ndarray
    lc: np.ndarray


def design_spectra(pi1, pi2, pi3, pi4, n: int) -> DesignSpectra:
    """Every spectrum for pi values broadcast over a batch, from one square
    root per frequency for the regulator and one for the filter."""
    pi1, pi2, pi3, pi4 = (np.asarray(x, dtype=float)[..., None]
                          for x in (pi1, pi2, pi3, pi4))
    d = laplacian_spectrum(n).values.real
    v = 1.0 - pi1 * d
    x = pi3 ** 2 * v
    k0 = x / (np.sqrt(d * d + x) - d)
    kc = np.sqrt(2.0 * k0 + pi2 * pi3 ** 2)
    p2 = kc / pi3 ** 2
    w = pi4 ** 2 * v
    s0 = 1.0 / (np.sqrt(d * d + w) - d)
    s1 = np.sqrt(2.0 * s0 / w)
    return DesignSpectra(
        p0=k0 / pi3 ** 2, p1=p2 * (k0 - d), p2=p2, k0=k0, kc=kc,
        s0=s0, s1=s1, s2=s1 * (w * s0 - d), l0=w * s0 / pi4, lc=w * s1 / pi4)


def lqr_riccati_spectrum(p: NondimParams) -> RiccatiSpectrum:
    """Stabilizing control Riccati solution, one 2x2 block per frequency."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    return RiccatiSpectrum(p0=s.p0, diag1=s.p1, diag2=s.p2,
                           kind=RiccatiKind.CONTROL)


def lqr_spectral_gain(p: NondimParams) -> SpectralGain:
    """Optimal state-feedback gain spectra (k0, sqrt(2 k0 + pi2 pi3**2))."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    return SpectralGain(k0=s.k0, companion=s.kc, kind=GainKind.LQR)


def kf_riccati_spectrum(p: NondimParams) -> RiccatiSpectrum:
    """Stabilizing filter error covariance, one 2x2 block per frequency."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    return RiccatiSpectrum(p0=s.s0, diag1=s.s1, diag2=s.s2,
                           kind=RiccatiKind.FILTER)


def kf_spectral_gain(p: NondimParams) -> SpectralGain:
    """Optimal injection gain spectra (l0, sqrt(2 l0 / pi4))."""
    s = design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, p.n)
    return SpectralGain(k0=s.l0, companion=s.lc, kind=GainKind.KF)


def assemble_gains(g: SpectralGain, p: NondimParams) -> GainSet:
    """Turn gain spectra into circulant first-row blocks.

    The spectra must be symmetric under k -> n - k (true of everything this
    module produces); otherwise the blocks would be complex and a
    :class:`~wavelqg.spectral.SymmetryError` is raised.
    """
    if g.n != p.n:
        raise ValueError(f"gain is for n={g.n}, parameters say n={p.n}")
    if g.kind is GainKind.LQR:
        spec1, spec2 = g.k0, g.companion
    else:
        # filter: block1 acts on the displacement estimate, and carries the
        # companion sequence; block2 carries l0
        spec1, spec2 = g.companion, g.k0
    block1 = circulant_from_spectrum(Spectrum(spec1), IMAG_TOL)
    block2 = circulant_from_spectrum(Spectrum(spec2), IMAG_TOL)
    return GainSet(block1=block1, block2=block2, kind=g.kind, params=p,
                   spectral=g)


def gain_are_residuals(gs: GainSet) -> np.ndarray:
    """Per-frequency Riccati residual of the gains in ``gs``.

    Reconstructs the 2x2 Riccati block each frequency's gain pair implies
    and returns the max-abs residual of its algebraic equation, so a gain
    file whose numbers were tampered with (or computed for other
    parameters) reports nonzero residuals.
    """
    p = gs.params
    d = laplacian_spectrum(p.n).values.real
    k0 = np.asarray(gs.spectral.k0, dtype=float)
    kc = np.asarray(gs.spectral.companion, dtype=float)
    if gs.kind is GainKind.LQR:
        p0 = k0 / p.pi3 ** 2
        p2 = kc / p.pi3 ** 2
        e11 = 2.0 * p0 * d - p.pi3 ** 2 * p0 ** 2 + (1.0 - p.pi1 * d)
        e22 = 2.0 * p0 - p.pi3 ** 2 * p2 ** 2 + p.pi2
    else:
        w = p.pi4 ** 2 * (1.0 - p.pi1 * d)
        s0 = p.pi4 * k0 / w
        s1 = p.pi4 * kc / w
        e11 = 2.0 * s0 - w * s1 ** 2
        e22 = 2.0 * d * s0 + 1.0 - w * s0 ** 2
    return np.maximum(np.abs(e11), np.abs(e22))


def gain_set_to_dict(gs: GainSet) -> dict:
    """JSON-ready description of a gain set (schema used by the CLI)."""
    return {
        "kind": gs.kind.value,
        "n": gs.params.n,
        "pi": {"pi1": gs.params.pi1, "pi2": gs.params.pi2,
               "pi3": gs.params.pi3, "pi4": gs.params.pi4},
        "block1_first_row": [float(x) for x in gs.block1.first_row],
        "block2_first_row": [float(x) for x in gs.block2.first_row],
        "spectral": {
            "k0": [float(x) for x in gs.spectral.k0],
            "companion": [float(x) for x in gs.spectral.companion],
        },
    }


def gain_set_from_dict(d: dict) -> GainSet:
    """Inverse of :func:`gain_set_to_dict`."""
    pi = d["pi"]
    p = NondimParams(pi1=pi["pi1"], pi2=pi["pi2"], pi3=pi["pi3"],
                     pi4=pi["pi4"], n=int(d["n"]))
    kind = GainKind(d["kind"])
    g = SpectralGain(k0=np.asarray(d["spectral"]["k0"], dtype=float),
                     companion=np.asarray(d["spectral"]["companion"],
                                          dtype=float),
                     kind=kind)
    return GainSet(block1=Circulant(np.asarray(d["block1_first_row"], float)),
                   block2=Circulant(np.asarray(d["block2_first_row"], float)),
                   kind=kind, params=p, spectral=g)


__all__ += ["gain_are_residuals", "gain_set_to_dict", "gain_set_from_dict"]
