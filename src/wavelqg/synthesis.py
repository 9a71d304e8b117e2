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

Every spectrum depends on k only through d(k) = d(n - k), so the ring has
n//2 + 1 distinct blocks, those of the rfft half k = 0 .. n//2.
:func:`design_spectra` evaluates all of these at a batch of points and
any Laplacian eigenvalues d, which its record carries with the points and
multiplicities; :func:`optimal_gains` turns the K1, K2, L1 and L2 spectra
(in that order, :attr:`DesignSpectra.blocks`) of one point's design on
its ring's half, :func:`ring_design`, into the gain blocks' first rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import NondimParams
from .spectral import rfft_half

__all__ = [
    "GainKind",
    "GainSet",
    "DesignSpectra",
    "design_spectra",
    "ring_design",
    "optimal_gains",
    "decentralization_tolerance",
]

# |pi1 - 2/pi3| (resp. pi4) below this counts as exactly on the
# decentralization set when classifying parameter points.
decentralization_tolerance = 1e-12


class GainKind(str, enum.Enum):
    LQR = "lqr"
    KF = "kf"


@dataclass(frozen=True, eq=False)
class GainSet:
    """The two circulant gain blocks, as first rows.

    ``rows`` and ``spectra`` have shape (2, n): row i of each is the first
    row, resp. the spectrum over all n frequencies, of block i + 1.  A set
    from :func:`optimal_gains` has spectra[..., k] == spectra[..., n - k]
    exactly; one read from a file holds its data as given.  For the
    regulator, u = -(K1 @ displacements + K2 @ velocities); for the
    filter, the injection is [L1; L2] @ innovation.
    """

    rows: np.ndarray
    kind: GainKind
    params: NondimParams
    spectra: np.ndarray


@dataclass(frozen=True, eq=False)
class DesignSpectra:
    """The spectra of the module docstring at a batch of points ``pi1`` ..
    ``pi4``, held as given with a last axis of length 1; each spectrum has
    their broadcast shape but for a last axis over the eigenvalues ``d``,
    each standing for ``mult`` of the ring's frequencies (1 for all n)."""

    pi1: np.ndarray
    pi2: np.ndarray
    pi3: np.ndarray
    pi4: np.ndarray
    d: np.ndarray
    mult: np.ndarray
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

    @property
    def blocks(self) -> np.ndarray:
        """The K1, K2, L1, L2 spectra, stacked along a new second-to-last
        axis; the filter's L1 (acting on the displacement estimate) carries
        lc and its L2 carries l0."""
        return np.stack([self.k0, self.kc, self.lc, self.l0], axis=-2)


def design_spectra(pi1, pi2, pi3, pi4, d, mult) -> DesignSpectra:
    """Every spectrum for pi values broadcast over a batch, at the Laplacian
    eigenvalues ``d`` (the last axis of each result), each counted ``mult``
    times (:func:`~wavelqg.spectral.rfft_half`, or 1.0 for all n), from one
    square root per eigenvalue for the regulator and one for the filter.

    The ten spectra are written, in the order of the record's fields, into
    one block of shape (10, *batch, len(d)), and the fields are its rows.
    One min and one max over the block test it positive and finite (NaN
    fails both); only when that fails is a per-point mask built, to name
    n = sum(mult) and the first failing point in a ValueError.  Every
    spectrum is positive in exact arithmetic, so that happens only at the
    extremes: pi3 above 1e154 (less at large pi1 or pi2) or below 1e-161,
    pi4 below 1e-102, or s1 underflowing (pi4 > 1e108; pi1 > 1e216)."""
    mult = np.broadcast_to(mult, np.shape(d))
    pi1, pi2, pi3, pi4 = (np.asarray(x, dtype=float)[..., None]
                          for x in (pi1, pi2, pi3, pi4))
    block = np.empty((10, *np.broadcast_shapes(
        pi1.shape, pi2.shape, pi3.shape, pi4.shape, np.shape(d))))
    p0, p1, p2, k0, kc, s0, s1, s2, l0, lc = block
    # lc holds v = 1 - pi1 d and then w = pi4**2 v until its own turn, k0
    # holds x = pi3**2 v and kc the regulator's root; each value is the
    # expression of the module docstring, in its order of operations
    with np.errstate(all="ignore"):
        pi3sq, dd = pi3 ** 2, d * d
        v = np.subtract(1.0, np.multiply(pi1, d, out=lc), out=lc)
        x = np.multiply(pi3sq, v, out=k0)
        np.subtract(np.sqrt(np.add(dd, x, out=kc), out=kc), d, out=kc)
        np.divide(x, kc, out=k0)
        np.multiply(2.0, k0, out=kc)
        np.sqrt(np.add(kc, pi2 * pi3sq, out=kc), out=kc)
        np.divide(kc, pi3sq, out=p2)
        np.divide(k0, pi3sq, out=p0)
        np.multiply(p2, np.subtract(k0, d, out=p1), out=p1)
        w = np.multiply(pi4 ** 2, v, out=lc)
        np.subtract(np.sqrt(np.add(dd, w, out=s0), out=s0), d, out=s0)
        np.divide(1.0, s0, out=s0)
        np.sqrt(np.divide(np.multiply(2.0, s0, out=s1), w, out=s1), out=s1)
        np.multiply(s1, np.subtract(np.multiply(w, s0, out=s2), d, out=s2),
                    out=s2)
        np.divide(np.multiply(w, s0, out=l0), pi4, out=l0)
        np.divide(np.multiply(w, s1, out=lc), pi4, out=lc)
    if not (0.0 < block.min() and block.max() < np.inf):
        ok = ((0.0 < block) & (block < np.inf)).all(axis=(0, -1))
        pi = [np.broadcast_to(a[..., 0], ok.shape)[~ok][0]
              for a in (pi1, pi2, pi3, pi4)]
        raise ValueError("the design is not positive and finite in floating "
                         "point at pi=({:.6g}, {:.6g}, {:.6g}, {:.6g}), "
                         "n={:.0f}".format(*pi, mult.sum()))
    return DesignSpectra(pi1, pi2, pi3, pi4, d, mult,
                         p0, p1, p2, k0, kc, s0, s1, s2, l0, lc)


def ring_design(p: NondimParams) -> DesignSpectra:
    """The design at ``p`` on the rfft half of its ring."""
    return design_spectra(p.pi1, p.pi2, p.pi3, p.pi4, *rfft_half(p.n))


def optimal_gains(p: NondimParams) -> tuple[GainSet, GainSet]:
    """The optimal (regulator, filter) gain sets at ``p``, designed on the
    rfft half; the half is mirrored to the n frequencies of a set."""
    n = p.n
    half = ring_design(p).blocks
    rows = np.fft.irfft(half, n)
    k = np.arange(n)
    spectra = half[..., np.minimum(k, n - k)]
    return tuple(GainSet(rows=rows[i:i + 2], kind=kind, params=p,
                         spectra=spectra[i:i + 2])
                 for i, kind in ((0, GainKind.LQR), (2, GainKind.KF)))


# The file stores each kind's primary spectrum (K1, or the filter's L2)
# under "k0" and the other one under "companion"; this maps the file's
# (k0, companion) to block order and back.
_FILE_ORDER = {GainKind.LQR: [0, 1], GainKind.KF: [1, 0]}


def gain_set_to_dict(gs: GainSet) -> dict:
    """JSON-ready description of a gain set (schema used by the CLI)."""
    k0, companion = gs.spectra[_FILE_ORDER[gs.kind]]
    return {
        "kind": gs.kind.value,
        "n": gs.params.n,
        "pi": {"pi1": gs.params.pi1, "pi2": gs.params.pi2,
               "pi3": gs.params.pi3, "pi4": gs.params.pi4},
        "block1_first_row": [float(x) for x in gs.rows[0]],
        "block2_first_row": [float(x) for x in gs.rows[1]],
        "spectral": {
            "k0": [float(x) for x in k0],
            "companion": [float(x) for x in companion],
        },
    }


def gain_set_from_dict(d: dict) -> GainSet:
    """Inverse of :func:`gain_set_to_dict`.

    Raises ValueError naming, by its dotted path, a missing field or one
    that is not an object, a malformed pi value or ``n``, a ``kind`` that
    is not ``"lqr"`` or ``"kf"``, or the first array that does not hold
    ``n`` numbers.
    """
    def obj(name: str, value) -> dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, "
                             f"got {type(value).__name__}")
        return value

    def get(parent: dict, path: str):
        key = path.rpartition(".")[2]
        if key not in parent:
            raise ValueError(f"gain file has no field {path}")
        return parent[key]

    d = obj("gain file", d)
    pi = obj("gain file field pi", get(d, "pi"))
    p = NondimParams(*(get(pi, f"pi.pi{i}") for i in range(1, 5)),
                     n=get(d, "n"))
    kind = get(d, "kind")
    kinds = [k.value for k in GainKind]
    if kind not in kinds:
        raise ValueError(f"gain file field kind must be one of {kinds}, "
                         f"got {kind!r}")
    kind = GainKind(kind)

    def array(name: str, values) -> np.ndarray:
        try:
            a = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"gain file field {name} must hold n={p.n} "
                             f"numbers: {exc}") from None
        if a.shape != (p.n,):
            raise ValueError(f"gain file field {name} must hold n={p.n} "
                             f"numbers, got shape {a.shape}")
        return a

    spec = obj("gain file field spectral", get(d, "spectral"))
    spectra = np.stack([array(path, get(spec, path))
                        for path in ("spectral.k0", "spectral.companion")])
    rows = np.stack([array(path, get(d, path))
                     for path in ("block1_first_row", "block2_first_row")])
    return GainSet(rows=rows, kind=kind, params=p,
                   spectra=spectra[_FILE_ORDER[kind]])


__all__ += ["gain_set_to_dict", "gain_set_from_dict"]
