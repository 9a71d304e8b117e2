"""Circulant-matrix algebra on the ring.

Every operator this package manipulates -- the periodic finite-difference
Laplacian and all regulator/filter gain blocks -- commutes with a cyclic
shift of the grid sites, i.e. is circulant.  A circulant is determined by
its first row and is diagonalized by the discrete Fourier transform, so all
heavy lifting reduces to arithmetic on eigenvalue sequences, held as plain
arrays indexed by frequency k.  A circulant itself is held as its first
row, a plain array; every function here takes a batch of rows or spectra
along the last axis.  No function here builds a dense matrix; the dense
references live with the tests.

Conventions
-----------
A circulant's dense realization puts its first row in row 0 and cyclically
shifts it right once per row, giving entry (i, j) = first_row[(j - i) mod n].
The eigenvalue attached to frequency k is then

    vals[k] = sum_j first_row[j] * exp(+2j*pi*k*j/n),

the eigenvalue of the Fourier mode exp(+2j*pi*k*j/n), the map
:func:`spectrum_of_circulant` computes.  A real first row gives vals[k] ==
conj(vals[n-k]); for the symmetric first rows produced everywhere in this
package the values are real and the sign of the exponent is immaterial.
Such a spectrum is fixed by its rfft half k = 0 .. n//2, on which every
per-frequency computation of the package runs, each k weighted in sums
by its multiplicity, both from :func:`rfft_half`; ``numpy.fft.irfft(half,
n)`` takes the half back to the first row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "laplacian_spectrum",
    "spectrum_of_circulant",
    "rfft_half",
    "offdiag_masses",
]

# Floor for the norm in offdiag_masses, so an all-zero spectrum reports
# mass 0 instead of dividing by zero.
_NORM_FLOOR = 1e-300

def laplacian_spectrum(n: int) -> np.ndarray:
    """Eigenvalues -4 sin(pi*k/n)**2 of the periodic second difference.

    All values lie in [-4, 0]; the sequence is symmetric under k -> n - k,
    and 0 appears only at k = 0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(n)
    return -4.0 * np.sin(np.pi * k / n) ** 2


def spectrum_of_circulant(rows: np.ndarray) -> np.ndarray:
    """Complex eigenvalues, indexed by frequency, of the circulants whose
    first rows run along the last axis, in the convention of the module
    docstring: the conjugate of numpy's forward FFT of the first row (the
    two coincide for symmetric first rows).
    """
    return np.conj(np.fft.fft(rows, axis=-1))


def rfft_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(d, mult)``: the ring's distinct Laplacian eigenvalues d(k), k = 0
    .. n//2, and how many of the n frequencies each stands for (k and
    n - k): (1, 2, ..., 2, 1) for even n and (1, 2, ..., 2) for odd n."""
    k = np.arange(n // 2 + 1)
    return (laplacian_spectrum(n)[:n // 2 + 1],
            np.where((k == 0) | (2 * k == n), 1.0, 2.0))


def offdiag_masses(vals: np.ndarray, mult) -> np.ndarray:
    """Relative l2 weight of the off-diagonal couplings of the circulants
    whose real eigenvalues run along the last axis of ``vals``, each
    counted ``mult`` times (1 for a full spectrum).  By Parseval, with
    mu = sum(mult vals) / n the diagonal entry, the first row r has
    n |r[1:]|**2 = off**2 = sum(mult (vals - mu)**2) and n |r|**2 =
    off**2 + n mu**2, so the mass is zero exactly when the feedback is
    decentralized.  Sums run along the last axis, so a row's mass does not
    depend on the batch, and only deviations from mu are squared."""
    n = np.broadcast_to(mult, vals.shape[-1:]).sum()
    mu = np.sum(mult * vals, axis=-1) / n
    off = np.sqrt(np.sum(mult * (vals - mu[..., None]) ** 2, axis=-1))
    return off / np.hypot(off, np.sqrt(n) * mu).clip(_NORM_FLOOR)
