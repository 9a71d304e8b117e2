"""Circulant-matrix algebra on the ring, built on the unitary DFT.

Every operator this package manipulates -- the periodic finite-difference
Laplacian and all regulator/filter gain blocks -- commutes with a cyclic
shift of the grid sites, i.e. is circulant.  A circulant is determined by
its first row and is diagonalized by the discrete Fourier transform, so all
heavy lifting reduces to arithmetic on length-n eigenvalue sequences.  This
module holds that shared machinery.

Conventions
-----------
The DFT is the unitary one,

    fhat[k] = n**-0.5 * sum_j f[j] * exp(-2j*pi*k*j/n),

so Parseval/Plancherel holds without extra factors.  Frequencies are indexed
k = 0..n-1.  A circulant's dense realization puts its first row in row 0 and
cyclically shifts it right once per row, giving entry (i, j) = first_row[(j -
i) mod n].  With F the unitary DFT matrix, F C F^-1 is then diagonal and its
k-th entry is sum_j first_row[j] * exp(+2j*pi*k*j/n); for the symmetric first
rows produced everywhere in this package the sign of the exponent is
immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetryError",
    "Circulant",
    "Spectrum",
    "dft_forward",
    "dft_inverse",
    "dft_matrix",
    "laplacian_spectrum",
    "laplacian_circulant",
    "spectrum_of_circulant",
    "circulant_rows",
    "circulant_from_spectrum",
    "offdiag_masses",
    "offdiag_mass",
]

# Floor for the norm in offdiag_mass, so an all-zero row reports mass 0
# instead of dividing by zero.
_NORM_FLOOR = 1e-300


class SymmetryError(ValueError):
    """A spectrum lacks the conjugate symmetry a real circulant requires."""


@dataclass(frozen=True, eq=False)
class Circulant:
    """A real n-by-n circulant matrix stored by its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        row = np.atleast_1d(np.asarray(self.first_row, dtype=float))
        if row.ndim != 1:
            raise ValueError("first_row must be one-dimensional")
        if row.size < 2:
            raise ValueError("first_row needs n >= 2 entries")
        row = row.copy()
        row.flags.writeable = False
        object.__setattr__(self, "first_row", row)

    @property
    def n(self) -> int:
        return self.first_row.size

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (tests, oracle checks, small n only)."""
        n = self.n
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return self.first_row[idx]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a circulant, indexed by frequency k = 0..n-1."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if vals.size < 2:
            raise ValueError("values needs n >= 2 entries")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


def dft_forward(f) -> np.ndarray:
    """Unitary DFT: fhat[k] = n**-0.5 * sum_j f[j] exp(-2j*pi*k*j/n)."""
    f = np.asarray(f)
    return np.fft.fft(f) / np.sqrt(f.shape[-1])


def dft_inverse(fhat) -> np.ndarray:
    """Inverse of :func:`dft_forward` (also unitary)."""
    fhat = np.asarray(fhat, dtype=complex)
    return np.fft.ifft(fhat) * np.sqrt(fhat.shape[-1])


def dft_matrix(n: int) -> np.ndarray:
    """The unitary DFT matrix F with F[k, j] = n**-0.5 exp(-2j*pi*k*j/n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def laplacian_circulant(n: int) -> Circulant:
    """Periodic second-difference operator: first row [-2, 1, 0, ..., 0, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    row = np.zeros(n)
    row[0] = -2.0
    row[1] += 1.0
    row[-1] += 1.0  # n == 2 folds both neighbors onto the same site
    return Circulant(row)


def laplacian_spectrum(n: int) -> Spectrum:
    """Eigenvalues -4 sin(pi*k/n)**2 of the periodic second difference.

    All values lie in [-4, 0]; the sequence is symmetric under k -> n - k,
    and 0 appears only at k = 0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(n)
    return Spectrum(-4.0 * np.sin(np.pi * k / n) ** 2 + 0j)


def spectrum_of_circulant(c: Circulant) -> Spectrum:
    """Eigenvalues of ``c`` ordered so that F C F^-1 = diag(values).

    With the first-row storage convention the eigenvalue attached to
    frequency k is sum_j first_row[j] * exp(+2j*pi*k*j/n), the conjugate of
    the forward DFT (they coincide for symmetric first rows).
    """
    return Spectrum(np.conj(np.fft.fft(c.first_row)))


def circulant_rows(vals: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """First rows of the real circulants whose eigenvalues run along the
    last axis of ``vals`` (leading axes are a batch).

    Raises :class:`SymmetryError` if a sequence is not conjugate-symmetric
    (vals[k] == conj(vals[n-k])), since no real matrix then exists.
    """
    n = vals.shape[-1]
    mirrored = np.conj(vals[..., (-np.arange(n)) % n])
    scale = 1.0 + np.abs(vals).max(axis=-1)
    if np.any(np.abs(vals - mirrored).max(axis=-1) > tol * scale):
        raise SymmetryError(
            "spectrum is not conjugate-symmetric; no real circulant matches it")
    row = np.fft.ifft(np.conj(vals), axis=-1)
    if np.any(np.abs(row.imag).max(axis=-1) > tol * scale):
        raise SymmetryError("inverse transform produced a non-real first row")
    return row.real


def circulant_from_spectrum(s: Spectrum, tol: float = 1e-9) -> Circulant:
    """The real circulant whose eigenvalue sequence is ``s``; see
    :func:`circulant_rows`."""
    return Circulant(circulant_rows(s.values, tol))


def offdiag_masses(rows: np.ndarray) -> np.ndarray:
    """:func:`offdiag_mass` of each first row along the last axis."""
    off = np.sqrt(np.sum(rows[..., 1:] ** 2, axis=-1))
    return off / np.maximum(np.sqrt(np.sum(rows ** 2, axis=-1)), _NORM_FLOOR)


def offdiag_mass(c: Circulant) -> float:
    """Relative l2 weight of the off-diagonal couplings of ``c``.

    Zero exactly when the matrix is a multiple of the identity, i.e. when
    the feedback it represents is completely decentralized.
    """
    return float(offdiag_masses(c.first_row))
