"""Circulant algebra and Laplacian spectrum tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
from dense import circulant, laplacian
from wavelqg.spectral import (laplacian_spectrum, offdiag_masses, rfft_half,
                              spectrum_of_circulant)


def test_laplacian_first_row():
    row = laplacian(8)[0]
    np.testing.assert_array_equal(row, [-2, 1, 0, 0, 0, 0, 0, 1])


def test_laplacian_n2_folds_wraparound():
    np.testing.assert_array_equal(laplacian(2), [[-2, 2], [2, -2]])


@pytest.mark.parametrize("n,expected", [
    (4, [0, -2, -4, -2]),
    (2, [0, -4]),
])
def test_laplacian_spectrum_small(n, expected):
    np.testing.assert_allclose(laplacian_spectrum(n), expected, atol=1e-14)


def test_laplacian_spectrum_n30_k7():
    # cross-checked against a dense symmetric eigensolve below
    val = laplacian_spectrum(30)[7]
    assert val == pytest.approx(-1.7909430734646932, abs=1e-13)
    dense_eigs = np.linalg.eigvalsh(laplacian(30))
    assert np.min(np.abs(dense_eigs - val)) < 1e-12


def test_laplacian_spectrum_bounds_and_reflection():
    for n in (2, 3, 8, 31, 64):
        vals = laplacian_spectrum(n)
        assert vals.dtype == np.float64
        assert vals.max() <= 0.0 and vals.min() >= -4.0
        np.testing.assert_allclose(vals, vals[(-np.arange(n)) % n],
                                   atol=1e-14)


def test_spectrum_matches_laplacian_spectrum():
    got = spectrum_of_circulant(laplacian(4)[0])
    np.testing.assert_allclose(got, [0, -2, -4, -2], atol=1e-14)


def test_identity_circulant_has_unit_spectrum():
    row = np.array([1.0, 0, 0, 0, 0])
    np.testing.assert_allclose(spectrum_of_circulant(row), np.ones(5),
                               atol=1e-14)


def test_diagonalization_against_dense_eigensolver():
    rng = np.random.default_rng(3)
    row = rng.standard_normal(8)
    s = spectrum_of_circulant(row)
    # eigenvalue multisets agree
    dense = np.linalg.eigvals(circulant(row))
    key = lambda v: (np.round(v.real, 9), np.round(v.imag, 9))
    for a, b in zip(sorted(s, key=key), sorted(dense, key=key)):
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_dft_diagonalizes_random_circulant(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n)
    k = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)  # unitary DFT
    diag = f @ circulant(row) @ f.conj().T
    target = np.diag(spectrum_of_circulant(row))
    assert np.abs(diag - target).max() <= 1e-10


# The package takes an rfft half of a spectrum back to its first row with
# numpy.fft.irfft(half, n); these tests hold that inverse to the
# eigenvalue convention of spectrum_of_circulant.

def test_constant_spectrum_is_scaled_identity():
    row = np.fft.irfft(np.full(4, 3.5), 6)
    np.testing.assert_allclose(row, [3.5, 0, 0, 0, 0, 0], atol=1e-13)


def test_laplacian_spectrum_inverts_to_first_row():
    row = np.fft.irfft(laplacian_spectrum(8)[:5], 8)
    np.testing.assert_allclose(row, [-2, 1, 0, 0, 0, 0, 0, 1], atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(), st.integers(2, 17))
def test_spectrum_roundtrip(seed, n):
    # a symmetric first row, through its spectrum's rfft half and back
    rng = np.random.default_rng(abs(seed) % 2**32)
    row = rng.standard_normal(n)
    row = (row + row[(-np.arange(n)) % n]) / 2.0
    back = np.fft.irfft(spectrum_of_circulant(row)[:n // 2 + 1], n)
    np.testing.assert_allclose(back, row, atol=1e-12)


def test_batched_rows_match_single():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, 8))
    rows = (rows + rows[:, (-np.arange(8)) % 8]) / 2.0
    spectra = spectrum_of_circulant(rows)
    np.testing.assert_array_equal(
        spectra, np.stack([spectrum_of_circulant(r) for r in rows]))
    np.testing.assert_array_equal(
        circulant(rows), np.stack([circulant(r) for r in rows]))
    got = np.fft.irfft(spectra[:, :5], 8)
    np.testing.assert_array_equal(
        got, np.stack([np.fft.irfft(v, 8) for v in spectra[:, :5]]))
    np.testing.assert_allclose(got, rows, atol=1e-12)
    np.testing.assert_allclose(
        dense.offdiag_masses(got), [dense.offdiag_masses(r) for r in got],
        rtol=1e-15)


@pytest.mark.parametrize("row,expected", [
    ([5, 0, 0, 0], 0.0),
    ([0, 1, 0, 0], 1.0),
    ([1, 1, 0, 0], 1 / np.sqrt(2)),
])
def test_offdiag_mass(row, expected):
    assert dense.offdiag_masses(np.array(row, dtype=float)) == \
        pytest.approx(expected, abs=1e-12)


def test_offdiag_mass_zero_matrix():
    assert dense.offdiag_masses(np.zeros(4)) == 0.0


@pytest.mark.parametrize("n,expected", [
    (2, [1, 1]), (3, [1, 2]), (4, [1, 2, 1]), (5, [1, 2, 2]),
    (8, [1, 2, 2, 2, 1]), (9, [1, 2, 2, 2, 2]),
])
def test_rfft_multiplicities(n, expected):
    d, mult = rfft_half(n)
    np.testing.assert_array_equal(d, laplacian_spectrum(n)[:n // 2 + 1])
    np.testing.assert_array_equal(mult, expected)
    assert mult.sum() == n
    # simulate's Parseval weights are their square roots, bit for bit
    assert set(np.sqrt(mult).tolist()) <= {1.0, math.sqrt(2.0)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 30, 31])
def test_offdiag_masses_of_spectra_match_the_row_space_masses(n):
    # symmetric first rows have real spectra; their masses by Parseval,
    # from the full spectrum or from its rfft half, are the rows' masses
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((5, n))
    rows[1:] = (rows[1:] + rows[1:, (-np.arange(n)) % n]) / 2.0
    rows[0] = 0.0
    rows[1, 1:] *= 1e-9  # nearly diagonal
    vals = spectrum_of_circulant(rows).real
    ref = dense.offdiag_masses(rows)
    half, mult = vals[:, :n // 2 + 1], rfft_half(n)[1]
    for got in (offdiag_masses(vals, 1.0), offdiag_masses(half, mult)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    assert offdiag_masses(vals, 1.0)[0] == 0.0
    assert offdiag_masses(np.full(n, 3.5), 1.0) == 0.0
    np.testing.assert_array_equal(offdiag_masses(half, mult),
                                  [offdiag_masses(v, mult) for v in half])


def test_circulant_commutes_with_cyclic_shift():
    rng = np.random.default_rng(11)
    c = circulant(rng.standard_normal(6))
    shift = np.roll(np.eye(6), 1, axis=1)
    np.testing.assert_allclose(c @ shift, shift @ c, atol=1e-14)


def test_dense_layout():
    row = np.array([10.0, 20.0, 30.0])
    expected = np.array([[10, 20, 30], [30, 10, 20], [20, 30, 10]],
                        dtype=float)
    np.testing.assert_array_equal(circulant(row), expected)
