"""DFT layer, circulant algebra, and Laplacian spectrum tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelqg.spectral import (Circulant, Spectrum, SymmetryError,
                              circulant_from_spectrum, circulant_rows,
                              dft_forward, dft_inverse, dft_matrix,
                              laplacian_circulant, laplacian_spectrum,
                              offdiag_mass, offdiag_masses,
                              spectrum_of_circulant)


def test_dft_impulse_maps_to_constant():
    np.testing.assert_allclose(dft_forward([1, 0, 0, 0]),
                               [0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_dft_constant_maps_to_dc_only():
    np.testing.assert_allclose(dft_forward([1, 1, 1, 1]),
                               [2, 0, 0, 0], atol=1e-14)


def test_dft_roundtrip():
    f = np.array([3.0, 1.0, 4.0, 1.0])
    np.testing.assert_allclose(dft_inverse(dft_forward(f)).real, f,
                               atol=1e-12)


def test_dft_inverse_dc_only():
    np.testing.assert_allclose(dft_inverse([2, 0, 0, 0]).real,
                               [1, 1, 1, 1], atol=1e-14)


def test_conjugate_symmetric_input_gives_real_output():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(12)
    fhat = dft_forward(f)
    assert np.abs(dft_inverse(fhat).imag).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=256), st.integers())
def test_plancherel(n, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    lhs = np.dot(f, g)
    rhs = np.vdot(dft_forward(f), dft_forward(g)).real
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)


def test_dft_matrix_is_unitary():
    f = dft_matrix(16)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(16), atol=1e-12)


def test_laplacian_first_row():
    row = laplacian_circulant(8).first_row
    np.testing.assert_array_equal(row, [-2, 1, 0, 0, 0, 0, 0, 1])


def test_laplacian_n2_folds_wraparound():
    np.testing.assert_array_equal(laplacian_circulant(2).first_row, [-2, 2])


@pytest.mark.parametrize("n,expected", [
    (4, [0, -2, -4, -2]),
    (2, [0, -4]),
])
def test_laplacian_spectrum_small(n, expected):
    np.testing.assert_allclose(laplacian_spectrum(n).values.real, expected,
                               atol=1e-14)


def test_laplacian_spectrum_n30_k7():
    # cross-checked against a dense symmetric eigensolve below
    val = laplacian_spectrum(30).values.real[7]
    assert val == pytest.approx(-1.7909430734646932, abs=1e-13)
    dense_eigs = np.linalg.eigvalsh(laplacian_circulant(30).dense())
    assert np.min(np.abs(dense_eigs - val)) < 1e-12


def test_laplacian_spectrum_bounds_and_reflection():
    for n in (2, 3, 8, 31, 64):
        vals = laplacian_spectrum(n).values
        assert np.abs(vals.imag).max() == 0.0
        re = vals.real
        assert re.max() <= 0.0 and re.min() >= -4.0
        np.testing.assert_allclose(re, re[(-np.arange(n)) % n], atol=1e-14)


def test_spectrum_matches_laplacian_spectrum():
    got = spectrum_of_circulant(laplacian_circulant(4)).values
    np.testing.assert_allclose(got, [0, -2, -4, -2], atol=1e-14)


def test_identity_circulant_has_unit_spectrum():
    c = Circulant(np.array([1.0, 0, 0, 0, 0]))
    np.testing.assert_allclose(spectrum_of_circulant(c).values,
                               np.ones(5), atol=1e-14)


def test_diagonalization_against_dense_eigensolver():
    rng = np.random.default_rng(3)
    c = Circulant(rng.standard_normal(8))
    s = spectrum_of_circulant(c).values
    # eigenvalue multisets agree
    dense = np.linalg.eigvals(c.dense())
    key = lambda v: (np.round(v.real, 9), np.round(v.imag, 9))
    for a, b in zip(sorted(s, key=key), sorted(dense, key=key)):
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_dft_diagonalizes_random_circulant(n):
    rng = np.random.default_rng(n)
    c = Circulant(rng.standard_normal(n))
    f = dft_matrix(n)
    diag = f @ c.dense() @ f.conj().T
    target = np.diag(spectrum_of_circulant(c).values)
    assert np.abs(diag - target).max() <= 1e-10


def test_constant_spectrum_is_scaled_identity():
    s = Spectrum(np.full(6, 3.5, dtype=complex))
    row = circulant_from_spectrum(s).first_row
    np.testing.assert_allclose(row, [3.5, 0, 0, 0, 0, 0], atol=1e-13)


def test_laplacian_spectrum_inverts_to_first_row():
    row = circulant_from_spectrum(laplacian_spectrum(8)).first_row
    np.testing.assert_allclose(row, [-2, 1, 0, 0, 0, 0, 0, 1], atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers())
def test_spectrum_roundtrip(seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    c = Circulant(rng.standard_normal(16))
    back = circulant_from_spectrum(spectrum_of_circulant(c))
    np.testing.assert_allclose(back.first_row, c.first_row, atol=1e-12)


def test_non_mirror_spectrum_is_rejected():
    vals = np.zeros(4, dtype=complex)
    vals[1] = 1j  # would need vals[3] == -1j
    with pytest.raises(SymmetryError):
        circulant_from_spectrum(Spectrum(vals))


def test_batched_rows_match_single_and_reject_one_bad_sequence():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, 8))
    spectra = np.stack([spectrum_of_circulant(Circulant(r)).values
                        for r in rows])
    got = circulant_rows(spectra)
    np.testing.assert_allclose(got, rows, atol=1e-12)
    np.testing.assert_allclose(
        offdiag_masses(got), [offdiag_mass(Circulant(r)) for r in got],
        rtol=1e-15)
    spectra[1, 2] += 1.0  # only the middle sequence loses its mirror
    with pytest.raises(SymmetryError):
        circulant_rows(spectra)


@pytest.mark.parametrize("row,expected", [
    ([5, 0, 0, 0], 0.0),
    ([0, 1, 0, 0], 1.0),
    ([1, 1, 0, 0], 1 / np.sqrt(2)),
])
def test_offdiag_mass(row, expected):
    assert offdiag_mass(Circulant(np.array(row, dtype=float))) == \
        pytest.approx(expected, abs=1e-12)


def test_offdiag_mass_zero_matrix():
    assert offdiag_mass(Circulant(np.zeros(4))) == 0.0


def test_circulant_needs_two_sites():
    with pytest.raises(ValueError):
        Circulant(np.array([1.0]))


def test_circulant_commutes_with_cyclic_shift():
    rng = np.random.default_rng(11)
    c = Circulant(rng.standard_normal(6)).dense()
    shift = np.roll(np.eye(6), 1, axis=1)
    np.testing.assert_allclose(c @ shift, shift @ c, atol=1e-14)


def test_circulant_first_row_is_immutable():
    c = Circulant(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        c.first_row[0] = 9.0


def test_dense_layout():
    c = Circulant(np.array([10.0, 20.0, 30.0]))
    expected = np.array([[10, 20, 30], [30, 10, 20], [20, 30, 10]],
                        dtype=float)
    np.testing.assert_array_equal(c.dense(), expected)
