"""Closed-form spectral gains, Riccati spectra, and circulant assembly."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelqg.params import NondimParams
from wavelqg.spectral import SymmetryError, laplacian_spectrum, offdiag_mass
from wavelqg.synthesis import (GainKind, SpectralGain, assemble_gains,
                               decentralization_tolerance,
                               gain_are_residuals, gain_set_from_dict,
                               gain_set_to_dict, kf_riccati_spectrum,
                               kf_spectral_gain, lqr_riccati_spectrum,
                               lqr_spectral_gain)


def params(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30):
    return NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)


def random_params(rng, n, lo=1e-2, hi=1e2):
    pi = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=4)
    return NondimParams(pi1=pi[0], pi2=pi[1], pi3=pi[2], pi4=pi[3], n=n)


def control_residual(p, k):
    """Max-abs residual of the per-frequency control Riccati block k."""
    d = laplacian_spectrum(p.n).values.real[k]
    a = np.array([[0.0, 1.0], [d, 0.0]])
    b = np.array([[0.0], [1.0]])
    q = np.diag([1.0 - p.pi1 * d, p.pi2])
    pm = lqr_riccati_spectrum(p).block(k)
    res = a.T @ pm + pm @ a - p.pi3**2 * pm @ b @ b.T @ pm + q
    return np.abs(res).max()


def filter_residual(p, k):
    d = laplacian_spectrum(p.n).values.real[k]
    a = np.array([[0.0, 1.0], [d, 0.0]])
    c = np.array([[p.pi4, 0.0]])
    w = np.diag([0.0, 1.0])
    v_inv = 1.0 - p.pi1 * d
    s = kf_riccati_spectrum(p).block(k)
    res = a @ s + s @ a.T + w - v_inv * s @ c.T @ c @ s
    return np.abs(res).max()


def test_riccati_residuals_small_everywhere():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.choice([2, 4, 8, 30, 64]))
        p = random_params(rng, n)
        worst = max(max(control_residual(p, k) for k in range(n)),
                    max(filter_residual(p, k) for k in range(n)))
        assert worst <= 1e-9, f"residual {worst:.2e} at {p}"


_WIDE_PI = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(pi1=st.one_of(st.just(0.0), _WIDE_PI), pi3=_WIDE_PI, pi4=_WIDE_PI,
       n=st.sampled_from([2, 3, 8, 30]))
def test_roots_match_50_digit_reference(pi1, pi3, pi4, n):
    # the textbook forms d + sqrt(d**2 + X) cancel in double precision when
    # X << d**2; evaluated with 50 digits they are an exact reference
    p = params(pi1=pi1, pi3=pi3, pi4=pi4, n=n)
    got = {"k0": lqr_spectral_gain(p).k0, "p0": lqr_riccati_spectrum(p).p0,
           "l0": kf_spectral_gain(p).k0, "s0": kf_riccati_spectrum(p).p0}
    with mpmath.workdps(50):
        a1, a3, a4 = (mpmath.mpf(v) for v in (pi1, pi3, pi4))
        for k, dk in enumerate(laplacian_spectrum(n).values.real):
            d = mpmath.mpf(dk)
            w = a4 ** 2 * (1 - a1 * d)
            k0 = d + mpmath.sqrt(d ** 2 + a3 ** 2 * (1 - a1 * d))
            ref = {"k0": k0, "p0": k0 / a3 ** 2,
                   "l0": d / a4 + mpmath.sqrt((d / a4) ** 2 - a1 * d + 1),
                   "s0": (d + mpmath.sqrt(d ** 2 + w)) / w}
            for name, value in ref.items():
                rel = abs((mpmath.mpf(got[name][k]) - value) / value)
                assert rel <= 1e-13, f"{name}[{k}] off by {float(rel):.2e}"


def test_per_frequency_closed_loops_are_hurwitz():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.choice([2, 4, 8, 16]))
        p = random_params(rng, n, lo=1e-1, hi=1e1)
        d = laplacian_spectrum(n).values.real
        kg = lqr_spectral_gain(p)
        fg = kf_spectral_gain(p)
        for k in range(n):
            a = np.array([[0.0, 1.0], [d[k], 0.0]])
            a_ctrl = a - np.outer([0.0, 1.0], [kg.k0[k], kg.companion[k]])
            a_filt = a - np.outer([fg.companion[k], fg.k0[k]],
                                  [p.pi4, 0.0])
            assert np.linalg.eigvals(a_ctrl).real.max() < 0.0
            assert np.linalg.eigvals(a_filt).real.max() < 0.0


def test_gain_at_zero_frequency():
    p = params(pi1=0.3, pi2=2.0, pi3=1.7, pi4=0.6, n=12)
    assert lqr_spectral_gain(p).k0[0] == pytest.approx(p.pi3, rel=1e-14)
    assert kf_spectral_gain(p).k0[0] == pytest.approx(1.0, rel=1e-14)


def test_riccati_at_zero_frequency():
    p = params(pi1=0.3, pi2=2.0, pi3=1.7, pi4=0.6, n=12)
    rc = lqr_riccati_spectrum(p)
    assert rc.p0[0] == pytest.approx(1.0 / p.pi3, rel=1e-14)
    assert rc.diag2[0] == pytest.approx(
        np.sqrt(2.0 / p.pi3 + p.pi2) / p.pi3, rel=1e-14)
    rf = kf_riccati_spectrum(p)
    assert rf.p0[0] == pytest.approx(1.0 / p.pi4, rel=1e-14)
    assert rf.diag1[0] == pytest.approx(np.sqrt(2.0 / p.pi4**3), rel=1e-14)


def test_frozen_control_values_n4():
    # kappa=1 of n=4 has d = -2; independently pinned in the solver tests
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=4)
    rc = lqr_riccati_spectrum(p)
    assert rc.p0[1] == pytest.approx(0.2360679774997898, abs=1e-14)
    assert rc.diag2[1] == pytest.approx(1.2133160985495823, abs=1e-14)
    assert lqr_spectral_gain(p).k0[1] == pytest.approx(np.sqrt(5) - 2,
                                                       abs=1e-14)


def test_frozen_filter_values_n4():
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=2.0, n=4)
    rf = kf_riccati_spectrum(p)
    assert rf.p0[1] == pytest.approx(0.20710678118654757, abs=1e-14)
    g = kf_spectral_gain(p)
    assert g.k0[1] == pytest.approx(np.sqrt(2) - 1, abs=1e-14)
    assert g.companion[1] == pytest.approx(0.6435942529055827, abs=1e-14)


def test_closed_form_gains_at_pi1_zero():
    p = params(pi1=0.0, pi2=1.0, pi3=2.3, pi4=1.7, n=16)
    d = laplacian_spectrum(16).values.real
    np.testing.assert_allclose(lqr_spectral_gain(p).k0,
                               d + np.sqrt(d**2 + p.pi3**2), rtol=1e-12)
    np.testing.assert_allclose(
        kf_spectral_gain(p).k0,
        d / p.pi4 + np.sqrt(d**2 / p.pi4**2 + 1.0), rtol=1e-12)


def test_filter_gain_identity():
    # sqrt(2 l0 / pi4) must equal s1 * pi4 * (1 - pi1 d): the simplification
    # the companion formula rests on
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng, 12, lo=1e-1, hi=1e1)
        d = laplacian_spectrum(12).values.real
        w = p.pi4**2 * (1.0 - p.pi1 * d)
        s1 = kf_riccati_spectrum(p).diag1
        g = kf_spectral_gain(p)
        np.testing.assert_allclose(s1 * w / p.pi4, g.companion, rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(2 * g.k0 / p.pi4), g.companion,
                                   rtol=1e-12)


def test_decentral_point_constants():
    p = params()  # pi1=0.5, pi3=pi4=4, pi2=1
    kg = lqr_spectral_gain(p)
    np.testing.assert_allclose(kg.k0, 4.0, rtol=1e-13)
    np.testing.assert_allclose(kg.companion, np.sqrt(24.0), rtol=1e-13)
    p2 = params(pi1=1.0, pi4=2.0)
    fg = kf_spectral_gain(p2)
    np.testing.assert_allclose(fg.k0, 1.0, rtol=1e-13)
    np.testing.assert_allclose(fg.companion, 1.0, rtol=1e-13)


def test_decentral_point_assembled_blocks():
    p = params(n=8)
    gk = assemble_gains(lqr_spectral_gain(p), p)
    np.testing.assert_allclose(gk.block1.dense(), 4.0 * np.eye(8),
                               atol=1e-12)
    np.testing.assert_allclose(gk.block2.dense(), np.sqrt(24) * np.eye(8),
                               atol=1e-12)
    p2 = params(pi1=1.0, pi4=2.0, n=8)
    gl = assemble_gains(kf_spectral_gain(p2), p2)
    np.testing.assert_allclose(gl.block1.dense(), np.eye(8), atol=1e-12)
    np.testing.assert_allclose(gl.block2.dense(), np.eye(8), atol=1e-12)


def test_decentralization_iff_condition():
    for pi1 in (0.3, 0.4, 0.5, 0.6, 0.9):
        p = params(pi1=pi1, n=16)
        gk = assemble_gains(lqr_spectral_gain(p), p)
        gl = assemble_gains(kf_spectral_gain(p), p)
        on_curve = abs(pi1 - 2.0 / 4.0) <= decentralization_tolerance
        for block in (gk.block1, gk.block2, gl.block1, gl.block2):
            if on_curve:
                assert offdiag_mass(block) <= 1e-10
            else:
                assert offdiag_mass(block) > 1e-10


def test_offdiag_mass_vanishes_only_at_the_crossing():
    # fixed pi3 slice: positive either side, shrinking toward the zero
    pi3 = 4.0
    masses = {}
    for pi1 in (0.3, 0.45, 0.5, 0.55, 0.7):
        p = params(pi1=pi1, pi3=pi3, n=16)
        gk = assemble_gains(lqr_spectral_gain(p), p)
        masses[pi1] = offdiag_mass(gk.block1)
    assert masses[0.5] <= 1e-12
    assert masses[0.45] > masses[0.5] and masses[0.55] > masses[0.5]
    assert masses[0.3] > masses[0.45] and masses[0.7] > masses[0.55]


@pytest.mark.parametrize("make_gain,attr", [
    (lqr_spectral_gain, "pi3"),
    (kf_spectral_gain, "pi4"),
])
def test_pi1_zero_never_constant(make_gain, attr):
    # no pi3 (resp. pi4) flattens the gain spectrum when pi1 = 0
    for value in np.logspace(-3, 3, 30):
        p = params(pi1=0.0, n=30, **{attr: value})
        k0 = make_gain(p).k0
        assert k0.max() - k0.min() > 0.0


def test_pi1_zero_offdiag_is_substantial():
    p = params(pi1=0.0, pi3=1.0, n=8)
    gk = assemble_gains(lqr_spectral_gain(p), p)
    assert offdiag_mass(gk.block1) > 0.01


def test_assemble_rejects_asymmetric_spectra():
    vals = np.arange(1.0, 9.0)  # not mirror symmetric
    g = SpectralGain(k0=vals, companion=vals + 10.0, kind=GainKind.LQR)
    with pytest.raises(SymmetryError):
        assemble_gains(g, params(n=8))


def test_assemble_checks_grid_size():
    p = params(n=8)
    g = lqr_spectral_gain(p)
    with pytest.raises(ValueError, match="n="):
        assemble_gains(g, params(n=16))


def test_gain_set_json_roundtrip():
    p = params(pi1=0.7, pi2=1.4, pi3=2.0, pi4=0.9, n=12)
    for make in (lqr_spectral_gain, kf_spectral_gain):
        gs = assemble_gains(make(p), p)
        d = gain_set_to_dict(gs)
        back = gain_set_from_dict(d)
        assert back.kind == gs.kind
        assert back.params == gs.params
        np.testing.assert_array_equal(back.block1.first_row,
                                      gs.block1.first_row)
        np.testing.assert_array_equal(back.spectral.k0, gs.spectral.k0)
        # serialized form is plain JSON types
        assert isinstance(d["block1_first_row"], list)
        assert set(d["pi"]) == {"pi1", "pi2", "pi3", "pi4"}


def test_gain_are_residuals_clean_and_tampered():
    p = params(pi1=0.7, pi2=1.4, pi3=2.0, pi4=0.9, n=12)
    for make in (lqr_spectral_gain, kf_spectral_gain):
        gs = assemble_gains(make(p), p)
        assert gain_are_residuals(gs).max() <= 1e-10
        d = gain_set_to_dict(gs)
        d["spectral"]["k0"][3] *= 1.05
        bad = gain_set_from_dict(d)
        assert gain_are_residuals(bad).max() > 1e-4


def test_kf_blocks_are_ordered_companion_then_l0():
    # off the curve l0 and companion differ, so block order is observable
    p = params(pi1=0.2, pi4=2.0, pi3=3.0, n=8)
    g = kf_spectral_gain(p)
    gl = assemble_gains(g, p)
    got1 = np.linalg.eigvals(gl.block1.dense())
    got2 = np.linalg.eigvals(gl.block2.dense())
    assert np.isclose(np.sort(got1.real), np.sort(g.companion)).all()
    assert np.isclose(np.sort(got2.real), np.sort(g.k0)).all()
