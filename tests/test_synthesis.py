"""Closed-form spectral gains, Riccati spectra, and circulant assembly."""

import json
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import circulant, offdiag_masses
from wavelqg.params import NondimParams
from wavelqg.spectral import laplacian_spectrum, rfft_half
from wavelqg.synthesis import (GainKind, GainSet, decentralization_tolerance,
                               design_spectra, gain_set_from_dict,
                               gain_set_to_dict, optimal_gains, ring_design)
from wavelqg.verify import audit_gain_set


def params(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30):
    return NondimParams(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4, n=n)


def random_params(rng, n, lo=1e-2, hi=1e2):
    pi = 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=4)
    return NondimParams(pi1=pi[0], pi2=pi[1], pi3=pi[2], pi4=pi[3], n=n)


def spectra(p):
    return design_spectra(p.pi1, p.pi2, p.pi3, p.pi4,
                          laplacian_spectrum(p.n), 1.0)


def mirrored(half, n):
    """An rfft half (last axis) extended to all n frequencies by
    vals[n - k] = vals[k]."""
    return np.concatenate([half, half[..., 1:(n + 1) // 2][..., ::-1]], -1)


def control_residual(p, k):
    """Max-abs residual of the per-frequency control Riccati block k."""
    d = laplacian_spectrum(p.n)[k]
    a = np.array([[0.0, 1.0], [d, 0.0]])
    b = np.array([[0.0], [1.0]])
    q = np.diag([1.0 - p.pi1 * d, p.pi2])
    r = spectra(p)
    pm = np.array([[r.p1[k], r.p0[k]], [r.p0[k], r.p2[k]]])
    res = a.T @ pm + pm @ a - p.pi3**2 * pm @ b @ b.T @ pm + q
    return np.abs(res).max()


def filter_residual(p, k):
    d = laplacian_spectrum(p.n)[k]
    a = np.array([[0.0, 1.0], [d, 0.0]])
    c = np.array([[p.pi4, 0.0]])
    w = np.diag([0.0, 1.0])
    v_inv = 1.0 - p.pi1 * d
    r = spectra(p)
    s = np.array([[r.s1[k], r.s0[k]], [r.s0[k], r.s2[k]]])
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
    r = spectra(p)
    got = {"k0": r.k0, "p0": r.p0, "l0": r.l0, "s0": r.s0}
    with mpmath.workdps(50):
        a1, a3, a4 = (mpmath.mpf(v) for v in (pi1, pi3, pi4))
        for k, dk in enumerate(laplacian_spectrum(n)):
            d = mpmath.mpf(dk)
            w = a4 ** 2 * (1 - a1 * d)
            k0 = d + mpmath.sqrt(d ** 2 + a3 ** 2 * (1 - a1 * d))
            ref = {"k0": k0, "p0": k0 / a3 ** 2,
                   "l0": d / a4 + mpmath.sqrt((d / a4) ** 2 - a1 * d + 1),
                   "s0": (d + mpmath.sqrt(d ** 2 + w)) / w}
            for name, value in ref.items():
                rel = abs((mpmath.mpf(got[name][k]) - value) / value)
                assert rel <= 1e-13, f"{name}[{k}] off by {float(rel):.2e}"


@pytest.mark.parametrize("pi1, pi34, below", [(0.0, 1e108, 1e107),
                                              (1e216, 1.0, 1e215)])
def test_underflowed_spectra_are_rejected(pi1, pi34, below):
    # every spectrum is positive in exact arithmetic; from these points
    # s1 = sqrt(2 s0 / w) underflows to 0, and lc and s2 with it
    with pytest.raises(ValueError, match="not positive and finite"):
        ring_design(params(pi1=pi1, pi3=pi34, pi4=pi34, n=4))
    pi1, pi34 = (below, pi34) if pi1 else (pi1, below)
    s = ring_design(params(pi1=pi1, pi3=pi34, pi4=pi34, n=4))
    assert min(getattr(s, f).min() for f in ("s1", "s2", "lc")) > 0.0


_FIELDS = ("p0", "p1", "p2", "k0", "kc", "s0", "s1", "s2", "l0", "lc")


def plain_spectra(pi1, pi2, pi3, pi4, d):
    """The ten spectra as the module docstring's expressions, one plain
    numpy expression each, batched like :func:`design_spectra`."""
    pi1, pi2, pi3, pi4 = (np.asarray(x, dtype=float)[..., None]
                          for x in (pi1, pi2, pi3, pi4))
    with np.errstate(all="ignore"):
        v = 1.0 - pi1 * d
        x = pi3 ** 2 * v
        k0 = x / (np.sqrt(d * d + x) - d)
        kc = np.sqrt(2.0 * k0 + pi2 * pi3 ** 2)
        p2 = kc / pi3 ** 2
        w = pi4 ** 2 * v
        s0 = 1.0 / (np.sqrt(d * d + w) - d)
        s1 = np.sqrt(2.0 * s0 / w)
        return dict(p0=k0 / pi3 ** 2, p1=p2 * (k0 - d), p2=p2, k0=k0, kc=kc,
                    s0=s0, s1=s1, s2=s1 * (w * s0 - d), l0=w * s0 / pi4,
                    lc=w * s1 / pi4)


def _draws(rng, exponent, shape):
    pi = 10.0 ** rng.uniform(-exponent, exponent, size=(4, *shape))
    pi[0] = np.where(rng.random(shape) < 0.2, 0.0, pi[0])
    return pi


@pytest.mark.parametrize("n", [2, 3, 8, 30, 128])
@pytest.mark.parametrize("shape", [(), (7,), (5, 6)],
                         ids=["point", "batch", "grid"])
@pytest.mark.parametrize("exponent", [2.0, 50.0], ids=["narrow", "wide"])
def test_spectra_are_bitwise_the_plain_expressions(n, shape, exponent):
    # pi in [1e-2, 1e2], and in [1e-50, 1e50], where every draw is accepted
    rng = np.random.default_rng(int(exponent) * 1000 + n * 10 + len(shape))
    d, mult = rfft_half(n)
    for _ in range(5):
        pi = _draws(rng, exponent, shape)
        s = design_spectra(*pi, d, mult)
        ref = plain_spectra(*pi, d)
        for name in _FIELDS:
            assert np.array_equal(getattr(s, name), ref[name]), name
        assert s.p0.shape == (*shape, d.size)


def test_spectra_are_the_plain_expressions_or_rejected():
    # single points over [1e-150, 1e150]: where every plain spectrum is
    # positive and finite the design equals them bitwise, and elsewhere
    # it is rejected
    rng = np.random.default_rng(31)
    rejected = 0
    for i in range(400):
        n = (2, 3, 8, 30, 128)[i % 5]
        pi = _draws(rng, 150.0, ())
        d, mult = rfft_half(n)
        ref = plain_spectra(*pi, d)
        if all(np.all((0.0 < a) & (a < np.inf)) for a in ref.values()):
            s = design_spectra(*pi, d, mult)
            for name in _FIELDS:
                assert np.array_equal(getattr(s, name), ref[name]), name
        else:
            rejected += 1
            with pytest.raises(ValueError, match="not positive and finite"):
                design_spectra(*pi, d, mult)
    assert 0 < rejected < 400


# One point per regime of the design_spectra docstring, at n = 4
_REJECTED = {
    "pi3-above-1e154": (0.0, 1.0, 1e155, 1.0),
    "pi3-below-1e-161": (0.0, 1.0, 1e-162, 1.0),
    "pi4-below-1e-102": (0.0, 1.0, 1.0, 1e-103),
    "s1-underflow-pi4-1e108": (0.0, 1.0, 1e108, 1e108),
    "s1-underflow-pi1-1e216": (1e216, 1.0, 1.0, 1.0),
}


def _named(point, n):
    return re.escape("pi=({:.6g}, {:.6g}, {:.6g}, {:.6g}), n={}".format(
        *point, n))


@pytest.mark.parametrize("bad", list(_REJECTED.values()), ids=list(_REJECTED))
def test_batch_rejection_names_its_only_failing_point(bad):
    # the block's min/max test fails; the per-point fallback must name the
    # one bad point in the middle of a 1-D batch and of a 2-D grid
    pi = np.tile(np.array([[0.5], [1.0], [4.0], [4.0]]), (1, 9))
    pi[:, 4] = bad
    with pytest.raises(ValueError, match=_named(bad, 4)):
        design_spectra(*pi, *rfft_half(4))
    with pytest.raises(ValueError, match=_named(bad, 4)):
        design_spectra(*pi.reshape(4, 3, 3), *rfft_half(4))


def test_per_frequency_closed_loops_are_hurwitz():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.choice([2, 4, 8, 16]))
        p = random_params(rng, n, lo=1e-1, hi=1e1)
        d = laplacian_spectrum(n)
        s = spectra(p)
        for k in range(n):
            a = np.array([[0.0, 1.0], [d[k], 0.0]])
            a_ctrl = a - np.outer([0.0, 1.0], [s.k0[k], s.kc[k]])
            a_filt = a - np.outer([s.lc[k], s.l0[k]], [p.pi4, 0.0])
            assert np.linalg.eigvals(a_ctrl).real.max() < 0.0
            assert np.linalg.eigvals(a_filt).real.max() < 0.0


def test_gain_at_zero_frequency():
    p = params(pi1=0.3, pi2=2.0, pi3=1.7, pi4=0.6, n=12)
    assert spectra(p).k0[0] == pytest.approx(p.pi3, rel=1e-14)
    assert spectra(p).l0[0] == pytest.approx(1.0, rel=1e-14)


def test_riccati_at_zero_frequency():
    p = params(pi1=0.3, pi2=2.0, pi3=1.7, pi4=0.6, n=12)
    r = spectra(p)
    assert r.p0[0] == pytest.approx(1.0 / p.pi3, rel=1e-14)
    assert r.p2[0] == pytest.approx(
        np.sqrt(2.0 / p.pi3 + p.pi2) / p.pi3, rel=1e-14)
    assert r.s0[0] == pytest.approx(1.0 / p.pi4, rel=1e-14)
    assert r.s1[0] == pytest.approx(np.sqrt(2.0 / p.pi4**3), rel=1e-14)


def test_frozen_control_values_n4():
    # kappa=1 of n=4 has d = -2; independently pinned in the solver tests
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=4)
    r = spectra(p)
    assert r.p0[1] == pytest.approx(0.2360679774997898, abs=1e-14)
    assert r.p2[1] == pytest.approx(1.2133160985495823, abs=1e-14)
    assert r.k0[1] == pytest.approx(np.sqrt(5) - 2, abs=1e-14)


def test_frozen_filter_values_n4():
    p = params(pi1=0.0, pi2=1.0, pi3=1.0, pi4=2.0, n=4)
    r = spectra(p)
    assert r.s0[1] == pytest.approx(0.20710678118654757, abs=1e-14)
    assert r.l0[1] == pytest.approx(np.sqrt(2) - 1, abs=1e-14)
    assert r.lc[1] == pytest.approx(0.6435942529055827, abs=1e-14)


def test_closed_form_gains_at_pi1_zero():
    p = params(pi1=0.0, pi2=1.0, pi3=2.3, pi4=1.7, n=16)
    d = laplacian_spectrum(16)
    r = spectra(p)
    np.testing.assert_allclose(r.k0, d + np.sqrt(d**2 + p.pi3**2),
                               rtol=1e-12)
    np.testing.assert_allclose(
        r.l0, d / p.pi4 + np.sqrt(d**2 / p.pi4**2 + 1.0), rtol=1e-12)


def test_filter_gain_identity():
    # sqrt(2 l0 / pi4) must equal s1 * pi4 * (1 - pi1 d): the simplification
    # the companion formula rests on
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng, 12, lo=1e-1, hi=1e1)
        d = laplacian_spectrum(12)
        w = p.pi4**2 * (1.0 - p.pi1 * d)
        r = spectra(p)
        np.testing.assert_allclose(r.s1 * w / p.pi4, r.lc, rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(2 * r.l0 / p.pi4), r.lc,
                                   rtol=1e-12)


def test_decentral_point_constants():
    p = params()  # pi1=0.5, pi3=pi4=4, pi2=1
    r = spectra(p)
    np.testing.assert_allclose(r.k0, 4.0, rtol=1e-13)
    np.testing.assert_allclose(r.kc, np.sqrt(24.0), rtol=1e-13)
    r2 = spectra(params(pi1=1.0, pi4=2.0))
    np.testing.assert_allclose(r2.l0, 1.0, rtol=1e-13)
    np.testing.assert_allclose(r2.lc, 1.0, rtol=1e-13)


def test_decentral_point_assembled_blocks():
    p = params(n=8)
    gk, _ = optimal_gains(p)
    k1, k2 = circulant(gk.rows)
    np.testing.assert_allclose(k1, 4.0 * np.eye(8), atol=1e-12)
    np.testing.assert_allclose(k2, np.sqrt(24) * np.eye(8), atol=1e-12)
    _, gl = optimal_gains(params(pi1=1.0, pi4=2.0, n=8))
    np.testing.assert_allclose(circulant(gl.rows), [np.eye(8)] * 2,
                               atol=1e-12)


def test_decentralization_iff_condition():
    for pi1 in (0.3, 0.4, 0.5, 0.6, 0.9):
        p = params(pi1=pi1, n=16)
        gk, gl = optimal_gains(p)
        on_curve = abs(pi1 - 2.0 / 4.0) <= decentralization_tolerance
        masses = offdiag_masses(np.concatenate([gk.rows, gl.rows]))
        if on_curve:
            assert np.all(masses <= 1e-10)
        else:
            assert np.all(masses > 1e-10)


def test_offdiag_mass_vanishes_only_at_the_crossing():
    # fixed pi3 slice: positive either side, shrinking toward the zero
    pi3 = 4.0
    masses = {}
    for pi1 in (0.3, 0.45, 0.5, 0.55, 0.7):
        p = params(pi1=pi1, pi3=pi3, n=16)
        gk, _ = optimal_gains(p)
        masses[pi1] = offdiag_masses(gk.rows[0])
    assert masses[0.5] <= 1e-12
    assert masses[0.45] > masses[0.5] and masses[0.55] > masses[0.5]
    assert masses[0.3] > masses[0.45] and masses[0.7] > masses[0.55]


@pytest.mark.parametrize("gain,attr", [("k0", "pi3"), ("l0", "pi4")])
def test_pi1_zero_never_constant(gain, attr):
    # no pi3 (resp. pi4) flattens the gain spectrum when pi1 = 0
    for value in np.logspace(-3, 3, 30):
        p = params(pi1=0.0, n=30, **{attr: value})
        g = getattr(spectra(p), gain)
        assert g.max() - g.min() > 0.0


def test_pi1_zero_offdiag_is_substantial():
    p = params(pi1=0.0, pi3=1.0, n=8)
    gk, _ = optimal_gains(p)
    assert offdiag_masses(gk.rows[0]) > 0.01


def test_optimal_gains_rows_equal_per_block_rows():
    # the four blocks come from one batched transform of the rfft half;
    # each must be the bitwise same row a lone transform of its half gives
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.choice([2, 3, 7, 8, 30, 64]))
        p = random_params(rng, n, lo=1e-6, hi=1e6)
        r = ring_design(p)
        gk, gl = optimal_gains(p)
        got = np.concatenate([gk.rows, gl.rows])
        for row, spec in zip(got, (r.k0, r.kc, r.lc, r.l0)):
            np.testing.assert_array_equal(row, np.fft.irfft(spec, n))
        np.testing.assert_array_equal(gk.spectra, mirrored(r.blocks[:2], n))
        np.testing.assert_array_equal(gl.spectra, mirrored(r.blocks[2:], n))


@pytest.mark.parametrize("n", [2, 3, 7, 8, 31, 64])
def test_gain_set_spectra_are_exactly_mirror_symmetric(n):
    p = random_params(np.random.default_rng(n), n, lo=1e-3, hi=1e3)
    k = np.arange(n)
    for gs in optimal_gains(p):
        assert gs.spectra.shape == (2, n)
        np.testing.assert_array_equal(gs.spectra[..., k],
                                      gs.spectra[..., (n - k) % n])


def test_gain_files_designed_on_all_n_frequencies_still_audit_clean():
    # gain sets designed on the full spectrum, whose k and n - k entries
    # differ by roundoff, with rows from the full inverse transform, as
    # earlier versions wrote them
    rng = np.random.default_rng(29)
    asymmetric = 0
    for _ in range(60):
        n = int(rng.choice([2, 3, 7, 8, 30, 64]))
        p = random_params(rng, n)
        full = spectra(p).blocks
        asymmetric += np.any(full != full[..., (-np.arange(n)) % n])
        rows = np.fft.ifft(full, axis=-1).real
        for i, kind in ((0, GainKind.LQR), (2, GainKind.KF)):
            gs = GainSet(rows=rows[i:i + 2], kind=kind, params=p,
                         spectra=full[i:i + 2])
            back = gain_set_from_dict(json.loads(json.dumps(
                gain_set_to_dict(gs))))
            assert all(c.ok for c in audit_gain_set(back)), (p, kind)
    assert asymmetric > 0


def test_gain_set_json_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = random_params(rng, int(rng.choice([2, 3, 7, 12, 30, 64])))
        for gs in optimal_gains(p):
            d = json.loads(json.dumps(gain_set_to_dict(gs)))
            back = gain_set_from_dict(d)
            assert back.kind == gs.kind
            assert back.params == gs.params
            np.testing.assert_array_equal(back.rows, gs.rows)
            np.testing.assert_array_equal(back.spectra, gs.spectra)
            assert all(c.ok for c in audit_gain_set(back)), (p, gs.kind)
            # serialized form is plain JSON types
            assert isinstance(d["block1_first_row"], list)
            assert set(d["pi"]) == {"pi1", "pi2", "pi3", "pi4"}


def test_gain_file_stores_primary_spectrum_as_k0():
    # the file schema: "k0" holds K1 for the regulator and L2 for the filter
    p = params(pi1=0.2, pi4=2.0, pi3=3.0, n=8)
    r = ring_design(p)
    gk, gl = optimal_gains(p)
    for gs, k0, companion in ((gk, r.k0, r.kc), (gl, r.l0, r.lc)):
        d = gain_set_to_dict(gs)
        assert d["spectral"]["k0"] == mirrored(k0, p.n).tolist()
        assert d["spectral"]["companion"] == mirrored(companion, p.n).tolist()


def test_audit_riccati_residual_clean_and_tampered():
    p = params(pi1=0.7, pi2=1.4, pi3=2.0, pi4=0.9, n=12)
    for gs in optimal_gains(p):
        check = audit_gain_set(gs)[0]
        assert check.name == "spectral_gain_riccati_residual"
        assert check.ok and check.value <= 1e-15
        d = gain_set_to_dict(gs)
        d["spectral"]["k0"][3] *= 1.05
        bad = audit_gain_set(gain_set_from_dict(d))[0]
        assert not bad.ok and bad.value > 1e-4


def test_kf_blocks_are_ordered_companion_then_l0():
    # off the curve l0 and companion differ, so block order is observable
    p = params(pi1=0.2, pi4=2.0, pi3=3.0, n=8)
    r = spectra(p)
    _, gl = optimal_gains(p)
    assert gl.kind is GainKind.KF
    h = ring_design(p)
    np.testing.assert_array_equal(gl.spectra,
                                  mirrored(np.stack([h.lc, h.l0]), p.n))
    got1, got2 = np.linalg.eigvals(circulant(gl.rows))
    assert np.isclose(np.sort(got1.real), np.sort(r.lc)).all()
    assert np.isclose(np.sort(got2.real), np.sort(r.l0)).all()
