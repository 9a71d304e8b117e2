"""Parameter groups, nondimensionalization, and locality residuals."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelqg.params import (DimensionalParams, NondimParams,
                            locality_residuals, nondimensionalize)


def dims(**overrides):
    base = dict(c=1.0, dx=1.0, n=8, q1=1.0, q2=1.0, r=1.0,
                sigma_m=1.0, sigma_d=1.0, alpha=0.0)
    base.update(overrides)
    return DimensionalParams(**base)


def test_all_ones_case():
    p = nondimensionalize(dims())
    assert (p.pi1, p.pi2, p.pi3, p.pi4) == (0.0, 1.0, 1.0, 1.0)
    assert p.n == 8


def test_locality_condition_from_physical_inputs():
    # alpha^2 * sigma_d / (c^2 * sigma_m) = 2 with q1=sigma_m, r=sigma_d
    p = nondimensionalize(dims(sigma_d=2.0, r=2.0, alpha=1.0))
    assert p.pi1 == 1.0
    assert p.pi4 == 2.0
    assert locality_residuals(p) == (0.0, 0.0)


def test_pi3_direct_substitution():
    p = nondimensionalize(dims(c=2.0, r=8.0))
    assert p.pi3 == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("pi1,pi3,pi4,expected", [
    (0.5, 4.0, 4.0, (0.0, 0.0)),
    (1.0, 2.0, 4.0, (0.0, 0.5)),
])
def test_locality_residuals(pi1, pi3, pi4, expected):
    p = NondimParams(pi1=pi1, pi2=1.0, pi3=pi3, pi4=pi4, n=8)
    got = locality_residuals(p)
    assert got[0] == pytest.approx(expected[0], abs=1e-15)
    assert got[1] == pytest.approx(expected[1], abs=1e-15)


@pytest.mark.parametrize("pi3", [0.1, 1.0, 7.3, 1e3])
def test_pi1_zero_residuals_never_vanish(pi3):
    p = NondimParams(pi1=0.0, pi2=1.0, pi3=pi3, pi4=2 * pi3, n=8)
    res_k, res_l = locality_residuals(p)
    assert res_k == -2.0 / pi3
    assert res_l == -1.0 / pi3
    assert res_k != 0.0 and res_l != 0.0


positive = st.floats(min_value=0.1, max_value=10.0)


@settings(max_examples=60, deadline=None)
@given(c=positive, dx=positive, q1=positive, q2=positive, r=positive,
       sm=positive, sd=positive, alpha=st.floats(min_value=0.0, max_value=5.0),
       lam_s=positive, lam_len=positive, lam_t=positive)
def test_groups_invariant_under_unit_rescaling(c, dx, q1, q2, r, sm, sd,
                                               alpha, lam_s, lam_len, lam_t):
    base = DimensionalParams(c=c, dx=dx, n=8, q1=q1, q2=q2, r=r,
                             sigma_m=sm, sigma_d=sd, alpha=alpha)
    scaled = DimensionalParams(
        c=c * lam_len / lam_t, dx=dx * lam_len, n=8,
        q1=q1 * lam_s, q2=q2 * lam_s / lam_t, r=r * lam_s / lam_t**2,
        sigma_m=sm * lam_s, sigma_d=sd * lam_s / lam_t**2,
        alpha=alpha * lam_len)
    a, b = nondimensionalize(base), nondimensionalize(scaled)
    for name in ("pi1", "pi2", "pi3", "pi4"):
        va, vb = getattr(a, name), getattr(b, name)
        assert abs(va - vb) <= 1e-12 * max(abs(va), 1.0)


def test_pi1_depends_only_on_alpha_over_dx():
    a = nondimensionalize(dims(alpha=0.7))
    b = nondimensionalize(dims(c=3.0, dx=3.0, alpha=2.1))
    assert a.pi1 == pytest.approx(b.pi1, rel=1e-14)


@pytest.mark.parametrize("field,value", [
    ("c", 0.0), ("dx", -1.0), ("q1", 0.0), ("q2", 0.0), ("r", -2.0),
    ("sigma_m", 0.0), ("sigma_d", 0.0), ("alpha", -0.1),
    ("c", float("nan")), ("dx", float("inf")),
])
def test_dimensional_validation_names_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        dims(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("pi1", -0.5), ("pi2", 0.0), ("pi3", -1.0), ("pi4", 0.0),
    ("pi2", float("nan")),
])
def test_nondim_validation_names_the_field(field, value):
    kwargs = dict(pi1=0.5, pi2=1.0, pi3=1.0, pi4=1.0, n=8)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        NondimParams(**kwargs)


@pytest.mark.parametrize("n", [1, 0, -3, 2.5, True])
def test_grid_size_validation(n):
    with pytest.raises(ValueError, match="n"):
        NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=n)


def test_dict_roundtrips():
    # valid sets pass through JSON (configs, gain files) unchanged
    d = dims(alpha=0.3, sigma_d=2.5)
    assert DimensionalParams(**json.loads(json.dumps(asdict(d)))) == d
    p = NondimParams(pi1=0.5, pi2=1.0, pi3=4.0, pi4=4.0, n=30)
    assert NondimParams(**json.loads(json.dumps(asdict(p)))) == p


def test_pi1_zero_admitted():
    p = NondimParams(pi1=0.0, pi2=1.0, pi3=1.0, pi4=1.0, n=4)
    assert p.pi1 == 0.0
