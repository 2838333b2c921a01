"""Unit tests for the actuator model construction."""

import numpy as np
import pytest

from dataclasses import replace

from seakit import (
    RationalTF,
    SeaModel,
    SeaParams,
    build_plant,
    default_params,
    to_state_space,
)


def test_default_parameter_values():
    p = default_params()
    assert p.j_a == 6.90e-4
    assert p.b_f == 0.0059
    assert p.k_s == 0.0484
    assert p.r_winch == 7.25e-3
    assert p.k_g == 14.0
    assert p.k_pv == 0.0457
    assert p.k_iv == 1.3455


def test_plant_coefficients_follow_from_parameters():
    """P = Ks(Kpv s + Kiv) / (Ja s^3 + (bf+Kpv) s^2 + (Ks+Kiv) s)."""
    p = default_params()
    m = build_plant(p)
    np.testing.assert_allclose(
        m.P.num.coeffs, np.array([p.k_s * p.k_pv, p.k_s * p.k_iv]) / p.j_a
    )
    np.testing.assert_allclose(
        m.P.den.coeffs,
        np.array([p.j_a, p.b_f + p.k_pv, p.k_s + p.k_iv, 0.0]) / p.j_a,
    )


def test_plant_structure():
    m = build_plant(default_params())
    assert m.P.is_strictly_proper()
    assert m.P.den.coeffs[-1] == 0.0  # velocity-integration pole at s = 0
    # the motion-coupling path shares the actuator dynamics: den(P) = s den(G)
    np.testing.assert_array_equal(m.P.den.coeffs[:-1], m.G.den.coeffs)
    assert m.G.num.degree == m.G.den.degree  # biproper, D = -Ks
    assert np.isclose(m.G.num.coeffs[0], -default_params().k_s)


def test_motion_coupling_high_frequency_gain():
    # at high frequency the spring dominates: G -> -Ks
    m = build_plant(default_params())
    assert np.isclose(m.G(1e6j).real, -default_params().k_s, rtol=1e-4)


def test_default_stiffness_is_double_spring():
    # two nominally identical springs act in parallel on the winch
    assert np.isclose(default_params().k_s, 2.0 * 0.0242)


def test_model_requires_shared_actuator_factor():
    # build_plant meets den(P) = s den(G) coefficient for coefficient, also
    # where j_a * (1 / j_a) rounds below 1, and the pair realizes as one block
    for j_a in (6.9e-4, 5.61e-4):
        m = build_plant(replace(default_params(), j_a=j_a))
        SeaModel(P=m.P, G=m.G, params=m.params)
        s_over_s = RationalTF([1.0, 0.0], [1.0, 0.0])
        assert to_state_space(m.P, m.G * s_over_s).order == 3
    m = build_plant(default_params())
    # a G with its own dynamics, a P without the integrator, and a den(G)
    # off by one ulp in one coefficient all break the shared factor
    other_g = RationalTF(m.G.num, [1.0, 2.0, 3.0])
    no_integrator = RationalTF(m.P.num, m.P.den.coeffs[:-1])
    bumped = m.G.den.coeffs.copy()
    bumped[1] = np.nextafter(bumped[1], np.inf)
    for p, g in ((m.P, other_g), (no_integrator, m.G),
                 (m.P, RationalTF(m.G.num, bumped))):
        with pytest.raises(ValueError, match=r"den\(P\) = s den\(G\)"):
            SeaModel(P=p, G=g, params=m.params)
    with pytest.raises(ValueError, match="strictly proper"):
        SeaModel(P=RationalTF(m.P.den, m.P.den), G=m.G, params=m.params)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SeaParams(
            j_a=0.0, b_f=0.0059, k_s=0.0484, r_winch=7.25e-3,
            k_g=14.0, k_pv=0.0457, k_iv=1.3455,
        )
    with pytest.raises(ValueError):
        SeaParams(
            j_a=6.9e-4, b_f=0.0059, k_s=-1.0, r_winch=7.25e-3,
            k_g=14.0, k_pv=0.0457, k_iv=1.3455,
        )


def test_non_finite_parameters_name_the_field():
    for name, bad in (("k_s", float("nan")), ("j_a", float("inf")),
                      ("b_f", -float("inf"))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(default_params(), **{name: bad})


def test_parameters_outside_the_range_name_the_field():
    # far outside [1e-100, 1e100] the plant polynomials overflow in the design
    for name, bad in (("j_a", 1e-160), ("k_s", 1e150), ("r_winch", 1e-101),
                      ("k_g", 1e101)):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[1e-100, 1e\+100\]$"):
            replace(default_params(), **{name: bad})
    for name, bad in (("b_f", 1e-101), ("k_pv", 1e101), ("k_iv", 1e150)):
        with pytest.raises(ValueError, match=rf"^{name} must be 0 or lie in \[1e-100, "):
            replace(default_params(), **{name: bad})
    replace(default_params(), j_a=1e-100, k_s=1e100, b_f=0.0, k_pv=0.0, k_iv=1e-100)
