"""Unit tests for controller synthesis, factorization, and loop maps."""

import numpy as np
import pytest

from seakit import (
    NumericsError,
    PiController,
    Polynomial,
    RationalTF,
    SynthesisWeights,
    build_compensator,
    build_plant,
    closed_loop_maps,
    coprime_factorize,
    default_params,
    h2_synthesize,
    is_hurwitz,
    is_stable,
    minimal_form,
    solve_diophantine,
    torque_loop_maps,
    youla_2dof,
)


@pytest.fixture(scope="module")
def model():
    return build_plant(default_params())


@pytest.fixture(scope="module")
def ctrl(model):
    return h2_synthesize(model.P, SynthesisWeights(rho=5e-4, lam=1.0, k=1.0))


def test_weights_validation():
    with pytest.raises(ValueError):
        SynthesisWeights(rho=0.0, lam=1.0, k=1.0)
    with pytest.raises(ValueError):
        SynthesisWeights(rho=1e-3, lam=-1.0, k=1.0)


def test_solve_diophantine_known_solution():
    """a p + b q = c with a hand-checkable cubic target."""
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial([1.0, 3.0])  # s + 3
    c = Polynomial.from_roots([-4.0, -5.0, -6.0, -7.0])
    p, q = solve_diophantine(a, b, c)
    assert p.degree == 2 and q.degree <= 1
    resid = a * p + b * q - c
    assert np.max(np.abs(resid.coeffs)) <= 1e-8 * np.max(np.abs(c.coeffs))


def test_solve_diophantine_rejects_shared_factor():
    # a and b sharing a root makes the Sylvester system singular
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial.from_roots([-1.0])
    c = Polynomial.from_roots([-3.0, -4.0, -5.0, -6.0])
    with pytest.warns(RuntimeWarning, match="condition number"):
        with pytest.raises(NumericsError):
            solve_diophantine(a, b, c)


def test_h2_controller_structure(ctrl, model):
    # feedback part strictly proper and type 0, both over the same poles
    assert ctrl.c2.num.degree < ctrl.c2.den.degree
    assert abs(ctrl.p(0.0)) > 0.0
    np.testing.assert_array_equal(ctrl.c1.den.coeffs, ctrl.c2.den.coeffs)
    # closed-loop characteristic polynomial equals d_rho * d_lambda_k
    char = model.P.den * ctrl.p + model.P.num * ctrl.q
    target = ctrl.d_rho * ctrl.d_lambda_k
    np.testing.assert_allclose(char.coeffs, target.coeffs, rtol=1e-8)


def test_h2_feedforward_is_scaled_rejection_factor(ctrl, model):
    # C1 = (d_rho(0)/b(0)) d_lambda_k / p
    kappa = ctrl.d_rho(0.0) / model.P.num(0.0)
    expect = RationalTF(ctrl.d_lambda_k * kappa, ctrl.p)
    np.testing.assert_allclose(ctrl.c1.num.coeffs, expect.num.coeffs, rtol=1e-12)
    np.testing.assert_allclose(ctrl.c1.den.coeffs, expect.den.coeffs, rtol=1e-12)


def test_h2_requires_strictly_proper_coprime_plant():
    biproper = RationalTF([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        h2_synthesize(biproper, SynthesisWeights(rho=1e-3, lam=1.0, k=1.0))
    # b(0) = 0 breaks the DC normalization of the feedforward part
    zero_dc = RationalTF([1.0, 0.0], [1.0, 3.0, 2.0])
    with pytest.raises(NumericsError):
        h2_synthesize(zero_dc, SynthesisWeights(rho=1e-3, lam=1.0, k=1.0))
    # shared root between numerator and denominator
    shared = RationalTF([1.0, 1.0], [1.0, 3.0, 2.0, 0.0])
    with pytest.raises(NumericsError):
        h2_synthesize(shared, SynthesisWeights(rho=1e-3, lam=1.0, k=1.0))


def test_coprime_factorization_properties(model, ctrl):
    fact = coprime_factorize(model.P, ctrl.c2)
    for piece in (fact.M, fact.N, fact.X, fact.Y):
        assert is_stable(piece)
    # split: deg f = deg a, lead carried by f, h monic, product restores c
    assert fact.f.degree == model.P.den.degree
    assert np.isclose(fact.h.coeffs[0], 1.0)
    c = model.P.den * ctrl.c2.den + model.P.num * ctrl.c2.num
    prod = fact.f * fact.h
    np.testing.assert_allclose(prod.coeffs, c.coeffs, rtol=1e-7)
    # Bezout identity on a frequency grid
    for f_hz in np.logspace(-2, 2, 20):
        s = 2j * np.pi * f_hz
        val = fact.M(s) * fact.X(s) + fact.N(s) * fact.Y(s)
        assert abs(val - 1.0) <= 1e-8
    # N/M recovers the plant
    p_rec = minimal_form(fact.N / fact.M)
    np.testing.assert_allclose(p_rec.num.coeffs, model.P.num.coeffs, rtol=1e-7)
    np.testing.assert_allclose(p_rec.den.coeffs, model.P.den.coeffs, rtol=1e-7, atol=1e-9)


def test_youla_zero_parameters_recover_seed_controller(model, ctrl):
    fact = coprime_factorize(model.P, ctrl.c2)
    zero = RationalTF([0.0], [1.0])
    c1, c2 = youla_2dof(fact, zero, zero)
    assert c1.num.is_zero
    np.testing.assert_allclose(c2.num.coeffs, ctrl.c2.num.coeffs, rtol=1e-7)
    np.testing.assert_allclose(c2.den.coeffs, ctrl.c2.den.coeffs, rtol=1e-7)


def test_youla_nontrivial_parameters_stay_stabilizing(model, ctrl):
    fact = coprime_factorize(model.P, ctrl.c2)
    q1 = RationalTF([2.0, 1.0], [1.0, 10.0])
    q2 = RationalTF([0.5], [1.0, 3.0])
    c1, c2 = youla_2dof(fact, q1, q2)  # raises if any loop map is unstable
    # resulting loop really is stable: char poly of (P, c2) is Hurwitz
    char = model.P.den * c2.den + model.P.num * c2.num
    assert is_hurwitz(char)
    assert c1.num.degree >= 0


def test_youla_rejects_unstable_parameter(model, ctrl):
    fact = coprime_factorize(model.P, ctrl.c2)
    bad = RationalTF([1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        youla_2dof(fact, bad, RationalTF([0.0], [1.0]))


def test_closed_loop_map_identities(model, ctrl):
    maps = closed_loop_maps(model.P, ctrl)
    for f_hz in (0.1, 2.0, 20.0):
        s = 2j * np.pi * f_hz
        p, c1, c2 = model.P(s), ctrl.c1(s), ctrl.c2(s)
        ret = 1.0 + p * c2
        assert np.isclose(maps.from_r.y(s), p * c1 / ret)
        assert np.isclose(maps.from_d.y(s), p / ret)
        assert np.isclose(maps.from_n.u(s), -c2 / ret)
        # sensitivity + complementary sensitivity = 1
        assert np.isclose(maps.from_d.v(s) + (-maps.from_n.z(s)), 1.0)
    # DC: the integrator in P drives S(0) to zero and T(0) to one
    assert abs(maps.from_d.v(1e-9j)) < 1e-6


def test_torque_loop_reference_map_is_low_order_identity(model, ctrl):
    """G1 must collapse to (d_rho(0)/b(0)) b / d_rho exactly."""
    g1, _ = torque_loop_maps(model, ctrl, with_compensator=False)
    kappa = ctrl.d_rho(0.0) / model.P.num(0.0)
    ident = RationalTF(model.P.num * kappa, ctrl.d_rho)
    np.testing.assert_allclose(g1.num.coeffs, ident.num.coeffs, rtol=1e-6)
    np.testing.assert_allclose(g1.den.coeffs, ident.den.coeffs, rtol=1e-6)
    assert np.isclose(g1(0.0), 1.0, rtol=1e-6)


def test_torque_loop_motion_map(model, ctrl):
    g1, g2 = torque_loop_maps(model, ctrl, with_compensator=False)
    _, h_comp = torque_loop_maps(model, ctrl, with_compensator=True)
    for f_hz in (0.5, 2.0, 10.0):
        s = 2j * np.pi * f_hz
        assert np.isclose(g2(s), model.G(s) / (1.0 + model.P(s) * ctrl.c2(s)))
        assert np.isclose(h_comp(s), (1.0 - g1(s)) * g2(s))
    # compensated coupling vanishes at DC along with the tracking error
    assert abs(h_comp(1e-9j)) < 1e-6


def test_torque_loop_maps_with_pi_controller(model):
    pi = PiController(204.0, 111.0)
    g1, g2 = torque_loop_maps(model, pi.as_pair(), with_compensator=False)
    assert is_stable(g1) and is_stable(g2)
    for f_hz in (0.5, 5.0):
        s = 2j * np.pi * f_hz
        c = pi.as_pair()[0](s)
        p = model.P(s)
        assert np.isclose(g1(s), p * c / (1.0 + p * c))


def test_compensator_equals_motion_map(model, ctrl):
    cl = build_compensator(model, ctrl)
    _, g2 = torque_loop_maps(model, ctrl, with_compensator=False)
    np.testing.assert_array_equal(cl.num.coeffs, g2.num.coeffs)
    np.testing.assert_array_equal(cl.den.coeffs, g2.den.coeffs)
    # biproper with G's high-frequency gain
    assert cl.num.degree == cl.den.degree
    assert np.isclose(cl.num.coeffs[0], model.G.num.coeffs[0])


def test_compensator_rejects_destabilizing_feedback(model, ctrl):
    # sign-flipped feedback part drives the torque loop unstable
    flipped = (ctrl.c1, RationalTF(ctrl.c2.num * -1.0, ctrl.c2.den))
    with pytest.raises(NumericsError):
        build_compensator(model, flipped)
