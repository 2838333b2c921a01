"""Unit tests for rational transfer functions and realizations."""

import numpy as np
import pytest

from seakit import (
    FrequencyResponse,
    NumericsError,
    Polynomial,
    RationalTF,
    frequency_response,
    is_stable,
    minimal_form,
    poles,
    to_state_space,
    zeros,
)


def tf(num, den):
    return RationalTF(num, den)


def test_denominator_normalized_monic():
    g = tf([2.0, 4.0], [2.0, 6.0])
    np.testing.assert_allclose(g.den.coeffs, [1.0, 3.0])
    np.testing.assert_allclose(g.num.coeffs, [1.0, 2.0])


def test_zero_numerator_collapses_denominator():
    g = tf([0.0], [1.0, 5.0, 1.0])
    assert g.num.is_zero
    np.testing.assert_array_equal(g.den.coeffs, [1.0])


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        tf([1.0], [0.0])


def test_evaluation_and_pole_guard():
    g = tf([1.0], [1.0, 1.0])
    assert np.isclose(g(0.0), 1.0)
    assert np.isclose(g(1j), 1.0 / (1j + 1.0))
    with pytest.raises(NumericsError):
        g(-1.0)  # exactly on the pole
    s = np.array([0.0, 1j, 2.0 + 3j])
    np.testing.assert_allclose(g(s), [g(x) for x in s], rtol=1e-15)
    with pytest.raises(NumericsError, match="-1"):
        g(np.array([1j, -1.0, 2j]))


def test_algebra_matches_pointwise():
    g = tf([1.0, 2.0], [1.0, 3.0, 2.0])
    h = tf([2.0], [1.0, 5.0])
    for s in (0.3j, 1.0 + 0.5j, 2.0):
        assert np.isclose((g + h)(s), g(s) + h(s))
        assert np.isclose((g * h)(s), g(s) * h(s))
        assert np.isclose((g / h)(s), g(s) / h(s))
        assert np.isclose((g + 2.0)(s), g(s) + 2.0)
        assert np.isclose((1.0 - g)(s), 1.0 - g(s))


def test_minimal_form_cancels_shared_factor():
    # (s+1)(s+2) / ((s+1)(s+3)) -> (s+2)/(s+3)
    num = Polynomial.from_roots([-1.0, -2.0])
    den = Polynomial.from_roots([-1.0, -3.0])
    m = minimal_form(RationalTF(num, den))
    np.testing.assert_allclose(m.num.coeffs, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(m.den.coeffs, [1.0, 3.0], atol=1e-12)


def test_minimal_form_no_match_returns_exact_input():
    g = tf([1.0, 2.0], [1.0, 3.0, 5.0])
    m = minimal_form(g)
    # no shared roots: coefficients must come back bit-identical, not
    # round-tripped through a root expansion
    assert m.num.coeffs is g.num.coeffs
    assert m.den.coeffs is g.den.coeffs


def test_minimal_form_keeps_close_but_distinct_roots():
    # 1e-3 apart is a genuine dipole, not a cancellation
    g = RationalTF(
        Polynomial.from_roots([-28.26]), Polynomial.from_roots([-28.288, -1.0])
    )
    m = minimal_form(g)
    assert m.num.degree == 1
    assert m.den.degree == 2


def test_minimal_form_zero():
    m = minimal_form(tf([0.0], [1.0, 1.0]))
    assert m.num.is_zero


def test_is_stable():
    assert is_stable(tf([1.0], [1.0, 2.0, 3.0]))
    assert not is_stable(tf([1.0], [1.0, -1.0]))
    # unstable pole hidden under an exact cancellation leaves a stable map
    num = Polynomial.from_roots([1.0])
    den = Polynomial.from_roots([1.0, -2.0])
    assert is_stable(RationalTF(num, den))
    # integrator is not strictly stable
    assert not is_stable(tf([1.0], [1.0, 0.0]))


def test_poles_zeros():
    g = tf([1.0, 2.0], [1.0, 3.0, 2.0])
    np.testing.assert_allclose(np.sort(poles(g).real), [-2.0, -1.0], atol=1e-10)
    np.testing.assert_allclose(zeros(g).real, [-2.0], atol=1e-10)


def test_state_space_matches_tf_response():
    """Companion realization must reproduce the transfer function."""
    g = tf([2.0, 1.0, 3.0], [1.0, 4.0, 6.0, 4.0])  # strictly proper
    ss = to_state_space(g)
    assert ss.A.shape == (3, 3)
    assert ss.D == 0.0
    for s in (0.0, 0.5j, 2.0 + 1.0j):
        resolvent = np.linalg.solve(s * np.eye(3) - ss.A, ss.B)
        assert np.isclose(ss.C @ resolvent + ss.D, g(s))


def test_state_space_biproper_feedthrough():
    g = tf([2.0, 0.0], [1.0, 5.0])  # 2s/(s+5): D = 2
    ss = to_state_space(g)
    assert np.isclose(ss.D, 2.0)
    for s in (0.0, 1j):
        resolvent = np.linalg.solve(s * np.eye(1) - ss.A, ss.B)
        assert np.isclose(ss.C @ resolvent + ss.D, g(s))


def test_state_space_rejects_improper():
    with pytest.raises(ValueError):
        to_state_space(tf([1.0, 0.0, 0.0], [1.0, 1.0]))


def test_state_space_constant():
    ss = to_state_space(RationalTF([3.0], [1.0]))
    assert ss.A.shape == (0, 0)
    assert np.isclose(ss.D, 3.0)


def test_state_space_shared_denominator_pair():
    """One realization of several TFs: column j reproduces tf j."""
    den = [1.0, 4.0, 6.0, 4.0]
    tfs = (tf([2.0, 1.0, 3.0], den), tf([-1.0, 0.5, 0.0, 2.0], den))
    ss = to_state_space(*tfs)
    assert ss.A.shape == (3, 3)
    assert ss.B.shape == (3, 2)
    assert ss.C.shape == (3,)
    assert ss.D.shape == (2,)
    for s in (0.0, 0.5j, 2.0 + 1.0j, -3.0 + 7.0j):
        resolvent = np.linalg.solve(s * np.eye(3) - ss.A, ss.B)
        for j, g in enumerate(tfs):
            assert np.isclose(ss.C @ resolvent[:, j] + ss.D[j], g(s))


def test_state_space_rejects_differing_denominators():
    with pytest.raises(ValueError, match="share one denominator"):
        to_state_space(tf([1.0], [1.0, 2.0]), tf([1.0], [1.0, 3.0]))
    with pytest.raises(ValueError, match="share one denominator"):
        to_state_space(tf([1.0], [1.0, 2.0]), tf([1.0], [1.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        to_state_space(tf([1.0], [1.0, 2.0]), tf([1.0, 0.0, 0.0], [1.0, 2.0]))


def test_denominator_stays_exactly_monic():
    # 49 * (1 / 49) rounds to 1 - 2**-53; the stored lead is exactly 1, so
    # constructing again from a stored pair changes no coefficient
    g = tf([1.0, 2.0], [49.0, 3.0, 5.0])
    assert g.den.coeffs[0] == 1.0
    again = RationalTF(g.num, g.den)
    np.testing.assert_array_equal(again.num.coeffs, g.num.coeffs)
    np.testing.assert_array_equal(again.den.coeffs, g.den.coeffs)


def test_frequency_response_values_and_unwrap():
    g = tf([1.0], [1.0, 1.0, 1.0])  # resonant second order
    f = np.logspace(-2, 1, 200)
    fr = frequency_response(g, f)
    k = 60
    direct = g(2j * np.pi * f[k])
    assert np.isclose(fr.magnitude_db[k], 20.0 * np.log10(abs(direct)), atol=1e-9)
    # unwrapped phase must fall monotonically past the resonance, ending
    # near -180 without wrapping back up
    assert fr.phase_deg[-1] < -150.0
    assert np.all(np.diff(fr.phase_deg) < 1.0)


def test_frequency_response_phase_follows_a_dense_unwrap():
    """The phase matches numpy's unwrap on a dense grid at every point,
    also where one grid step crosses a resonance."""
    pair = [1.0, 0.02, 100.0]  # 10 rad/s at zeta = 1e-3
    dense = np.linspace(0.0, 5.0, 120001)
    cases = [
        (tf([1.0, 0.5], pair), np.arange(0, 120001, 400)),  # 301 points
        # a real pole on top: the step from 1 to 2 Hz falls by about 199 deg
        (tf([1000.0], np.polymul(pair, [1.0, 10.0])), [0, 24000, 48000, 120000]),
    ]
    for g, at in cases:
        fr = frequency_response(g, dense[at])
        ref = np.degrees(np.unwrap(np.angle(g(2j * np.pi * dense))))[at]
        np.testing.assert_allclose(fr.phase_deg, ref, rtol=0.0, atol=1e-9)
        assert fr.phase_deg[-1] < -80.0  # crossed the resonance, no wrap
    # the coarse step falls past 180 deg: no unwrap of its own points finds it
    assert np.diff(fr.phase_deg)[1] < -180.0


def test_frequency_response_validation():
    good = dict(
        freqs_hz=np.array([1.0, 2.0]),
        magnitude_db=np.zeros(2),
        phase_deg=np.zeros(2),
        coherence=np.ones(2),
    )
    FrequencyResponse(**good)
    with pytest.raises(ValueError, match="lengths"):
        FrequencyResponse(**{**good, "magnitude_db": np.zeros(3)})
    with pytest.raises(ValueError, match="ascending"):
        FrequencyResponse(**{**good, "freqs_hz": np.array([2.0, 1.0])})
    with pytest.raises(ValueError, match="coherence"):
        FrequencyResponse(**{**good, "coherence": np.array([0.5, 1.5])})
    # a model's response has coherence 1 throughout
    fr = frequency_response(tf([1.0], [1.0, 1.0]), [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(fr.coherence, np.ones(3))
