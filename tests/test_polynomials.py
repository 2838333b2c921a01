"""Unit tests for the polynomial substrate."""

import numpy as np
import pytest

from seakit import (
    NumericsError,
    Polynomial,
    format_poly,
    gcd_degree,
    is_hurwitz,
    roots,
    spectral_factor,
)
from seakit import polynomials
from seakit.polynomials import _pair_conjugates


def test_construction_strips_exact_leading_zeros():
    p = Polynomial([0.0, 0.0, 1.0, 2.0])
    assert p.degree == 1
    np.testing.assert_array_equal(p.coeffs, [1.0, 2.0])


def test_construction_keeps_tiny_leading_coefficients():
    # rho-weighted factors legitimately have leads ~1e-13 of their largest
    # term; stripping them off would silently change the degree
    p = Polynomial([1e-13, 1.0])
    assert p.degree == 1
    assert p.coeffs[0] == 1e-13


def test_zero_polynomial_canonical():
    z = Polynomial([0.0, 0.0])
    assert z.is_zero
    assert z.degree == -1
    np.testing.assert_array_equal(z.coeffs, [0.0])


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(ValueError):
        Polynomial([np.nan, 1.0])
    with pytest.raises(ValueError):
        Polynomial([np.inf])


def test_evaluation_matches_horner():
    p = Polynomial([2.0, -3.0, 5.0])
    for s in (0.0, 1.5, -2.0, 1j, 2.0 - 3.0j):
        assert np.isclose(p(s), 2.0 * s**2 - 3.0 * s + 5.0)


def test_addition_aligns_trailing_coefficients():
    a = Polynomial([1.0, 2.0, 3.0])
    b = Polynomial([5.0, 7.0])
    np.testing.assert_allclose((a + b).coeffs, [1.0, 7.0, 10.0])
    np.testing.assert_allclose((a + 1.0).coeffs, [1.0, 2.0, 4.0])


def test_subtraction_cancels_top_term_cleanly():
    # exact cancellation must drop the degree instead of leaving noise
    a = Polynomial([1.0, 2.0, 3.0])
    b = Polynomial([1.0, 0.5, 0.25])
    d = a - b
    assert d.degree == 1
    np.testing.assert_allclose(d.coeffs, [1.5, 2.75])
    assert (a - a).is_zero


def test_product_keeps_unit_lead_against_huge_trailing_terms():
    # conv of monic factors whose trailing coefficients reach 1e12; the
    # unit leading coefficient must survive (degree 9 stays degree 9)
    f1 = Polynomial([1.0, 147.0, 1.0e4, 1.9e5])
    f2 = Polynomial([1.0, 222.0, 2.3e4, 1.2e6, 3.4e7, 3.8e8, 1.8e7])
    prod = f1 * f2
    assert prod.degree == 9
    assert prod.coeffs[0] == 1.0


def test_multiplication_by_scalar_and_zero():
    p = Polynomial([1.0, 2.0])
    np.testing.assert_allclose((p * 3.0).coeffs, [3.0, 6.0])
    assert (p * Polynomial([0.0])).is_zero


def test_from_roots_round_trip():
    r = np.array([-1.0, -2.0 + 1.0j, -2.0 - 1.0j])
    p = Polynomial.from_roots(r, leading=2.0)
    got = np.sort_complex(roots(p))
    np.testing.assert_allclose(got, np.sort_complex(r), atol=1e-10)
    assert p.coeffs[0] == 2.0


def test_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0j, -2.0])


def test_negate_argument():
    p = Polynomial([1.0, 2.0, 3.0, 4.0])
    q = p.negate_argument()
    for s in (0.7, -1.3, 2.0j):
        assert np.isclose(q(s), p(-s))


def test_derivative():
    p = Polynomial([3.0, 2.0, 1.0])
    np.testing.assert_allclose(p.derivative().coeffs, [6.0, 2.0])
    assert Polynomial([5.0]).derivative().is_zero


def test_roots_accuracy_on_clustered_pair():
    # two real roots 1e-3 apart must come back distinct and accurate
    p = Polynomial.from_roots([-28.26, -28.288, -0.05])
    got = np.sort(roots(p).real)
    np.testing.assert_allclose(got, [-28.288, -28.26, -0.05], rtol=1e-9)


def _scalar_polish_roots(p, newton_steps=4):
    """The root polish one root at a time, with numpy complex scalars:
    the reference the array polish must reproduce bit for bit."""

    def scale(c, r):
        powers = abs(r) ** np.arange(len(c) - 1, -1, -1, dtype=float)
        return max(float(np.sum(np.abs(c) * powers)), 1e-300)

    coeffs, der = p.coeffs, p.derivative().coeffs
    polished = []
    for r in np.roots(coeffs).astype(complex):
        fr = np.polyval(coeffs, r)
        for _ in range(newton_steps):
            dfr = np.polyval(der, r)
            if abs(dfr) < 1e-14 * scale(der, r):
                break
            cand = r - fr / dfr
            fc = np.polyval(coeffs, cand)
            if abs(fc) < abs(fr):
                r, fr = cand, fc
            else:
                break
        polished.append(r)
    sym = _pair_conjugates(np.array(polished, dtype=complex))
    residual = max(abs(complex(np.polyval(coeffs, r))) / scale(coeffs, r) for r in sym)
    return sym, residual


def test_array_polish_matches_scalar_polish_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(7)
    polys = [
        Polynomial(rng.standard_normal(rng.integers(2, 14))
                   * 10.0 ** rng.uniform(-6, 6))
        for _ in range(400)
    ]
    for _ in range(200):
        # repeated roots, where the polish stops on a vanishing derivative
        base = np.round(rng.standard_normal(rng.integers(1, 5)), 1)
        repeated = np.repeat(base, rng.integers(1, 4, len(base)))
        polys.append(Polynomial(np.poly(repeated)))
    for p in polys:
        want, residual = _scalar_polish_roots(p)
        # the scalar residual is the one roots enforces: the same bytes
        # at a tolerance equal to the residual, an error one ulp below it
        monkeypatch.setattr(polynomials, "_ROOT_REL_TOL", residual)
        assert roots(p).tobytes() == want.tobytes()
        monkeypatch.setattr(polynomials, "_ROOT_REL_TOL", np.nextafter(residual, -1.0))
        with pytest.raises(NumericsError):
            roots(p)


def test_roots_keep_a_small_complex_pair_beside_a_large_root():
    # near-real is judged per root: the pair at 1 rad/s is not snapped to
    # the axis because another root lies at 1e9
    p = Polynomial(np.polymul([1.0, 0.1, 1.0], [1.0, 1e9]))
    got = roots(p)
    np.testing.assert_allclose(got, [-1e9, -0.05 - 0.99874922j, -0.05 + 0.99874922j],
                               rtol=1e-8)


def test_roots_rejects_constant():
    with pytest.raises(ValueError):
        roots(Polynomial([4.0]))


def test_is_hurwitz():
    assert is_hurwitz(Polynomial.from_roots([-1.0, -2.0, -3.0]))
    assert not is_hurwitz(Polynomial.from_roots([-1.0, 0.5]))
    # integrator: root exactly on the axis is not strictly stable
    assert not is_hurwitz(Polynomial([1.0, 1.0, 0.0]))


def test_spectral_factor_recovers_known_factor():
    """d(-s)d(s) built from a known stable d must factor back to d."""
    a = Polynomial.from_roots([-1.0, -2.0])  # s^2 + 3s + 2
    b = Polynomial([0.0])
    d = spectral_factor(a, b, 1.0, 1.0)
    # the b term vanishes, E = a(-s)a(s), so d is a itself (d(0) > 0 holds)
    np.testing.assert_allclose(d.coeffs, a.coeffs, rtol=1e-10)


def test_spectral_factor_residual_small():
    a = Polynomial([1.0, 74.78, 2020.1, 0.0])
    b = Polynomial([3.206, 94.38])
    for wa, wb in ((5e-4, 1.0), (1.0, 1.0), (0.3, 2.0)):
        d = spectral_factor(a, b, wa, wb)
        e = a.negate_argument() * a * wa**2 + b.negate_argument() * b * wb**2
        recon = d.negate_argument() * d
        scale = np.max(np.abs(e.coeffs))
        resid = (recon - e).coeffs
        assert np.max(np.abs(resid)) <= 1e-8 * scale
        assert is_hurwitz(d)
        assert d(0.0) > 0.0


def test_spectral_factor_rejects_axis_roots_and_bad_weights():
    # E = (wa^2 + wb^2)(s^2+1)^2 has roots on the imaginary axis: no
    # strict stable/antistable split exists
    osc = Polynomial([1.0, 0.0, 1.0])
    with pytest.raises(NumericsError):
        spectral_factor(osc, osc, 1.0, 1.0)
    with pytest.raises(ValueError):
        spectral_factor(osc, osc, 0.0, 1.0)


def test_gcd_degree():
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial.from_roots([-3.0])
    assert gcd_degree(a, b) == 0
    shared = Polynomial.from_roots([-1.0, -4.0])
    assert gcd_degree(a, shared) == 1


def test_format_poly_readable():
    s = format_poly(Polynomial([1.0, -2.0, 0.0, 3.5]))
    assert "s^3" in s and "3.5" in s
