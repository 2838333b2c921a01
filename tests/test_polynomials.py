"""Unit tests for the polynomial substrate."""

import collections

import numpy as np
import pytest

from seakit import (
    NumericsError,
    Polynomial,
    RationalTF,
    bandwidth_3db,
    format_poly,
    is_hurwitz,
    loop_margins,
    phase_at,
    poles,
    roots,
    shares_root,
    spectral_factor,
    zeros,
)
from seakit import polynomials


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


def test_rejects_complex_coefficients():
    # numpy would keep only the real part, with a ComplexWarning
    for coeffs in (np.array([1.0 + 2.0j, 3.0]), np.array([1.0 + 0.0j, 3.0]),
                   [1.0 + 2.0j, 3.0], [np.complex128(1.0 + 2.0j), 3.0],
                   np.complex128(2.0 + 1.0j), 2.0 + 1.0j):
        with pytest.raises(ValueError, match="^coefficients must be real$"):
            Polynomial(coeffs)


def test_equal_polynomials_hash_alike_across_signed_zeros():
    p, q = Polynomial([1.0, 0.0]), Polynomial([1.0, -0.0])
    assert p == q and hash(p) == hash(q)
    assert len(dict.fromkeys((p, q))) == 1
    assert Polynomial([-0.0]) == Polynomial([0.0])
    assert hash(Polynomial([2.0, -0.0, 1.0])) == hash(Polynomial([2.0, 0.0, 1.0]))


def _random_polys(rng, count):
    """Degree 0 to 12, coefficients of either sign spanning 1e-6 to 1e6."""
    return [Polynomial(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n))
            for n in rng.integers(1, 14, count)]


def _same_value(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_evaluation_is_np_polyval_bit_for_bit():
    # Python's complex product rounds differently from numpy's array loop,
    # which np.polyval uses for a scalar point too
    rng = np.random.default_rng(3)
    for p in _random_polys(rng, 300):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
        z = complex(x[0], x[1])
        points = (float(x[0]), z, int(x[2] * 100), np.float64(x[1]),
                  np.complex128(z), np.float32(x[2]), np.int64(7),
                  np.array(x[3]), np.array(z), x, x + 1j * x[::-1],
                  np.array([z]), x.astype(np.float32))
        for s in points:
            want = np.polyval(p.coeffs, s)
            got = p(s)
            assert _same_value(got, want), (p, s, got, want)


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


def test_from_roots_and_negate_argument_keep_the_numpy_coefficients():
    rng = np.random.default_rng(8)
    for _ in range(300):
        real = rng.standard_normal(rng.integers(0, 4)) * 10.0 ** rng.uniform(-3, 3)
        pair = (rng.standard_normal(rng.integers(0, 3))
                + 1j * rng.standard_normal(1)) * 10.0 ** rng.uniform(-3, 3)
        rts = rng.permutation(np.concatenate([real, pair, pair.conj()]))
        lead = float(rng.uniform(0.5, 2.0))
        # the parent formula: np.poly of the roots as complex numbers
        want = lead * np.poly(rts.astype(complex)).real if len(rts) else np.array([lead])
        p = Polynomial.from_roots(rts, leading=lead)
        assert p.coeffs.tobytes() == want.tobytes()
        flips = (-1.0) ** np.arange(p.degree, -1, -1)
        assert p.negate_argument().coeffs.tobytes() == (p.coeffs * flips).tobytes()


def test_negate_argument():
    p = Polynomial([1.0, 2.0, 3.0, 4.0])
    q = p.negate_argument()
    for s in (0.7, -1.3, 2.0j):
        assert np.isclose(q(s), p(-s))


def test_roots_accuracy_on_clustered_pair():
    # two real roots 1e-3 apart must come back distinct and accurate
    p = Polynomial.from_roots([-28.26, -28.288, -0.05])
    got = np.sort(roots(p).real)
    np.testing.assert_allclose(got, [-28.288, -28.26, -0.05], rtol=1e-9)


def _scalar_roots(p):
    """np.roots snapped and sorted one root at a time, with Python complex
    scalars: the reference roots must reproduce bit for bit."""

    def scale(c, r):
        powers = abs(r) ** np.arange(len(c) - 1, -1, -1, dtype=float)
        return max(float(np.sum(np.abs(c) * powers)), 1e-300)

    snapped = [
        complex(r.real, 0.0) if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) else complex(r)
        for r in np.roots(p.coeffs).astype(complex)
    ]
    want = np.array(sorted(snapped, key=lambda r: (r.real, r.imag)), dtype=complex)
    residual = max((abs(complex(np.polyval(p.coeffs, r))) / scale(p.coeffs, r)
                    for r in want), default=0.0)
    return want, residual


def test_roots_are_the_companion_eigenvalues_snapped_and_sorted(monkeypatch):
    rng = np.random.default_rng(7)
    polys = [
        Polynomial(rng.standard_normal(rng.integers(2, 14))
                   * 10.0 ** rng.uniform(-6, 6))
        for _ in range(400)
    ]
    for _ in range(200):
        # repeated roots, whose eigenvalues scatter around the true root
        base = np.round(rng.standard_normal(rng.integers(1, 5)), 1)
        repeated = np.repeat(base, rng.integers(1, 4, len(base)))
        polys.append(Polynomial(np.poly(repeated)))
    for n in range(1, 7):
        # trailing zero coefficients, each an exact root at 0
        polys.append(Polynomial(np.r_[rng.standard_normal(rng.integers(1, 6)),
                                      np.zeros(n)]))
        polys.append(Polynomial(np.r_[1.0, np.zeros(n)]))
    for p in polys:
        want, residual = _scalar_roots(p)
        got = roots(p)
        assert got.tobytes() == want.tobytes() and len(got) == p.degree
        # every complex root's conjugate is in the set, as often as the root
        counts = collections.Counter(got.tolist())
        assert all(counts[z.conjugate()] == n for z, n in counts.items())
        # the scalar residual is the one roots enforces: the same bytes
        # at a tolerance equal to the residual, an error one ulp below it
        monkeypatch.setattr(polynomials, "_ROOT_REL_TOL", residual)
        assert roots(p).tobytes() == want.tobytes()
        monkeypatch.setattr(polynomials, "_ROOT_REL_TOL", np.nextafter(residual, -1.0))
        with pytest.raises(NumericsError):
            roots(p)
        monkeypatch.undo()


def test_a_nan_eigenvalue_raises_instead_of_shrinking_the_root_set(monkeypatch):
    p = Polynomial.from_roots([-1.0, -2.0, -3.0])
    for bad in (complex(np.nan, 0.0), complex(np.nan, 1.0), complex(-2.0, np.nan)):
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a, bad=bad: np.array([-1.0, -3.0, bad]))
        with pytest.raises(NumericsError, match="residual nan exceeds"):
            roots(p)


def test_roots_keep_a_small_complex_pair_beside_a_large_root():
    # near-real is judged per root: the pair at 1 rad/s is not snapped to
    # the axis because another root lies at 1e9
    p = Polynomial(np.polymul([1.0, 0.1, 1.0], [1.0, 1e9]))
    got = roots(p)
    np.testing.assert_allclose(got, [-1e9, -0.05 - 0.99874922j, -0.05 + 0.99874922j],
                               rtol=1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_roots_fail_where_the_residual_cannot_be_taken():
    # |p(r)| overflows at the root near -1e160: the residual is NaN, and an
    # unverified root set used to come back without an error
    with pytest.raises(NumericsError, match="residual nan exceeds"):
        roots(Polynomial([1.0, 1e160, 1e160, 1.0]))
    # a companion matrix with infinite entries
    with pytest.raises(NumericsError, match="^roots failed at degree 2: "):
        roots(Polynomial([1e-300, 1e300, 1.0]))


def test_a_nonzero_constant_has_no_roots():
    # np.roots' convention: only the zero polynomial has no root set
    got = roots(Polynomial([4.0]))
    assert got.dtype == complex and got.shape == (0,)
    with pytest.raises(ValueError):
        roots(Polynomial([0.0]))
    assert is_hurwitz(Polynomial([-4.0]))
    with pytest.raises(ValueError):
        is_hurwitz(Polynomial([0.0]))
    assert not shares_root(Polynomial([4.0]), Polynomial([1.0, 2.0]))
    assert not shares_root(Polynomial([1.0, 2.0]), Polynomial([3.0]))
    with pytest.raises(ValueError):
        shares_root(Polynomial([0.0]), Polynomial([1.0, 2.0]))
    const = RationalTF([3.0], [2.0])
    assert poles(const).shape == (0,) and zeros(const).shape == (0,)
    with pytest.raises(ValueError):
        zeros(RationalTF([0.0], [1.0, 1.0]))  # as roots of the zero polynomial
    assert poles(RationalTF([1.0], [1.0, 2.0])).tolist() == [-2.0]
    assert is_hurwitz(const.den)
    assert is_hurwitz(RationalTF([0.0], [1.0, -1.0]).den)
    d = spectral_factor(Polynomial([3.0]), Polynomial([4.0]), 1.0, 1.0)
    assert d == Polynomial([5.0])  # sqrt(E(0)) = sqrt(3^2 + 4^2)
    assert phase_at(const, 10.0) == 0.0
    assert phase_at(RationalTF([0.0], [1.0, 1.0]), 10.0) == 0.0  # angle(0)
    with pytest.raises(ValueError, match="never crosses"):
        bandwidth_3db(const)
    # a constant loop, and an undamped one whose response is real: Im(n conj d)
    # is the zero polynomial, which changes no sign
    assert loop_margins(RationalTF([2.0], [1.0])) == (np.inf, np.inf)
    assert loop_margins(RationalTF([2.0], [1.0, 0.0, 1.0])) == (np.inf, 0.0)


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


def test_shares_root():
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial.from_roots([-3.0])
    assert not shares_root(a, b)
    shared = Polynomial.from_roots([-1.0, -4.0])
    assert shares_root(a, shared) and shares_root(shared, a)


def _former_match_count(left, right, tol):
    """The greedy closest-pair matcher that shares_root replaced: the
    number of roots it matched, each used once, closest first."""
    pairs = []
    for i, zl in enumerate(left):
        for j, zr in enumerate(right):
            scale = max(1.0, abs(zl), abs(zr))
            d = abs(zl - zr)
            if d <= tol * scale:
                pairs.append((d / scale, i, j))
    pairs.sort(key=lambda t: t[0])
    used_l: set[int] = set()
    used_r: set[int] = set()
    for _, i, j in pairs:
        if i not in used_l and j not in used_r:
            used_l.add(i)
            used_r.add(j)
    return len(used_l)


def _random_root_set(rng, n):
    """n real roots or conjugate pairs, over six decades of magnitude."""
    mags = 10.0 ** rng.uniform(-2, 4, n)
    real = rng.random(n) < 0.4
    z = mags[~real] * np.exp(1j * np.pi * rng.uniform(0.5, 1.0, n - real.sum()))
    return np.concatenate([-mags[real], z, z.conj()]).astype(complex)


def test_shares_root_is_the_former_greedy_count_above_zero():
    # one root of q sits 1e-9 .. 1e-4 (relative) from a root of p, so the
    # pairs straddle _GCD_TOL = 1e-6 on both sides
    rng = np.random.default_rng(25)
    decisions = []
    for _ in range(200):
        rp = _random_root_set(rng, int(rng.integers(1, 5)))
        rq = _random_root_set(rng, int(rng.integers(1, 4)))
        target = rp[rng.integers(len(rp))]
        gap = 10.0 ** rng.uniform(-9, -4) * max(1.0, abs(target))
        if target.imag == 0.0:
            rq = np.append(rq, target + gap)
        else:
            near = target + gap * np.exp(1j * rng.uniform(0.0, np.pi / 2))
            rq = np.append(rq, [near, np.conj(near)])
        p = Polynomial.from_roots(rp, rng.uniform(0.5, 2.0))
        q = Polynomial.from_roots(rq, rng.uniform(0.5, 2.0))
        want = _former_match_count(roots(p), roots(q), polynomials._GCD_TOL) > 0
        assert shares_root(p, q) == want
        decisions.append(want)
    assert 0.2 < np.mean(decisions) < 0.8


def test_format_poly_readable():
    s = format_poly(Polynomial([1.0, -2.0, 0.0, 3.5]))
    assert "s^3" in s and "3.5" in s
