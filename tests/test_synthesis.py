"""Unit tests for controller synthesis, factorization, and loop maps."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from seakit import (
    ConfigError,
    NumericsError,
    PiController,
    Polynomial,
    RationalTF,
    SynthesisWeights,
    TorqueLoopScenario,
    build_compensator,
    build_plant,
    closed_loop_maps,
    coprime_factorize,
    default_params,
    h2_synthesize,
    is_hurwitz,
    roots,
    solve_diophantine,
    spectral_factor,
    torque_loop_maps,
)
from seakit.synthesis import (
    CoprimeFactorization,
    _check_bezout,
    _design_reference_map,
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
    # beyond 1e+-100 the design over- or underflows
    for bad in (1e-101, 1e101, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^weight lam must lie in \[1e-100, "):
            SynthesisWeights(rho=1e-3, lam=bad, k=1.0)
    SynthesisWeights(rho=1e-100, lam=1e100, k=1.0)


def test_every_weight_in_range_designs_or_raises_numerics_error(model):
    # one decade in five across the accepted range, one weight at a time
    w0 = SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)
    designed = 0
    for name in ("rho", "lam", "k"):
        for e in range(-100, 101, 5):
            try:
                h2_synthesize(model.P, dataclasses.replace(w0, **{name: 10.0**e}))
                designed += 1
            except NumericsError:
                pass
    assert designed >= 3


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
    # a and b sharing a root makes the Sylvester system singular: in exact
    # arithmetic at s = 0, within rounding at s = -1
    c = Polynomial.from_roots([-3.0, -4.0, -5.0, -6.0])
    with pytest.raises(NumericsError, match=r"^singular Sylvester system: a and b "):
        solve_diophantine(Polynomial([1.0, 0.0, 0.0]), Polynomial([1.0, 0.0]), c)
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial.from_roots([-1.0])
    with pytest.raises(NumericsError):
        solve_diophantine(a, b, c)


def test_a_non_finite_solve_fails_the_residual_check(monkeypatch):
    a = Polynomial.from_roots([-1.0, -2.0])
    b = Polynomial([1.0, 3.0])
    c = Polynomial.from_roots([-4.0, -5.0, -6.0, -7.0])
    monkeypatch.setattr(np.linalg, "solve", lambda S, rhs: np.full(len(rhs), np.nan))
    with pytest.raises(NumericsError, match=r"^pole-placement residual nan exceeds "):
        solve_diophantine(a, b, c)


def _exact_diophantine(a, b, c):
    """The coefficients of p then q in a p + b q = c, by Gauss-Jordan
    elimination over the rationals of the float coefficients given."""
    n = a.degree
    m = 2 * n + 1
    rows = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for j in range(n + 1):
        for i, x in enumerate(a.coeffs):
            rows[j + i][j] = Fraction(x)
    bp = [0.0] * (n - len(b.coeffs)) + list(b.coeffs)
    for j in range(n):
        for i, x in enumerate(bp):
            rows[j + 2 + i][n + 1 + j] = Fraction(x)
    for i, x in enumerate(c.coeffs):
        rows[i][m] = Fraction(x)
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


def test_the_default_design_matches_an_exact_solve(model, ctrl):
    exact = _exact_diophantine(model.P.den, model.P.num, ctrl.d_rho * ctrl.d_lambda_k)
    got = list(ctrl.p.coeffs) + list(ctrl.q.coeffs)
    assert len(got) == len(exact)
    rel = [abs(Fraction(x) - e) / abs(e) for x, e in zip(got, exact)]
    assert max(rel) <= Fraction(1, 10**10), [float(r) for r in rel]


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
        assert is_hurwitz(piece.den)
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
    # N/M recovers the plant: N and M share the denominator f
    assert fact.N.den == fact.M.den == RationalTF([1.0], fact.f).den
    np.testing.assert_allclose(fact.N.num.coeffs, model.P.num.coeffs, rtol=1e-7)
    np.testing.assert_allclose(fact.M.num.coeffs, model.P.den.coeffs, rtol=1e-7, atol=1e-9)


def _reference_spectral_factor(a, b, wa, wb):
    """spectral_factor with its former root selection: each root of E paired
    with its nearest mirror -r, biggest first, keeping the left member."""
    E = (a.negate_argument() * a) * (wa**2) + (b.negate_argument() * b) * (wb**2)
    coeffs = E.coeffs.copy()
    coeffs[(E.degree - np.arange(len(coeffs))) % 2 == 1] = 0.0
    E = Polynomial(coeffs)
    rts = sorted(roots(E), key=lambda r: (-abs(r), r.real, r.imag))
    selected = []
    while rts:
        r = rts.pop(0)
        dists = [abs(r + q) for q in rts]
        j = int(np.argmin(dists))
        if dists[j] > 1e-5 * max(1.0, abs(r)):
            raise NumericsError("not +/- symmetric")
        q = rts.pop(j)
        if max(abs(r.real), abs(q.real)) <= 1e-7 * max(1.0, abs(r)):
            raise NumericsError("imaginary-axis root")
        selected.append(r if r.real < 0 else q)
    monic = Polynomial.from_roots(sorted(selected, key=lambda r: (r.real, r.imag)))
    d = monic * (math.sqrt(float(E(0.0))) / float(monic(0.0)))
    err = np.max(np.abs((d.negate_argument() * d - E).coeffs))
    if err > 1e-8 * np.max(np.abs(E.coeffs)):
        raise NumericsError("reconstruction")
    return [d]


def _spectral(a, b, wa, wb):
    return [spectral_factor(a, b, wa, wb)]


def _coeff_bytes(fn, *args):
    """The coefficient bytes of the polynomials fn returns, or its NumericsError."""
    try:
        return [p.coeffs.tobytes() for p in fn(*args)]
    except NumericsError:
        return "NumericsError"


def _check_split(P, c2):
    """coprime_factorize's split of c = a p0 + b q0: deg f = deg a, f and h
    Hurwitz, h monic and f h = c within 1e-12 relative.  It raises "cannot
    split" exactly when the roots of c hold fewer real roots than the
    n - 2 min(pairs, n // 2) that f needs.  True when it split."""
    n = P.den.degree
    c = P.den * c2.den + P.num * c2.num
    rts = roots(c)
    pairs, real = int(np.sum(rts.imag > 0.0)), int(np.sum(rts.imag == 0.0))
    if n - 2 * min(pairs, n // 2) > real:
        with pytest.raises(NumericsError, match=r"^cannot split the characteristic "):
            coprime_factorize(P, c2)
        return False
    fact = coprime_factorize(P, c2)
    assert fact.f.degree == n and is_hurwitz(fact.f) and is_hurwitz(fact.h)
    assert fact.h.coeffs[0] == 1.0
    err = np.max(np.abs((fact.f * fact.h - c).coeffs)) / np.max(np.abs(c.coeffs))
    assert err <= 1e-12, err
    return True


def test_root_conventions_match_the_former_pairing_bit_for_bit():
    # spectral_factor takes the left-half-plane roots as roots returns them,
    # and must build the same bytes as the former mirror search did; on the
    # same plants coprime_factorize's split keeps its properties
    rng = np.random.default_rng(20)
    base, w0 = default_params(), SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)
    names = ("j_a", "b_f", "k_s", "k_pv", "k_iv")
    plants = []
    for spread in (0.2, 0.6):
        for _ in range(60):
            params = dataclasses.replace(base, **{
                n: getattr(base, n) * rng.uniform(1 - spread, 1 + spread)
                for n in names})
            plants.append(build_plant(params).P)
    for _ in range(120):
        # real parts from a short list, so that roots tie on their real part
        n, rts = int(rng.integers(1, 6)), []
        while len(rts) < n:
            re = rng.choice([-1.0, -2.5, 0.5, rng.uniform(-30.0, 30.0)])
            if n - len(rts) >= 2 and rng.random() < 0.5:
                im = rng.choice([1.0, rng.uniform(0.5, 30.0)])
                rts += [complex(re, im), complex(re, -im)]
            else:
                rts.append(complex(re, 0.0))
        b = Polynomial(rng.normal(size=int(rng.integers(1, n + 1))) * 10.0)
        plants.append(RationalTF(b, Polynomial.from_roots(rts)))
    checked = {"spectral": 0, "coprime": 0}
    for P in plants:
        scale = 10.0 ** rng.uniform(-1.5, 1.5, 3)
        w = SynthesisWeights(rho=w0.rho * scale[0], lam=w0.lam * scale[1],
                             k=w0.k * scale[2])
        a, b = P.den, P.num
        for wa, wb in ((w.rho, 1.0), (w.k, w.lam)):
            got = _coeff_bytes(_spectral, a, b, wa, wb)
            assert got == _coeff_bytes(_reference_spectral_factor, a, b, wa, wb)
            checked["spectral"] += got != "NumericsError"
        try:
            c2 = h2_synthesize(P, w).c2
        except NumericsError:
            continue
        checked["coprime"] += _check_split(P, c2)
    assert checked["spectral"] >= 450 and checked["coprime"] >= 200, checked


def test_coprime_factorize_rejects_an_unstable_or_unsplittable_loop():
    P = RationalTF([1.0], [1.0, 1.0])
    # C0 = -3/(s + 1) gives c = s^2 + 2s - 2, a root at -1 + sqrt 3
    with pytest.raises(NumericsError,
                       match=r"^C0 does not stabilize P: a p0 \+ b q0 is not Hurwitz$"):
        coprime_factorize(P, RationalTF([-3.0], [1.0, 1.0]))
    # C0 = 1/(s + 1) gives c = s^2 + 2s + 2: one conjugate pair, no real
    # root for f of degree 1
    with pytest.raises(NumericsError, match=r"^cannot split the characteristic "
                       r"polynomial into real factors of degrees 1 and 1$"):
        coprime_factorize(P, RationalTF([1.0], [1.0, 1.0]))


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


def _pointwise_g1(model, ctrl, f_hz):
    s = 2j * np.pi * np.asarray(f_hz)
    p = model.P(s)
    return p * ctrl.c1(s) / (1.0 + p * ctrl.c2(s))


def test_torque_loop_reference_map_is_low_order_identity(model, ctrl):
    """G1 must collapse to (d_rho(0)/b(0)) b / d_rho exactly."""
    g1, _ = torque_loop_maps(model, ctrl, with_compensator=False)
    kappa = ctrl.d_rho(0.0) / model.P.num(0.0)
    ident = RationalTF(model.P.num * kappa, ctrl.d_rho)
    assert g1.num == ident.num and g1.den == ident.den
    assert np.isclose(g1(0.0), 1.0, rtol=1e-15)
    # it differs from P C1 / (1 + P C2) only by the Diophantine residual
    # of p and q, which stays at rounding level up to 1 kHz
    grid = np.logspace(-2, 3, 11)
    rel = np.abs(g1(2j * np.pi * grid) / _pointwise_g1(model, ctrl, grid) - 1.0)
    assert np.all(rel <= 1e-12), rel


def _exact_reference_map(model, c1, c2):
    """G1 = b n1 / (a p + b n2) for C1 = n1/p and C2 = n2/p."""
    P = model.P
    return RationalTF(P.num * c1.num, P.den * c2.den + P.num * c2.num)


def test_reference_map_of_a_design_on_another_plant(model, ctrl):
    # the same design on a plant 20% off fails the Diophantine guard, and
    # G1 is the general exact quotient over a p + b n2
    for scale in (0.8, 1.2):
        params = dataclasses.replace(default_params(), **{
            n: getattr(default_params(), n) * scale for n in ("j_a", "k_s", "k_pv")})
        other = build_plant(params)
        assert _design_reference_map(other.P, ctrl) is None
        g1, _ = torque_loop_maps(other, ctrl, with_compensator=False)
        exact = _exact_reference_map(other, ctrl.c1, ctrl.c2)
        assert g1.num == exact.num and g1.den == exact.den
        assert g1.den.degree > ctrl.d_rho.degree
        grid = np.array([0.1, 2.0, 20.0, 200.0])
        rel = np.abs(g1(2j * np.pi * grid) / _pointwise_g1(other, ctrl, grid) - 1.0)
        assert np.all(rel <= 1e-9), rel


def test_check_bezout_rejects_a_corrupted_factorization(model, ctrl):
    fact = coprime_factorize(model.P, ctrl.c2)
    _check_bezout(fact)
    a, b, f = model.P.den, model.P.num, fact.f * 2.0
    scaled = CoprimeFactorization(M=RationalTF(a, f), N=RationalTF(b, f),
                                  X=fact.X, Y=fact.Y, f=f, h=fact.h)
    with pytest.raises(NumericsError,
                       match=r"^Bezout identity residual 5\.000e-01 at 0\.01 Hz$"):
        _check_bezout(scaled)
    # a defect above the first grid points is reported where it starts
    bump = RationalTF([1e-6, 0.0, 0.0], [1.0, 1.0])
    high = dataclasses.replace(fact, Y=fact.Y + bump / fact.N)
    with pytest.raises(NumericsError, match=r" at [0-9.]+ Hz$") as err:
        _check_bezout(high)
    assert " at 0.01 Hz" not in str(err.value)


def _design_draws(seed, spread, count):
    """count seeded (params, weights) draws from one stream: each plant
    constant within +-spread of its default, then each weight within 1.5
    decades of its default."""
    rng = np.random.default_rng(seed)
    base, w0 = default_params(), SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)
    names = ("j_a", "b_f", "k_s", "r_winch", "k_g", "k_pv", "k_iv")
    for _ in range(count):
        params = dataclasses.replace(base, **{
            n: getattr(base, n) * rng.uniform(1 - spread, 1 + spread) for n in names})
        scale = 10.0 ** rng.uniform(-1.5, 1.5, 3)
        yield params, SynthesisWeights(rho=w0.rho * scale[0], lam=w0.lam * scale[1],
                                       k=w0.k * scale[2])


def test_design_draws_design_or_raise_a_named_error():
    # Seeded plants within 20% of the defaults and weights within 1.5
    # decades of them.  Each design either completes or fails with a
    # NumericsError or ConfigError.  A root matching of G1 that split a
    # conjugate pair used to end 7 of these draws in a ValueError.
    designed = 0
    t0 = time.perf_counter()
    for params, w in _design_draws(21, 0.2, 200):
        try:
            model = build_plant(params)
            ctrl = h2_synthesize(model.P, w)
            torque_loop_maps(model, ctrl, with_compensator=True)
            build_compensator(model, ctrl)
            designed += 1
        except (NumericsError, ConfigError):
            pass
    wall = time.perf_counter() - t0
    assert designed >= 190
    assert wall < 10.0  # about 1.7 s on a 2-core box


def _pole_placement_error(P, ctrl):
    """max |(a p + b q)/(d_rho d_lambda_k) - 1| on 20 points, 0.01 to 100 Hz."""
    s = 2j * np.pi * np.logspace(-2, 2, 20)
    placed = P.den(s) * ctrl.p(s) + P.num(s) * ctrl.q(s)
    return float(np.max(np.abs(placed / (ctrl.d_rho(s) * ctrl.d_lambda_k(s)) - 1.0)))


def test_designs_place_their_poles():
    # plants within 20% (seed 5) and 60% (seed 9) of the defaults, weights
    # within 1.5 decades: each design's poles on the grid within 1e-9
    worst = 0.0
    for seed, spread in ((5, 0.2), (9, 0.6)):
        for params, w in _design_draws(seed, spread, 200):
            P = build_plant(params).P
            worst = max(worst, _pole_placement_error(P, h2_synthesize(P, w)))
    assert worst <= 1e-9, worst


def test_a_design_on_the_next_plant_gives_the_exact_stable_maps():
    # Design i of a seeded stream applied to plant i + 1, with the plant
    # within 20% and 60% of the defaults and the weights within 1.5
    # decades.  G1 takes the general quotient b n1 / (a p + b n2), and
    # every pairing must give stable maps.  Cancelling G1's poles and
    # zeros by root matching split a conjugate pair and raised ValueError
    # on 2 of these 200 pairings.
    paired = 0
    t0 = time.perf_counter()
    for spread in (0.2, 0.6):
        draws = list(_design_draws(5, spread, 101))
        for (params, w), (next_params, _) in zip(draws, draws[1:]):
            ctrl = h2_synthesize(build_plant(params).P, w)
            other = build_plant(next_params)
            g1, _ = torque_loop_maps(other, ctrl, with_compensator=True)
            exact = _exact_reference_map(other, ctrl.c1, ctrl.c2)
            assert g1.num == exact.num and g1.den == exact.den
            build_compensator(other, ctrl)
            paired += 1
    wall = time.perf_counter() - t0
    assert paired == 200
    assert wall < 10.0  # about 1 s on a 2-core box


def test_loop_maps_over_one_denominator(model, ctrl):
    # the torque loop is realized over the controllers' one denominator,
    # by torque_loop_maps and by a scenario alike; closed_loop_maps
    # composes any pair, as criterion 4 swaps in a C1 over another one
    pair = (RationalTF([1.0], [1.0, 1.0]), ctrl.c2)
    message = r"^controller: C1 and C2 must share one denominator$"
    with pytest.raises(ValueError, match=message):
        torque_loop_maps(model, pair, with_compensator=False)
    with pytest.raises(ValueError, match=message):
        TorqueLoopScenario(model=model, controller=pair)
    maps = closed_loop_maps(model.P, pair)
    assert maps.from_r.y.den.degree > ctrl.c2.den.degree


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
    assert is_hurwitz(g1.den) and is_hurwitz(g2.den)
    exact = _exact_reference_map(model, *pi.as_pair())
    assert g1.num == exact.num and g1.den == exact.den
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
