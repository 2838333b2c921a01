"""Stabilizing 2-DOF controller synthesis for SISO rational plants.

Three layers, each usable on its own:

* ``h2_synthesize``: the quadratic-optimal design.  Two spectral
  factorizations fix the closed-loop pole set, a Sylvester solve places
  the feedback controller C2 = q/p, and the feedforward C1 reuses the
  rejection factor over the same denominator.  This is the one member
  of the family of all stabilizing 2-DOF controllers (Youla, Jabr &
  Bongiorno, IEEE TAC 1976) that the package computes.
* ``coprime_factorize``: stable coprime fractions around a stabilizing
  C2, with the Bezout identity checked.
* map builders: the closed-loop maps of the simulator and the
  acceptance oracles, as exact polynomial quotients.

Feedback is defined positive-plant/negative-feedback throughout:
u = C1 r - C2 y, y = P(u + d) + n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .plant import SeaModel
from .polynomials import (
    Polynomial,
    _all_stable,
    is_hurwitz,
    roots,
    shares_root,
    spectral_factor,
)
from .transfer import RationalTF

__all__ = [
    "SynthesisWeights",
    "CoprimeFactorization",
    "TwoDofController",
    "SignalMaps",
    "ClosedLoopMaps",
    "coprime_factorize",
    "h2_synthesize",
    "solve_diophantine",
    "build_compensator",
    "torque_loop_maps",
    "closed_loop_maps",
]


_WEIGHT_RANGE = (1e-100, 1e100)  # accepted values of each design weight


@dataclass(frozen=True)
class SynthesisWeights:
    """Scalar design weights of the quadratic objective.

    rho trades control energy against tracking error (small rho buys
    tracking with more actuation); lam weights disturbance against
    reference response; k weights measurement noise.  Each must lie in
    ``_WEIGHT_RANGE``: far outside it the design's polynomial products
    overflow or lose their top terms, and fail with errors that name no
    weight.
    """

    rho: float
    lam: float
    k: float

    def __post_init__(self):
        lo, hi = _WEIGHT_RANGE
        for name in ("rho", "lam", "k"):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"weight {name} must lie in [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class CoprimeFactorization:
    """Stable factorization P = N/M with Bezout pair M X + N Y = 1.

    f and h are the two polynomial factors of the closed-loop
    characteristic c = a p + b q that generate the four fractions:
    M = a/f, N = b/f, X = p/h, Y = q/h.
    """

    M: RationalTF
    N: RationalTF
    X: RationalTF
    Y: RationalTF
    f: Polynomial
    h: Polynomial


@dataclass(frozen=True)
class TwoDofController:
    """Feedforward/feedback pair sharing the denominator p(s).

    c1 filters the reference; c2 closes the measurement loop.  d_rho and
    d_lambda_k are the two stable spectral factors whose product is the
    closed-loop characteristic polynomial a p + b q.
    """

    c1: RationalTF
    c2: RationalTF
    d_rho: Polynomial
    d_lambda_k: Polynomial
    p: Polynomial
    q: Polynomial
    weights: SynthesisWeights


@dataclass(frozen=True)
class SignalMaps:
    """Transfer functions from one injection point to u, v, y, z."""

    u: RationalTF
    v: RationalTF
    y: RationalTF
    z: RationalTF

    def all(self) -> tuple[RationalTF, ...]:
        return (self.u, self.v, self.y, self.z)


@dataclass(frozen=True)
class ClosedLoopMaps:
    """The twelve loop maps: from reference r, plant-input disturbance d,
    and measurement noise n to controller output u, plant input v,
    measurement y, and plant output z."""

    from_r: SignalMaps
    from_d: SignalMaps
    from_n: SignalMaps

    def all(self) -> tuple[RationalTF, ...]:
        return self.from_r.all() + self.from_d.all() + self.from_n.all()


def _controller_pair(ctrl) -> tuple[RationalTF, RationalTF]:
    """Accept a TwoDofController, a PiController (through its as_pair) or
    a bare (C1, C2) pair."""
    if isinstance(ctrl, TwoDofController):
        return ctrl.c1, ctrl.c2
    if hasattr(ctrl, "as_pair"):
        return ctrl.as_pair()
    c1, c2 = ctrl
    return c1, c2


def _shared_denominator_pair(ctrl) -> tuple[RationalTF, RationalTF]:
    """The (C1, C2) of ctrl; ValueError unless they share one denominator."""
    c1, c2 = _controller_pair(ctrl)
    if c1.den != c2.den:
        raise ValueError("controller: C1 and C2 must share one denominator")
    return c1, c2


# Largest coefficient of a p + b q - c_target accepted, relative to the
# largest coefficient of c_target.
_DIOPHANTINE_TOL = 1e-8


def solve_diophantine(
    a: Polynomial, b: Polynomial, c_target: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Solve a p + b q = c_target for deg p = n, deg q <= n-1.

    The identity is a square linear system over the 2n+1 unknown
    coefficients (Sylvester structure); with a, b coprime it has exactly
    one solution, found by partially pivoted LU on the raw matrix.  The
    rows are graded (the physical plant's coefficients span 1e-7 to 4e6),
    and the small low-degree rows set the low-frequency poles: pivoted LU
    keeps each row's residual small, where QR, only normwise backward
    stable, leaves its error on them (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 9 and 19).

    Parameters
    ----------
    a, b : Polynomial
        Plant denominator (degree n >= 1) and numerator (degree <= n-1,
        nonzero).
    c_target : Polynomial
        Desired closed-loop characteristic polynomial, degree exactly 2n.

    Returns
    -------
    (p, q) : tuple of Polynomial
        deg p = n with p(0) != 0, deg q <= n-1.

    Raises
    ------
    NumericsError
        An exactly singular system (a, b not coprime), a residual that is
        not within 1e-8 of the largest target coefficient (a nearly
        common root, or a non-finite solution), or p(0) = 0 within
        tolerance (the type-0 requirement).
    """
    n = a.degree
    if n < 1:
        raise ValueError("a must have degree >= 1")
    if b.is_zero or b.degree > n - 1:
        raise ValueError("b must be nonzero with degree <= deg(a) - 1")
    if c_target.degree != 2 * n:
        raise ValueError("c_target must have degree exactly 2 deg(a)")

    ac = a.coeffs
    bp = np.zeros(n)
    bp[n - len(b.coeffs):] = b.coeffs
    m = 2 * n + 1
    S = np.zeros((m, m))
    for j in range(n + 1):  # columns for p_j (coefficient of s^(n-j))
        S[j: j + n + 1, j] = ac
    for j in range(n):  # columns for q_j (coefficient of s^(n-1-j))
        S[j + 2: j + 2 + n, n + 1 + j] = bp

    rhs = np.zeros(m)
    rhs[m - len(c_target.coeffs):] = c_target.coeffs

    try:
        x = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        msg = "singular Sylvester system: a and b are not coprime"
        raise NumericsError(msg) from exc

    residual = float(np.max(np.abs(S @ x - rhs)))
    bound = _DIOPHANTINE_TOL * float(np.max(np.abs(rhs)))
    if not residual <= bound:
        raise NumericsError(
            f"pole-placement residual {residual:.3e} exceeds {bound:.3e}"
        )

    p = Polynomial(x[: n + 1])
    q_coeffs = x[n + 1:]
    q = Polynomial(q_coeffs if np.any(q_coeffs != 0.0) else [0.0])
    if p.degree != n:
        raise NumericsError("leading coefficient of p vanished; system degenerate")
    if abs(float(p(0.0))) < 1e-9 * float(np.max(np.abs(p.coeffs))):
        raise NumericsError(
            "p(0) = 0 within tolerance: the placed controller is not type 0"
        )
    return p, q


def h2_synthesize(P: RationalTF, w: SynthesisWeights) -> TwoDofController:
    """Quadratic-optimal 2-DOF design over the closed-loop pole set.

    Writing P = b/a (monic a, degree n), the design runs:

    1. tracking factor   d_rho:      rho^2 a(-s)a(s) + b(-s)b(s)
    2. rejection factor  d_lambda_k: k^2  a(-s)a(s) + lam^2 b(-s)b(s)
    3. place the closed-loop poles at the roots of d_rho d_lambda_k by
       solving a p + b q = d_rho d_lambda_k (deg p = n, deg q <= n-1)
    4. C2 = q/p (strictly proper, type 0); C1 = (d_rho(0)/b(0)) d_lambda_k / p

    The d_lambda_k numerator of C1 cancels against the closed-loop
    characteristic, which is what decouples reference tracking from the
    feedback design; the gain d_rho(0)/b(0) makes the reference map
    exactly unity at DC for integrating plants.

    Raises
    ------
    NumericsError
        On spectral-factorization failure, a non-coprime (a, b) pair,
        or b(0) = 0 (the DC normalization is undefined).
    """
    a, b = P.den, P.num
    if b.is_zero:
        raise ValueError("plant numerator must be nonzero")
    if not P.is_strictly_proper():
        raise ValueError("plant must be strictly proper")
    if shares_root(a, b):
        raise NumericsError("plant numerator and denominator share a root")
    b0 = float(b(0.0))
    if abs(b0) < 1e-12 * float(np.max(np.abs(b.coeffs))):
        raise NumericsError("b(0) = 0: reference DC normalization undefined")

    d_rho = spectral_factor(a, b, w.rho, 1.0)
    d_lk = spectral_factor(a, b, w.k, w.lam)
    p, q = solve_diophantine(a, b, d_rho * d_lk)

    c2 = RationalTF(q, p)
    c1 = RationalTF(d_lk * (float(d_rho(0.0)) / b0), p)
    return TwoDofController(
        c1=c1, c2=c2, d_rho=d_rho, d_lambda_k=d_lk, p=p, q=q, weights=w
    )


def coprime_factorize(P: RationalTF, C0: RationalTF) -> CoprimeFactorization:
    """Stable coprime fractions of P seeded by a stabilizing controller C0.

    With P = b/a and C0 = q0/p0, the closed-loop characteristic
    c = a p0 + b q0 must be Hurwitz.  c is factored once: its roots give
    both the test of ``is_hurwitz`` and the split c = f h with deg f =
    n = deg a.  f takes the first k = min(pairs, n // 2) conjugate pairs
    and the first n - 2k real roots in the (real, imag) order of
    ``roots``, fastest first; h takes the rest.  Only an odd n with no
    real root in c falls short, by one; as ``roots`` can return a double
    real root as a pair, the pair with the least |Im r|/|r| then gives
    two real roots at Re r, kept if f h matches c within 1e-8 of max|c|.
    f carries lead(f) = lead(c) while h is monic.  Then M = a/f,
    N = b/f, X = p0/h, Y = q0/h are all stable and satisfy
    M X + N Y = 1, verified on a 20-point log frequency grid.

    Raises
    ------
    NumericsError
        If c is not Hurwitz (C0 does not stabilize P), no real degree
        split within that tolerance exists, or the Bezout residual exceeds
        1e-8 anywhere on the verification grid.
    """
    a, b = P.den, P.num
    p0, q0 = C0.den, C0.num
    n = a.degree
    if n < 1:
        raise ValueError("plant denominator must have degree >= 1")
    c = a * p0 + b * q0
    if c.is_zero:
        raise NumericsError("degenerate loop: a p0 + b q0 is identically zero")
    c_roots = roots(c)
    if not _all_stable(c_roots):
        raise NumericsError("C0 does not stabilize P: a p0 + b q0 is not Hurwitz")

    if c.degree < n:
        raise NumericsError("characteristic degree collapsed below deg(a)")
    # roots pairs conjugates exactly, so each upper root stands for its pair
    upper, real = c_roots[c_roots.imag > 0.0], c_roots[c_roots.imag == 0.0]
    k = min(len(upper), n // 2)
    short = n - 2 * k > len(real)
    if short:  # only with odd n and no real root, so real is empty
        j = np.argmin(upper.imag / np.abs(upper))
        real, upper = np.full(2, upper[j].real), np.delete(upper, j)
    f_roots = np.concatenate([upper[:k], upper[:k].conj(), real[: n - 2 * k]])
    h_roots = np.concatenate([upper[k:], upper[k:].conj(), real[n - 2 * k :]])
    f = Polynomial.from_roots(f_roots, leading=float(c.coeffs[0]))
    h = Polynomial.from_roots(h_roots)
    if short and not (np.max(np.abs((f * h - c).coeffs))
                      <= 1e-8 * np.max(np.abs(c.coeffs))):
        raise NumericsError(
            "cannot split the characteristic polynomial into real factors "
            f"of degrees {n} and {c.degree - n}"
        )

    fact = CoprimeFactorization(
        M=RationalTF(a, f),
        N=RationalTF(b, f),
        X=RationalTF(p0, h),
        Y=RationalTF(q0, h),
        f=f,
        h=h,
    )
    _check_bezout(fact)
    return fact


# Largest |M X + N Y - 1| accepted on the check grid.
_BEZOUT_TOL = 1e-8


def _check_bezout(fact: CoprimeFactorization) -> None:
    """Raise unless |M X + N Y - 1| <= _BEZOUT_TOL on a 20-point log grid
    from 0.01 to 100 Hz.  The four fractions are evaluated once each, as
    arrays over the whole grid; the message names the first grid
    frequency that fails."""
    freqs = np.logspace(np.log10(0.01), np.log10(100.0), 20)
    s = 2j * np.pi * freqs
    err = np.abs(fact.M(s) * fact.X(s) + fact.N(s) * fact.Y(s) - 1.0)
    bad = ~(err <= _BEZOUT_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericsError(
            f"Bezout identity residual {err[i]:.3e} at {freqs[i]:.4g} Hz"
        )


def closed_loop_maps(P: RationalTF, ctrl) -> ClosedLoopMaps:
    """All twelve loop maps of the 2-DOF interconnection, uncancelled.

    ``ctrl`` is a TwoDofController or a (C1, C2) pair over any
    denominators.  The maps are composed exactly as written (products
    over the common return difference 1 + P C2), so a hidden unstable
    factor stays in each map's denominator for ``is_hurwitz`` to find.

    The disturbance and noise maps depend only on P and C2 — swapping C1
    changes nothing in from_d / from_n, coefficient for coefficient.
    """
    c1, c2 = _controller_pair(ctrl)
    ret_diff = 1 + P * c2
    r_u = c1 / ret_diff
    r_y = P * c1 / ret_diff
    from_r = SignalMaps(u=r_u, v=r_u, y=r_y, z=r_y)

    d_u = -(P * c2 / ret_diff)
    d_v = 1.0 / ret_diff
    d_y = P / ret_diff
    from_d = SignalMaps(u=d_u, v=d_v, y=d_y, z=d_y)

    n_u = -(c2 / ret_diff)
    n_y = 1.0 / ret_diff
    n_z = -(P * c2 / ret_diff)
    from_n = SignalMaps(u=n_u, v=n_u, y=n_y, z=n_z)
    return ClosedLoopMaps(from_r=from_r, from_d=from_d, from_n=from_n)


def _torque_char(P: RationalTF, c2: RationalTF) -> Polynomial:
    """Characteristic polynomial of the torque loop, a p + b n2."""
    return P.den * c2.den + P.num * c2.num


def _motion_map(model: SeaModel, c2: RationalTF) -> RationalTF:
    """G / (1 + P C2) as the exact quotient num(G) s p / (a p + b n2).

    The plant pair shares the actuator dynamics, den(P) = s den(G) (a
    ``SeaModel`` invariant), so the actuator factor divides out at
    polynomial level.  Composing the quotient operator-style instead
    would duplicate that factor in the denominator.
    """
    num = model.G.num * Polynomial([1.0, 0.0]) * c2.den
    return RationalTF(num, _torque_char(model.P, c2))


def build_compensator(model: SeaModel, ctrl) -> RationalTF:
    """Load-motion feedforward compensator C_L = G / (1 + P C2).

    Subtracting C_L phi_L from the torque reference cancels the coupling
    of load motion into the closed torque loop to the extent the
    reference map is unity.  Returned as an exact quotient; biproper
    with high-frequency gain equal to G's (P C2 rolls off).

    Raises
    ------
    NumericsError
        If the closed torque loop is unstable.
    """
    _, c2 = _controller_pair(ctrl)
    cl = _motion_map(model, c2)
    if not is_hurwitz(cl.den):
        raise NumericsError("closed torque loop is unstable; no compensator")
    return cl


def _feedforward_quotient(P: RationalTF, ctrl, num: Polynomial) -> RationalTF:
    """(num/a) C1 / (1 + P C2) for P = b/a, C1 = n1/p and C2 = n2/p.

    num = b gives the reference map G1, num = num(G) s the compensated
    feedforward C1 C_L.  In general this is the exact quotient num n1 /
    (a p + b n2).  For a ``TwoDofController`` on the plant it was
    designed for it is kappa num / d_rho instead, from the design's own
    factors: C1 = kappa d_lambda_k / p with kappa = d_rho(0)/b(0), and
    a p + b q = d_rho d_lambda_k, so d_lambda_k divides out.  The guard
    is that identity on P, within ``solve_diophantine``'s bound (1e-8 of
    the largest coefficient of d_rho d_lambda_k).
    """
    c1, c2 = _controller_pair(ctrl)
    if isinstance(ctrl, TwoDofController):
        target = ctrl.d_rho * ctrl.d_lambda_k
        residual = P.den * ctrl.p + P.num * ctrl.q - target
        bound = _DIOPHANTINE_TOL * float(np.max(np.abs(target.coeffs)))
        if float(np.max(np.abs(residual.coeffs))) <= bound:
            kappa = float(ctrl.d_rho(0.0)) / float(P.num(0.0))
            return RationalTF(num * kappa, ctrl.d_rho)
    return RationalTF(num * c1.num, _torque_char(P, c2))


def torque_loop_maps(
    model: SeaModel, ctrl, with_compensator: bool
) -> tuple[RationalTF, RationalTF]:
    """Closed torque-loop responses (reference map, load-motion map).

    Returns (G1, H_phi) with G1 = P C1 / (1 + P C2) and H_phi the
    transfer from load motion phi_L to delivered torque: G2 = G/(1+P C2)
    uncompensated, or (1 - G1) G2 with the feedforward compensator
    active.

    C1 = n1/p and C2 = n2/p must share one denominator, as in
    ``TorqueLoopScenario`` (a PI pair shares s).  Each map is then an
    exact polynomial quotient, and nothing is cancelled by matching
    roots: G2 is ``build_compensator``'s num(G) s p / (a p + b n2), with
    P = b/a, and G1 is ``_feedforward_quotient`` of b.

    Raises
    ------
    ValueError
        If C1 and C2 do not share one denominator.
    NumericsError
        If either map is unstable.
    """
    _, c2 = _shared_denominator_pair(ctrl)
    g1 = _feedforward_quotient(model.P, ctrl, model.P.num)
    g2 = _motion_map(model, c2)
    # off the design path G1 and G2 share a p + b n2: factor it once
    if not all(is_hurwitz(den) for den in dict.fromkeys((g1.den, g2.den))):
        raise NumericsError("closed torque loop is unstable")
    h_phi = (1.0 - g1) * g2 if with_compensator else g2
    return g1, h_phi
