"""Real-coefficient polynomials in the Laplace variable s.

Coefficients are stored highest degree first, matching ``np.polyval``.
This module carries the numerical substrate for controller synthesis:
root extraction with a Newton polish, Hurwitz tests, spectral
factorization of even polynomials, and an approximate-GCD degree used
for coprimeness checks and pole/zero cancellation.

All tolerances are relative; absolute thresholds would silently change
meaning between the physical parameter scale (coefficients spanning
1e-7 .. 4e6) and unit-test toy polynomials.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NumericsError

__all__ = [
    "Polynomial",
    "format_poly",
    "roots",
    "is_hurwitz",
    "spectral_factor",
    "gcd_degree",
]

# Leading coefficients of a sum below this fraction of the operands' own
# coefficients at the same degree are cancellation noise (a cancelled top
# term) and are stripped.  The constructor itself strips exact zeros only:
# a genuinely tiny leading coefficient (rho-weighted factors reach 1e-13
# of their trailing terms) must survive products and one-sided sums.
_STRIP_REL = 1e-12

_ROOT_REL_TOL = 1e-8  # bound on the scaled residual of a root
_NEWTON_STEPS = 4  # Newton corrections per root
_GCD_TOL = 1e-6  # relative distance within which gcd_degree matches roots
_SPECTRAL_REL_TOL = 1e-8  # bound on a spectral factor's reconstruction error


class Polynomial:
    """Immutable dense real polynomial, coefficients highest degree first.

    Construction normalizes: coefficients are converted to float64 and
    leading exact zeros are stripped.  The zero polynomial is
    represented as ``[0.0]``.  Sums additionally strip leading terms
    that are negligible against the operands, so a cancellation that is
    exact in real arithmetic does not leave a noise-degree behind.

    Parameters
    ----------
    coeffs : sequence of float
        ``coeffs[0]`` multiplies the highest power of s.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[float] | np.ndarray | float) -> None:
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        nz = np.nonzero(arr)[0]
        if nz.size == 0:
            arr = np.zeros(1)
        else:
            arr = arr[nz[0]:]
        arr.flags.writeable = False
        self.coeffs = arr

    @classmethod
    def from_roots(cls, rts: Sequence[complex], leading: float = 1.0) -> "Polynomial":
        """Monic-from-roots times ``leading``.

        Roots must be closed under conjugation; the (numerically tiny)
        imaginary parts of the expanded coefficients are discarded.
        """
        rts = np.asarray(rts, dtype=complex)
        c = np.poly(rts) if rts.size else np.ones(1)
        imag_scale = float(np.max(np.abs(c))) if c.size else 1.0
        if np.max(np.abs(c.imag)) > 1e-8 * max(imag_scale, 1e-300):
            raise ValueError("root set is not closed under conjugation")
        return cls(leading * c.real)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        """Evaluate at a scalar or array argument (Horner)."""
        return np.polyval(self.coeffs, s)

    # -- algebra -------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float)):
            return Polynomial([float(other)])
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        n = max(len(self.coeffs), len(p.coeffs))
        x = np.zeros(n)
        y = np.zeros(n)
        x[n - len(self.coeffs):] = self.coeffs
        y[n - len(p.coeffs):] = p.coeffs
        a = x + y
        # Strip top terms the cancellation reduced to noise, judged per
        # degree against the operands' own coefficients there: a small
        # lead contributed by one operand alone is structure, not noise.
        k = 0
        while k < n - 1 and abs(a[k]) <= _STRIP_REL * (abs(x[k]) + abs(y[k])):
            k += 1
        return Polynomial(a[k:])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0.0])
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return Polynomial(self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    # -- calculus / transforms ----------------------------------------

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial([0.0])
        return Polynomial(np.polyder(self.coeffs))

    def negate_argument(self) -> "Polynomial":
        """Return p(-s): flips the sign of odd-power coefficients."""
        deg = len(self.coeffs) - 1
        signs = np.array([(-1.0) ** (deg - i) for i in range(len(self.coeffs))])
        return Polynomial(self.coeffs * signs)

    def __repr__(self) -> str:
        return f"Polynomial({np.array2string(self.coeffs, separator=', ')})"

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: Polynomial) -> str:
    """Human-readable rendering, e.g. ``3.2056 s + 94.38``."""
    if p.is_zero:
        return "0"
    deg = p.degree
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0.0:
            continue
        power = deg - i
        mag = "%.6g" % abs(c)
        if power == 0:
            term = mag
        elif power == 1:
            term = f"{mag} s" if abs(c) != 1.0 else "s"
        else:
            term = f"{mag} s^{power}" if abs(c) != 1.0 else f"s^{power}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    sign0, term0 = parts[0]
    out = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex), which is hypot."""
    return np.hypot(z.real, z.imag)


def _eval_scale(coeffs: np.ndarray, rts: np.ndarray) -> np.ndarray:
    # Sum of |c_i| |r|^power bounds |p(r)| from roundoff alone; dividing by
    # it gives a scale-free residual even for huge/tiny coefficient spans.
    deg = len(coeffs) - 1
    powers = _magnitude(rts)[:, None] ** np.arange(deg, -1, -1, dtype=float)
    s = np.sum(np.abs(coeffs) * powers, axis=1)
    return np.maximum(s, 1e-300)


def _pair_conjugates(rts: np.ndarray) -> np.ndarray:
    """Snap near-real roots to the axis and force exact conjugate pairs.

    A root is near-real when |imag| <= 1e-8 max(1, |r|), judged by its
    own magnitude: a resonance at 1 rad/s stays complex beside a root at
    1e9 rad/s.
    """
    if rts.size == 0:
        return rts
    snap = 1e-8 * np.maximum(1.0, np.abs(rts))
    real_part = [complex(r.real, 0.0) for r, t in zip(rts, snap) if abs(r.imag) <= t]
    pos = sorted((r for r, t in zip(rts, snap) if r.imag > t),
                 key=lambda r: (r.real, r.imag))
    neg = sorted((r for r, t in zip(rts, snap) if r.imag < -t),
                 key=lambda r: (r.real, -r.imag))
    paired = []
    # Real coefficients guarantee matching counts; if they differ the strays
    # are effectively real within tolerance.
    while pos and neg:
        a = pos.pop(0)
        b = neg.pop(0)
        re = 0.5 * (a.real + b.real)
        im = 0.5 * (a.imag - b.imag)
        paired.extend([complex(re, im), complex(re, -im)])
    for leftover in pos + neg:
        real_part.append(complex(leftover.real, 0.0))
    out = np.array(real_part + paired, dtype=complex)
    return np.array(sorted(out, key=lambda r: (r.real, r.imag)), dtype=complex)


def roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p`` via the balanced companion matrix, polished.

    Each eigenvalue gets up to ``_NEWTON_STEPS`` Newton corrections which
    are only accepted while they reduce |p(r)|; the polish is skipped
    near-multiple roots where p'(r) underflows the local scale.  The
    result is a complex array of the deg p roots, multiplicities
    repeated, in exact conjugate pairs (near-real roots snapped to the
    axis) and sorted by (real, imag).

    Raises
    ------
    ValueError
        If ``p`` has degree < 1.
    NumericsError
        If the scaled residual max |p(r)| / scale(r) exceeds ``_ROOT_REL_TOL``.
    """
    if p.degree < 1:
        raise ValueError("root extraction requires degree >= 1")
    coeffs = p.coeffs
    der = p.derivative().coeffs
    r = np.roots(coeffs).astype(complex)
    fr = np.polyval(coeffs, r)
    # Every root takes its corrections at once; `live` holds the roots
    # still being corrected, and a root leaves it for good.
    live = np.arange(len(r))
    for _ in range(_NEWTON_STEPS):
        dfr = np.polyval(der, r[live])
        # derivative too small: near-multiple root, keep as is
        keep = ~(_magnitude(dfr) < 1e-14 * _eval_scale(der, r[live]))
        live, dfr = live[keep], dfr[keep]
        cand = r[live] - fr[live] / dfr
        fc = np.polyval(coeffs, cand)
        better = _magnitude(fc) < _magnitude(fr[live])
        live = live[better]
        r[live] = cand[better]
        fr[live] = fc[better]
        if not len(live):
            break
    sym = _pair_conjugates(r)
    residual = float(np.max(
        _magnitude(np.polyval(coeffs, sym)) / _eval_scale(coeffs, sym)
    ))
    if residual > _ROOT_REL_TOL:
        raise NumericsError(
            f"root refinement residual {residual:.3e} exceeds {_ROOT_REL_TOL:.1e}"
        )
    return sym


def is_hurwitz(p: Polynomial) -> bool:
    """True when every root lies strictly in the open left half plane.

    A root must satisfy Re(r) < -1e-9 * max(1, max|root|) to count as
    stable, so axis roots fail.

    Degree-0 polynomials have no roots and are vacuously Hurwitz.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no stability classification")
    if p.degree == 0:
        return True
    rs = roots(p)
    scale = max(1.0, float(np.max(np.abs(rs))))
    return bool(np.all(rs.real < -1e-9 * scale))


def _match_pairs(
    left: np.ndarray, right: np.ndarray, tol: float
) -> list[tuple[int, int]]:
    """Greedy closest-pair matching between two root sets.

    Pairs are accepted in order of increasing distance while the distance
    stays below ``tol * max(1, |left|, |right|)``; each root is used once.
    """
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
    out = []
    for _, i, j in pairs:
        if i in used_l or j in used_r:
            continue
        used_l.add(i)
        used_r.add(j)
        out.append((i, j))
    return out


def gcd_degree(p: Polynomial, q: Polynomial) -> int:
    """Degree of the approximate GCD: count of root matches within ``_GCD_TOL``.

    Roots r_p, r_q match when |r_p - r_q| <= _GCD_TOL * max(1, |r_p|, |r_q|),
    matched greedily closest-first.  Returns 0 for coprime inputs; either
    argument of degree 0 is coprime to everything.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("gcd_degree requires nonzero polynomials")
    if p.degree == 0 or q.degree == 0:
        return 0
    rp = roots(p)
    rq = roots(q)
    return len(_match_pairs(rp, rq, _GCD_TOL))


def spectral_factor(
    a: Polynomial,
    b: Polynomial,
    weight_a: float,
    weight_b: float,
) -> Polynomial:
    """Stable spectral factor d of  wa^2 a(-s)a(s) + wb^2 b(-s)b(s).

    The right side E(s) is even with E(jw) >= 0; its roots come in +/-
    mirror pairs.  The factor d collects the strict left-half-plane member
    of each pair and is rescaled so that d(-s)d(s) = E exactly at s = 0,
    making d(0) = sqrt(E(0)) > 0 and the leading coefficient positive.

    Parameters
    ----------
    a, b : Polynomial
        Typically a plant denominator/numerator pair; either may be any
        real polynomial, not both zero.
    weight_a, weight_b : float
        Strictly positive scalar weights.

    Raises
    ------
    NumericsError
        If E has a root on (or within tolerance of) the imaginary axis,
        if the +/- pairing fails, or if a coefficient of d(-s)d(s) - E
        exceeds ``_SPECTRAL_REL_TOL`` max|E|.
    """
    if weight_a <= 0.0 or weight_b <= 0.0:
        raise ValueError("weights must be strictly positive")
    if a.is_zero and b.is_zero:
        raise ValueError("a and b must not both be zero")
    E = (a.negate_argument() * a) * (weight_a**2) + (b.negate_argument() * b) * (
        weight_b**2
    )
    # E is even by construction; odd coefficients are pure roundoff.
    coeffs = E.coeffs.copy()
    deg = E.degree
    for i in range(len(coeffs)):
        if (deg - i) % 2 == 1:
            coeffs[i] = 0.0
    E = Polynomial(coeffs)
    if E.degree == 0:
        e0 = float(E.coeffs[0])
        if e0 <= 0.0:
            raise NumericsError("even part is not positive at s = 0")
        return Polynomial([math.sqrt(e0)])

    rts = list(roots(E))
    scale = max(1.0, max(abs(r) for r in rts))
    axis_tol = 1e-7
    selected = []
    # Pair each root with its mirror -r; deterministic order: biggest first.
    rts.sort(key=lambda r: (-abs(r), r.real, r.imag))
    while rts:
        r = rts.pop(0)
        dists = [abs(r + q) for q in rts]
        j = int(np.argmin(dists))
        pair_scale = max(1.0, abs(r))
        if dists[j] > 1e-5 * pair_scale:
            raise NumericsError(
                f"even polynomial roots are not +/- symmetric near {r:.6g}"
            )
        q = rts.pop(j)
        if max(abs(r.real), abs(q.real)) <= axis_tol * pair_scale:
            raise NumericsError(
                f"imaginary-axis root near {r:.6g}; no stable spectral factor"
            )
        selected.append(r if r.real < 0 else q)

    monic = Polynomial.from_roots(_pair_conjugates(np.array(selected)))
    e0 = float(E(0.0))
    m0 = float(monic(0.0))
    if e0 <= 0.0 or m0 <= 0.0:
        raise NumericsError("spectral factor lost positivity at s = 0")
    d = monic * (math.sqrt(e0) / m0)
    recon = d.negate_argument() * d
    err_poly = recon - E
    err = float(np.max(np.abs(err_poly.coeffs))) if not err_poly.is_zero else 0.0
    bound = _SPECTRAL_REL_TOL * float(np.max(np.abs(E.coeffs)))
    if err > bound:
        raise NumericsError(
            f"spectral factor reconstruction error {err:.3e} exceeds {bound:.3e}"
        )
    return d
