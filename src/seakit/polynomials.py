"""Real-coefficient polynomials in the Laplace variable s.

Coefficients are stored highest degree first, the order of ``np.polyval``.
This module carries the numerical substrate for controller synthesis:
root extraction from the companion matrix with a residual check,
Hurwitz tests, spectral factorization of even polynomials, and a
coprimality test of a plant's numerator and denominator that compares
all their root pairs at once.

All tolerances are relative; absolute thresholds would silently change
meaning between the physical parameter scale (coefficients spanning
1e-7 .. 4e6) and unit-test toy polynomials.

A design works on 2 to 7 coefficients, where numpy's per-call wrappers
cost more than the arithmetic.  So evaluation and ``roots`` loop over
Python floats and call ``np.linalg.eigvals`` themselves, bit-identical
to ``np.polyval`` and ``np.roots``.
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
    "shares_root",
]

# Leading coefficients of a sum below this fraction of the operands' own
# coefficients at the same degree are cancellation noise (a cancelled top
# term) and are stripped.  The constructor itself strips exact zeros only:
# a genuinely tiny leading coefficient (rho-weighted factors reach 1e-13
# of their trailing terms) must survive products and one-sided sums.
_STRIP_REL = 1e-12

_ROOT_REL_TOL = 1e-8  # bound on the scaled residual of a root
_GCD_TOL = 1e-6  # relative distance within which shares_root pairs roots
_SPECTRAL_REL_TOL = 1e-8  # bound on a spectral factor's reconstruction error
_AXIS_REL = 1e-7  # |Re r| / max(1, |r|) at or below which r is an axis root
_FLOAT = np.dtype(float)
_ZERO = np.float64(0.0)


class Polynomial:
    """Immutable dense real polynomial, coefficients highest degree first.

    Construction normalizes: coefficients are converted to float64 and
    leading exact zeros are stripped; complex or non-finite coefficients
    raise ``ValueError``.  The zero polynomial is
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
        arr = np.array(coeffs, ndmin=1)
        if arr.dtype != _FLOAT:
            if arr.dtype.kind == "c":
                raise ValueError("coefficients must be real")
            arr = arr.astype(float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D sequence")
        values = arr.tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("coefficients must be finite")
        if values[0] == 0.0:
            nz = arr.nonzero()[0]
            arr = arr[nz[0]:] if nz.size else np.zeros(1)
        arr.setflags(write=False)
        self.coeffs = arr

    @classmethod
    def from_roots(cls, rts: Sequence[complex], leading: float = 1.0) -> "Polynomial":
        """Monic-from-roots times ``leading``.

        The coefficients are ``np.poly``'s: one convolution per root, in
        complex arithmetic.  Roots must be closed under conjugation; the
        (numerically tiny) imaginary parts of the expanded coefficients
        are discarded.
        """
        c = np.ones(1, dtype=complex)
        for z in np.asarray(rts, dtype=complex).tolist():
            c = np.convolve(c, np.array([1.0, -z]))
        if np.abs(c.imag).max() > 1e-8 * max(np.abs(c).max(), 1e-300):
            raise ValueError("root set is not closed under conjugation")
        return cls(leading * c.real)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        """Evaluate at a scalar or array argument, as ``np.polyval``."""
        return _polyval(self.coeffs, s)

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
        # in floats, which add as numpy's do: the operands are short
        n = max(len(self.coeffs), len(p.coeffs))
        x = [0.0] * (n - len(self.coeffs)) + self.coeffs.tolist()
        y = [0.0] * (n - len(p.coeffs)) + p.coeffs.tolist()
        a = [xk + yk for xk, yk in zip(x, y)]
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
        return self.coeffs.tolist() == other.coeffs.tolist()

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal polynomials hash alike
        return hash((self.coeffs + 0.0).tobytes())

    # -- transforms ----------------------------------------------------

    def negate_argument(self) -> "Polynomial":
        """Return p(-s): flips the sign of odd-power coefficients."""
        c = self.coeffs.copy()
        c[-2::-2] *= -1.0
        return Polynomial(c)

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


def _polyval(coeffs: np.ndarray, s):
    """``np.polyval(coeffs, s)`` bit for bit: its multiply-adds in its
    order, from a float64 zero, so a narrower point is computed in float64.

    A real scalar stays a scalar, which is faster.  Any other point is
    made an array, so a complex product runs through numpy's array loop,
    as in ``np.polyval``: Python's complex product can round differently.
    A scalar point gives a numpy scalar.
    """
    x = s if isinstance(s, float) else np.asanyarray(s)
    y = _ZERO
    for c in coeffs.tolist():
        y = y * x + c
    return y


def _peak(p: Polynomial) -> float:
    """max |coefficient| of ``p``, taken over Python floats."""
    return max(map(abs, p.coeffs.tolist()))


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex), which is hypot."""
    return np.hypot(z.real, z.imag)


def _eval_scale(coeffs: np.ndarray, rts: np.ndarray) -> np.ndarray:
    # Sum of |c_i| |r|^power bounds |p(r)| from roundoff alone; dividing by
    # it gives a scale-free residual even for huge/tiny coefficient spans.
    deg = len(coeffs) - 1
    powers = _magnitude(rts)[:, None] ** np.arange(deg, -1, -1, dtype=float)
    return np.maximum(np.add.reduce(np.abs(coeffs) * powers, axis=1), 1e-300)


def roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p``: the eigenvalues of its companion matrix.

    The matrix is the one ``np.roots`` builds, with first row -c[1:]/c[0]
    over the coefficients left once trailing zeros are dropped; each
    trailing zero adds an exact root at 0.  LAPACK balances the matrix.
    Companion eigenvalues are backward stable (Edelman & Murakami, Math.
    Comp. 64, 1995), and LAPACK returns a real matrix's complex
    eigenvalues in exact conjugate pairs.  A root is snapped to the real
    axis when |imag| <= 1e-8 max(1, |r|), judged by its own magnitude: a
    resonance at 1 rad/s stays complex beside a root at 1e9 rad/s.  The
    result is a complex array of the deg p roots, multiplicities
    repeated, sorted by (real, imag).  A nonzero constant has no roots:
    the result is then an empty complex array.

    Raises
    ------
    ValueError
        If ``p`` is the zero polynomial.
    NumericsError
        If the companion eigenvalues cannot be computed, or if the scaled
        residual max |p(r)| / scale(r) exceeds ``_ROOT_REL_TOL`` or is not
        a number (a NaN eigenvalue included).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root set")
    coeffs = p.coeffs
    c = coeffs.tolist()
    m = len(c) - 1  # the order of the companion matrix
    while c[m] == 0.0:
        m -= 1
    found = []
    if m:
        companion = np.eye(m, k=-1)
        companion[0] = [-ck / c[0] for ck in c[1:m + 1]]
        try:
            found = np.linalg.eigvals(companion).tolist()
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"roots failed at degree {p.degree}: {exc}") from exc
    # snapped and sorted over Python numbers, as few as they are
    r = np.array(sorted(
        (z.real, 0.0) if abs(z.imag) <= 1e-8 * max(1.0, abs(z)) else (z.real, z.imag)
        for z in found + [0.0] * (len(c) - 1 - m)
    ), dtype=float).view(complex).reshape(-1)
    scaled = _magnitude(_polyval(coeffs, r)) / _eval_scale(coeffs, r)
    residual = float(scaled.max(initial=0.0))
    if not residual <= _ROOT_REL_TOL:  # a NaN residual fails too
        raise NumericsError(f"root residual {residual:.3e} exceeds {_ROOT_REL_TOL:.1e}")
    return r


def is_hurwitz(p: Polynomial) -> bool:
    """True when every root lies strictly in the open left half plane.

    A root must satisfy Re(r) < -1e-9 * max(1, max|root|) to count as
    stable, so axis roots fail.

    A nonzero constant has no roots and is vacuously Hurwitz; the zero
    polynomial raises ``ValueError``, as in ``roots``.
    """
    return _all_stable(roots(p))


def _all_stable(rs: np.ndarray) -> bool:
    """The Hurwitz test of ``is_hurwitz`` on roots already found."""
    scale = float(np.max(np.abs(rs), initial=1.0))
    return bool(np.all(rs.real < -1e-9 * scale))


def shares_root(p: Polynomial, q: Polynomial) -> bool:
    """True when roots r_p of ``p`` and r_q of ``q`` have, over all pairs
    at once, |r_p - r_q| <= _GCD_TOL * max(1, |r_p|, |r_q|).

    A nonzero constant has no roots, so it shares none; the zero
    polynomial raises ``ValueError``, as in ``roots``.
    """
    rp, rq = roots(p)[:, None], roots(q)[None, :]
    scale = np.maximum(1.0, np.maximum(_magnitude(rp), _magnitude(rq)))
    return bool(np.any(_magnitude(rp - rq) <= _GCD_TOL * scale))


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
        If E has a root r with |Re r| <= ``_AXIS_REL`` max(1, |r|) (on or
        near the imaginary axis), if fewer or more than half of its roots
        lie in the left half plane, or if a coefficient of d(-s)d(s) - E
        exceeds ``_SPECTRAL_REL_TOL`` max|E|.
    """
    if weight_a <= 0.0 or weight_b <= 0.0:
        raise ValueError("weights must be strictly positive")
    if a.is_zero and b.is_zero:
        raise ValueError("a and b must not both be zero")
    E = (a.negate_argument() * a) * (weight_a**2)
    E = E + (b.negate_argument() * b) * (weight_b**2)
    # E is even by construction; odd coefficients are pure roundoff.
    coeffs = E.coeffs.copy()
    coeffs[len(coeffs) % 2::2] = 0.0  # the odd powers of s
    E = Polynomial(coeffs)
    # exact conjugate pairs, sorted: lhp needs no re-pairing before from_roots
    rts = roots(E)
    axis = rts[np.abs(rts.real) <= _AXIS_REL * np.maximum(1.0, np.abs(rts))]
    if len(axis):
        raise NumericsError(
            f"imaginary-axis root near {axis[0]:.6g}; no stable spectral factor"
        )
    lhp = rts[rts.real < 0]
    if 2 * len(lhp) != E.degree:
        raise NumericsError("even polynomial roots are not +/- symmetric")
    monic = Polynomial.from_roots(lhp)
    e0 = float(E(0.0))
    m0 = float(monic(0.0))
    if e0 <= 0.0 or m0 <= 0.0:
        raise NumericsError("spectral factor lost positivity at s = 0")
    d = monic * (math.sqrt(e0) / m0)
    recon = d.negate_argument() * d
    err = _peak(recon - E)
    bound = _SPECTRAL_REL_TOL * _peak(E)
    if err > bound:
        raise NumericsError(
            f"spectral factor reconstruction error {err:.3e} exceeds {bound:.3e}"
        )
    return d
