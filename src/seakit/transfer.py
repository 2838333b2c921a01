"""Rational transfer functions, state-space realization, frequency response.

``RationalTF`` is a thin pair of :class:`~seakit.polynomials.Polynomial`
objects normalized to a monic denominator.  Composition operators
(series, +, *, /) never cancel common factors, so an internal-stability
check cannot be fooled by a silently cancelled unstable factor.  The
loop maps of :mod:`seakit.synthesis` are exact polynomial quotients.

``FrequencyResponse`` holds a response on a grid, computed from a model
or estimated from data.  The unwrapped phase of a transfer function has
one algorithm, the root sum of its zeros and poles: ``frequency_response``
takes it on a grid and the Bode metrics of :mod:`seakit.identify` at
their crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .polynomials import Polynomial, _polyval, roots

__all__ = [
    "RationalTF",
    "StateSpace",
    "FrequencyResponse",
    "series",
    "to_state_space",
    "frequency_response",
    "poles",
    "zeros",
]


class RationalTF:
    """Real rational function num(s)/den(s) with a monic denominator.

    Parameters
    ----------
    num, den : Polynomial or coefficient sequence
        Highest degree first.  ``den`` must be nonzero; both are scaled
        by the reciprocal of the leading denominator coefficient on
        construction, and the stored leading coefficient is exactly 1, so
        constructing again from a stored pair changes no coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den) -> None:
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValueError("denominator must be nonzero")
        if num.is_zero:
            # canonical zero: 0/1, so zero branches drop out of compositions
            den = Polynomial([1.0])
        inv = 1.0 / float(den.coeffs[0])
        monic = den.coeffs * inv
        monic[0] = 1.0  # lead * (1 / lead) can round to 1 - 2**-53
        self.num = num * inv
        self.den = Polynomial(monic)

    # -- queries --------------------------------------------------------

    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    def __call__(self, s):
        """Evaluate at a complex point or an array of them, with numpy's
        complex division; a point gives a numpy complex scalar.

        Raises NumericsError at a (near-)pole: |den(s)| below 1e-12 of
        sum |a_k| max(1, |s|)^k over the denominator coefficients a_k.
        """
        dv = self.den(s)
        scale = _polyval(np.abs(self.den.coeffs), np.maximum(1.0, np.abs(s)))
        hit = np.abs(dv) < 1e-12 * scale
        if hit.any():
            s_bad = complex(np.ravel(s)[np.argmax(hit)])
            raise NumericsError(f"evaluation at a pole: |den({s_bad:.6g})| ~ 0")
        return self.num(s) / dv

    def __repr__(self) -> str:
        return f"RationalTF(({self.num}) / ({self.den}))"

    # -- algebra ----------------------------------------------------------

    def _coerce(self, other) -> "RationalTF | None":
        if isinstance(other, RationalTF):
            return other
        if isinstance(other, (int, float)):
            return RationalTF([float(other)], [1.0])
        return None

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return RationalTF(self.num * g.num, self.den * g.den)

    __rmul__ = __mul__

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return RationalTF(self.num * g.den + g.num * self.den, self.den * g.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalTF(-self.num, self.den)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if g.num.is_zero:
            raise ZeroDivisionError("division by the zero transfer function")
        return RationalTF(self.num * g.den, self.den * g.num)

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g.__truediv__(self)


def series(g: RationalTF, h: RationalTF) -> RationalTF:
    """Cascade g*h; no cancellation."""
    return g * h


def poles(tf: RationalTF) -> np.ndarray:
    """Denominator roots (of the stored, possibly non-minimal form)."""
    return roots(tf.den)


def zeros(tf: RationalTF) -> np.ndarray:
    """Numerator roots; the zero function has no zero set (ValueError)."""
    return roots(tf.num)


@dataclass(frozen=True)
class StateSpace:
    """Realization dx = Ax + Bu, y = Cx + D u with m inputs and one output.

    A is (n, n), B is (n, m), C is (n,) and D is (m,): column j of B and
    entry j of D belong to input j.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]


def to_state_space(*tfs: RationalTF) -> StateSpace:
    """Observable canonical realization of proper TFs over one denominator.

    The transfer functions share the monic denominator s^n + a1 s^(n-1)
    + ... + an and each drives the single output from its own input.
    With the direct term D_j of tf j removed, its numerator residue
    b_j1 s^(n-1) + ... + b_jn becomes column j of B:

        A = [[-a1, 1, 0, ...], [-a2, 0, 1, ...], ..., [-an, 0, ..., 0]],
        B[:, j] = [b_j1 ... b_jn],  C = e1.

    The n states are shared by all inputs, so a pair like the actuator's
    drive and coupling paths is realized without duplicated poles.  A
    constant gain (n = 0) has no states.

    Raises
    ------
    ValueError
        If a transfer function is improper, or the denominators differ
        in any coefficient.
    """
    if not tfs:
        raise ValueError("state-space realization needs a transfer function")
    den = tfs[0].den
    n = den.degree
    nums = np.zeros((len(tfs), n + 1))
    for j, tf in enumerate(tfs):
        if not tf.is_proper():
            raise ValueError(
                "state-space realization requires a proper transfer function"
            )
        if tf.den != den:
            raise ValueError("transfer functions must share one denominator")
        nums[j, n + 1 - len(tf.num.coeffs):] = tf.num.coeffs
    d = nums[:, 0].copy()
    A = np.eye(n, k=1)
    if n:
        A[:, 0] = -den.coeffs[1:]
    B = (nums[:, 1:] - np.outer(d, den.coeffs[1:])).T
    return StateSpace(A, B, np.eye(1, n)[0], d)


@dataclass(frozen=True)
class FrequencyResponse:
    """Gain/phase samples over an ascending frequency grid, computed from
    a model or estimated from data.

    Attributes
    ----------
    freqs_hz, magnitude_db, phase_deg : ndarray
        Equal-length; phase is unwrapped along the grid.
    coherence : ndarray
        Magnitude-squared coherence in [0, 1]; values near 1 mark
        frequencies where the linear fit explains the output, and a
        model's response has coherence 1 throughout.
    """

    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray
    coherence: np.ndarray

    def __post_init__(self):
        lens = {len(self.freqs_hz), len(self.magnitude_db),
                len(self.phase_deg), len(self.coherence)}
        if len(lens) != 1:
            raise ValueError("channel lengths differ")
        f = self.freqs_hz
        if not (np.all(np.isfinite(f)) and np.all(np.diff(f) > 0)):
            raise ValueError("freqs_hz must be finite and strictly ascending")
        if not np.all((self.coherence >= 0.0) & (self.coherence <= 1.0)):
            raise ValueError("coherence must lie in [0, 1]")


def _unwrapped_phase(tf: RationalTF, w, w_ref: float) -> np.ndarray:
    """Unwrapped phase of tf at w rad/s, in degrees, on the branch that is
    principal at w_ref.

    The unwrapped phase is the root sum sum_i arg(jw - z_i) - sum_i
    arg(jw - p_i) over the zeros and poles, shifted by whole turns to
    equal the principal angle at w_ref.  It is returned as the principal
    angle of tf(jw) plus the whole turns the root sum calls for, so roots
    perturbed by rounding (a repeated root splits by eps^(1/m)) choose
    the turn but do not move the value.
    """
    w = np.append(np.asarray(w, dtype=float), w_ref)
    principal = np.angle(tf(1j * w))
    root_sum = np.zeros_like(w)
    jw = 1j * w[:, None]
    for p, sign in ((tf.num, 1.0), (tf.den, -1.0)):
        if p.is_zero:
            continue  # the zero function: its phase is angle(0) = 0
        z = roots(p)
        # jw - z crosses the negative real axis when Re z > 0: measure
        # those as arg(z - jw), which is continuous there and off by pi
        args = np.where(z.real > 0.0, np.angle(z - jw), np.angle(jw - z))
        root_sum += sign * np.sum(args, axis=1)
    unwrapped = root_sum - root_sum[-1] + principal[-1]
    turns = np.round((unwrapped - principal) / (2.0 * np.pi))
    return np.degrees(principal + 2.0 * np.pi * turns)[:-1]


def frequency_response(tf: RationalTF, freqs_hz) -> FrequencyResponse:
    """Sample magnitude [dB] and unwrapped phase [deg] at given frequencies.

    The phase is principal at the first grid point and follows the root
    sum of ``tf``'s zeros and poles from there, so it never jumps by 360
    between neighboring grid points regardless of grid density.
    Coherence is 1 throughout.

    Raises
    ------
    NumericsError
        If the grid hits a pole of ``tf``.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequency grid must be a non-empty 1-D array")
    if not (np.all(np.isfinite(freqs) & (freqs >= 0)) and np.all(np.diff(freqs) > 0)):
        raise ValueError("freqs_hz must be finite, nonnegative and strictly ascending")
    w = 2.0 * np.pi * freqs
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(tf(1j * w)))
    phase = _unwrapped_phase(tf, w, w[0])
    return FrequencyResponse(freqs, mag_db, phase, np.ones_like(freqs))
