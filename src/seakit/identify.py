"""Nonparametric frequency-response estimation and Bode metrics.

The estimator is a Welch-style averaged cross-spectral quotient:
H(f) = S_uy(f) / S_uu(f) over Hann-windowed, half-overlapping segments,
with magnitude-squared coherence reported per frequency, returned as
the same :class:`~seakit.transfer.FrequencyResponse` a model gives.
Averaging across segments is what makes the estimate usable on the
noisy closed-loop traces; a single-shot quotient would be hopeless
there.  The spectra are computed with numpy's FFT alone.

The Bode metrics score a transfer function n/d in closed form over
1e-3 .. 1e4 Hz: each crossing is a real root x = w^2 of a polynomial
built from n(jw) and d(jw), and the unwrapped phase is the root sum of
:mod:`seakit.transfer`, on the branch that is principal at 1e-3 Hz.
No frequency grid is swept.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import write_csv
from .polynomials import Polynomial, roots
from .transfer import FrequencyResponse, RationalTF, _unwrapped_phase

__all__ = [
    "estimate_frf",
    "bandwidth_3db",
    "phase_at",
    "loop_margins",
    "frf_to_csv",
]

_NO_CROSSING = "magnitude never crosses -3 dB in the evaluated range"


def _segment_length(n: int) -> int:
    """Largest power of two giving >= 8 half-overlapping segments."""
    limit = (2 * n) // 9
    if limit < 8:
        raise ValueError(
            f"series too short for a segmented estimate ({n} samples)"
        )
    return 1 << (limit.bit_length() - 1)


def _welch(u: np.ndarray, y: np.ndarray, fs: float, nperseg: int):
    """One-sided Welch densities: (freqs, S_uu, S_yy, S_uy).

    Periodic Hann window, segments of nperseg samples at a step of
    nperseg / 2 (a tail shorter than that is dropped), no detrending,
    and the mean over segments of |U|^2, |Y|^2 and conj(U) Y, scaled to
    a density as scipy.signal.welch and csd scale it.  Welch, IEEE
    Trans. Audio Electroacoust. 15 (1967) 70-73.  One segment is
    transformed at a time and added to the three sums in order, which
    is how np.mean adds the rows of a stack, bit for bit; only one
    segment's spectra are held.
    """
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    step = nperseg // 2
    sums = None
    for count, (su, sy) in enumerate(zip(sliding_window_view(u, nperseg)[::step],
                                         sliding_window_view(y, nperseg)[::step]), 1):
        su, sy = np.fft.rfft(su * window), np.fft.rfft(sy * window)
        terms = (su.real**2 + su.imag**2, sy.real**2 + sy.imag**2, np.conj(su) * sy)
        if sums is None:
            sums = terms
        else:
            for total, term in zip(sums, terms):
                total += term
    # one-sided: every bin but DC and Nyquist (nperseg is even) twice
    scale = np.full(nperseg // 2 + 1, 2.0 / (fs * np.sum(window**2)))
    scale[[0, -1]] *= 0.5
    s_uu, s_yy, s_uy = (scale * (total / count) for total in sums)
    return np.fft.rfftfreq(nperseg, 1.0 / fs), s_uu, s_yy, s_uy


def estimate_frf(
    input_series: np.ndarray,
    output_series: np.ndarray,
    dt_s: float,
    freqs_hz: np.ndarray,
) -> FrequencyResponse:
    """Averaged cross-spectral FRF of output over input.

    Hann window, 50% overlap, at least 8 segments; no detrending, so
    near-DC content survives (the closed torque loop passes DC).  The
    estimate is interpolated onto freqs_hz linearly in log frequency.

    Parameters
    ----------
    input_series, output_series : ndarray
        Equal-length records sampled every dt_s seconds; the record must
        cover at least 2 periods of the lowest requested frequency.
    freqs_hz : array_like
        Strictly positive, ascending evaluation grid, at most Nyquist.

    Raises
    ------
    ValueError
        Length mismatch, a non-finite sample or frequency (named), a
        dt_s that is not finite and positive, insufficient data, a
        requested frequency outside the resolvable band, or vanishing
        input power at a requested frequency.
    """
    u = np.asarray(input_series, dtype=float)
    y = np.asarray(output_series, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("input and output must be equal-length 1-D series")
    for name, x in (("input_series", u), ("output_series", y)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite")
    freqs = np.asarray(freqs_hz, dtype=float)
    if not (len(freqs) and np.all(freqs > 0.0) and np.all(np.diff(freqs) > 0.0)):
        raise ValueError("freqs_hz must be positive and strictly ascending")
    if not (np.isfinite(dt_s) and dt_s > 0.0):
        raise ValueError("dt_s must be finite and positive")
    fs = 1.0 / dt_s
    if freqs[-1] > 0.5 * fs:
        raise ValueError("requested frequency exceeds Nyquist")
    n = len(u)
    if n * dt_s < 2.0 / freqs[0]:
        raise ValueError(
            "record too short: need at least 2 periods of the lowest "
            "requested frequency"
        )

    # Bin 0 is DC; drop it so interpolation can work in log frequency.
    f_grid, s_uu, s_yy, s_uy = (
        a[1:] for a in _welch(u, y, fs, _segment_length(n))
    )
    if freqs[0] < f_grid[0] or freqs[-1] > f_grid[-1]:
        raise ValueError(
            f"requested band [{freqs[0]:.4g}, {freqs[-1]:.4g}] Hz outside "
            f"the resolvable [{f_grid[0]:.4g}, {f_grid[-1]:.4g}] Hz"
        )

    power_floor = 1e-12 * float(np.max(s_uu))
    log_f = np.log10(f_grid)
    log_req = np.log10(freqs)
    uu_at = np.interp(log_req, log_f, s_uu)
    if np.any(uu_at <= power_floor):
        f_bad = freqs[np.argmax(uu_at <= power_floor)]
        raise ValueError(f"no input power at requested frequency {f_bad:.4g} Hz")

    with np.errstate(divide="ignore", invalid="ignore"):
        h = s_uy / s_uu
        coh = np.abs(s_uy) ** 2 / (s_uu * s_yy)
    coh = np.clip(np.nan_to_num(coh, nan=0.0), 0.0, 1.0)
    mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))
    phase_deg = np.degrees(np.unwrap(np.angle(h)))

    return FrequencyResponse(
        freqs_hz=freqs.copy(),
        magnitude_db=np.interp(log_req, log_f, mag_db),
        phase_deg=np.interp(log_req, log_f, phase_deg),
        coherence=np.interp(log_req, log_f, coh),
    )


# The band the Bode metrics of a transfer function are taken over, in
# decades of Hz: 1e-3 to 1e4 Hz; the bandwidth's reference is the gain
# at its low end.
_SWEEP_DECADES = (-3.0, 4.0)
_F_LO, _F_HI = 10.0 ** _SWEEP_DECADES[0], 10.0 ** _SWEEP_DECADES[1]
_W_LO, _W_HI = 2.0 * np.pi * _F_LO, 2.0 * np.pi * _F_HI
# Real roots of a crossing polynomial closer than this, relative, are one
# root of their combined multiplicity: a double root splits by about
# sqrt(eps) in floating point, and a touch is not a crossing.
_CLUSTER_REL = 1e-6


def _on_axis(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(R, I) with p(jw) = R(x) + jw I(x) for x = w^2."""
    c = p.coeffs[::-1]  # lowest power first
    r, i = c[0::2].copy(), c[1::2].copy()
    r[1::2] *= -1.0  # j^2 = -1: every other power of x flips sign
    i[1::2] *= -1.0
    return Polynomial(r[::-1]), Polynomial(i[::-1] if len(i) else 0.0)


def _squared_gain(r: Polynomial, i: Polynomial) -> Polynomial:
    """|p(jw)|^2 = R^2 + x I^2 as a polynomial in x = w^2, from the
    ``_on_axis`` pair (R, I) of p."""
    return r * r + Polynomial([1.0, 0.0]) * i * i


def _sign_changes(f: Polynomial, x_lo: float, x_hi: float):
    """Where f changes sign on (x_lo, x_hi]: ascending (x, sign after).

    The sign at x_lo counts 0 as positive.  Real roots are clustered
    within _CLUSTER_REL; a cluster of even multiplicity touches zero and
    changes no sign.
    """
    if f.is_zero:
        return []  # f = 0, as Im(n conj d) of an undamped loop: no sign change
    sign = -1.0 if f(x_lo) < 0.0 else 1.0
    rts = roots(f)
    xs = np.sort(rts.real[np.abs(rts.imag) <= _CLUSTER_REL * np.abs(rts)])
    xs = xs[(xs > x_lo) & (xs <= x_hi)]
    out = []
    start = 0
    for k in range(1, len(xs) + 1):
        if k == len(xs) or xs[k] - xs[k - 1] > _CLUSTER_REL * xs[k]:
            if (k - start) % 2:
                sign = -sign
                out.append((float(np.mean(xs[start:k])), sign))
            start = k
    return out


def bandwidth_3db(tf: RationalTF) -> float:
    """First frequency where the gain of tf = n/d drops 3 dB below g0, its
    gain at 1e-3 Hz.

    Exact: the smallest x = w^2 in the 1e-3 .. 1e4 Hz band where
    |n(jw)|^2 - g0^2 |d(jw)|^2 / 2 changes sign.  At 1e-3 Hz that
    polynomial is |n|^2 / 2 >= 0, so its first change is a fall.

    Raises
    ------
    ValueError
        If the magnitude never crosses the threshold in range.
    """
    ref = abs(tf(1j * _W_LO)) ** 2
    f = (_squared_gain(*_on_axis(tf.num))
         - (0.5 * ref) * _squared_gain(*_on_axis(tf.den)))
    changes = _sign_changes(f, _W_LO**2, _W_HI**2)
    if not changes:
        raise ValueError(_NO_CROSSING)
    return float(np.sqrt(changes[0][0]) / (2.0 * np.pi))


def phase_at(tf: RationalTF, f_hz: float) -> float:
    """Unwrapped phase of tf in degrees at one frequency, exactly: its
    principal angle there, unwrapped by the turns its zeros and poles
    give since 1e-3 Hz, where the branch is the principal one.

    Raises
    ------
    ValueError
        If f_hz lies outside 1e-3 .. 1e4 Hz.
    """
    if not (_F_LO <= f_hz <= _F_HI):
        raise ValueError(f"{f_hz:.4g} Hz outside [{_F_LO:.4g}, {_F_HI:.4g}] Hz")
    return float(_unwrapped_phase(tf, [2.0 * np.pi * f_hz], _W_LO)[0])


def loop_margins(loop_tf: RationalTF) -> tuple[float, float]:
    """Classical stability margins of an open-loop transfer function n/d.

    Returns (gain_margin_db, phase_margin_deg) over 1e-3 .. 1e4 Hz: the
    phase margin is 180 deg plus the phase at the first fall of the gain
    through 0 dB, the first root x = w^2 where |n|^2 - |d|^2 turns
    negative; the gain margin is the gain deficit at the first fall of
    the unwrapped phase through -180 deg, a root of Im(n(jw) conj d(jw)).
    Either is inf when its crossing never happens.
    """
    x_lo, x_hi = _W_LO**2, _W_HI**2
    nr, ni = _on_axis(loop_tf.num)
    dr, di = _on_axis(loop_tf.den)
    gain = _squared_gain(nr, ni) - _squared_gain(dr, di)
    first = [x for x, after in _sign_changes(gain, x_lo, x_hi) if after < 0.0][:1]
    # Im(n conj d) / w has the sign of sin(phase): it turns from negative
    # to positive where the phase falls through an odd multiple of 180
    flips = [x for x, after in _sign_changes(ni * dr - nr * di, x_lo, x_hi)
             if after > 0.0]
    # one phase evaluation: the first gain crossover, then every flip
    w = np.sqrt(np.array(first + flips))
    phase = _unwrapped_phase(loop_tf, w, _W_LO)
    pm = 180.0 + float(phase[0]) if first else float("inf")
    at = np.nonzero(np.round(phase[len(first):] / 180.0) == -1.0)[0]
    gm = float("inf")
    if len(at):
        w_p = w[len(first) + at[0]]
        gm = -20.0 * float(np.log10(abs(loop_tf(1j * w_p))))
    return gm, pm


def frf_to_csv(frf: FrequencyResponse, path: str) -> None:
    """Write freq_hz, mag_db, phase_deg, coherence rows at 9 digits."""
    write_csv(
        path,
        ["freq_hz", "mag_db", "phase_deg", "coherence"],
        [frf.freqs_hz, frf.magnitude_db, frf.phase_deg, frf.coherence],
    )
