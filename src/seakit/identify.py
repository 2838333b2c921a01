"""Nonparametric frequency-response estimation and Bode metrics.

The estimator is a Welch-style averaged cross-spectral quotient:
H(f) = S_uy(f) / S_uu(f) over Hann-windowed, half-overlapping segments,
with magnitude-squared coherence reported per frequency.  Averaging
across segments is what makes the estimate usable on the noisy
closed-loop traces; a single-shot quotient would be hopeless there.

Bandwidth and phase metrics accept either an estimate or an analytic
transfer function, so the same code scores theory and simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _sig

from .config import write_csv
from .transfer import RationalTF, frequency_response

__all__ = [
    "FrfEstimate",
    "estimate_frf",
    "bandwidth_3db",
    "phase_at",
    "loop_margins",
    "frf_to_csv",
]

# -3 dB means half power, i.e. 20 log10(sqrt(2)) below the reference.
_HALF_POWER_DB = 20.0 * np.log10(np.sqrt(2.0))


@dataclass(frozen=True)
class FrfEstimate:
    """Empirical frequency response on an ascending grid.

    Attributes
    ----------
    freqs_hz, magnitude_db, phase_deg : ndarray
        Equal-length; phase is unwrapped along the grid.
    coherence : ndarray
        Magnitude-squared coherence in [0, 1]; values near 1 mark
        frequencies where the linear fit explains the output.
    """

    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray
    coherence: np.ndarray

    def __post_init__(self):
        lens = {
            len(self.freqs_hz),
            len(self.magnitude_db),
            len(self.phase_deg),
            len(self.coherence),
        }
        if len(lens) != 1:
            raise ValueError("FRF estimate arrays must have equal length")
        if np.any(self.coherence < 0.0) or np.any(self.coherence > 1.0):
            raise ValueError("coherence must lie in [0, 1]")


def _segment_length(n: int) -> int:
    """Largest power of two giving >= 8 half-overlapping segments."""
    limit = (2 * n) // 9
    if limit < 8:
        raise ValueError(
            f"series too short for a segmented estimate ({n} samples)"
        )
    return 1 << (limit.bit_length() - 1)


def estimate_frf(
    input_series: np.ndarray,
    output_series: np.ndarray,
    dt_s: float,
    freqs_hz: np.ndarray,
) -> FrfEstimate:
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
        Length mismatch, insufficient data, a requested frequency
        outside the resolvable band, or vanishing input power at a
        requested frequency.
    """
    u = np.asarray(input_series, dtype=float)
    y = np.asarray(output_series, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("input and output must be equal-length 1-D series")
    freqs = np.asarray(freqs_hz, dtype=float)
    if len(freqs) == 0 or np.any(freqs <= 0.0) or np.any(np.diff(freqs) <= 0.0):
        raise ValueError("freqs_hz must be positive and strictly ascending")
    fs = 1.0 / dt_s
    if freqs[-1] > 0.5 * fs:
        raise ValueError("requested frequency exceeds Nyquist")
    n = len(u)
    if n * dt_s < 2.0 / freqs[0]:
        raise ValueError(
            "record too short: need at least 2 periods of the lowest "
            "requested frequency"
        )

    nperseg = _segment_length(n)
    kw = dict(
        fs=fs,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
    )
    f_grid, s_uu = _sig.welch(u, **kw)
    _, s_yy = _sig.welch(y, **kw)
    _, s_uy = _sig.csd(u, y, **kw)

    # Bin 0 is DC; drop it so interpolation can work in log frequency.
    f_grid = f_grid[1:]
    s_uu = s_uu[1:]
    s_yy = s_yy[1:]
    s_uy = s_uy[1:]
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

    return FrfEstimate(
        freqs_hz=freqs.copy(),
        magnitude_db=np.interp(log_req, log_f, mag_db),
        phase_deg=np.interp(log_req, log_f, phase_deg),
        coherence=np.interp(log_req, log_f, coh),
    )


# The dense grid a transfer function is swept on: log-spaced from 1e-3
# to 1e4 Hz.
_SWEEP_DECADES = (-3.0, 4.0)
_SWEEP_POINTS = 100001


def _as_response(frf_or_tf):
    """Uniform view: (freqs, mag_db, phase_deg) from either input kind."""
    if isinstance(frf_or_tf, RationalTF):
        grid = np.logspace(*_SWEEP_DECADES, _SWEEP_POINTS)
        resp = frequency_response(frf_or_tf, grid)
        return resp.freqs_hz, resp.magnitude_db, resp.phase_deg
    return frf_or_tf.freqs_hz, frf_or_tf.magnitude_db, frf_or_tf.phase_deg


def bandwidth_3db(frf_or_tf, dc_reference: str = "dc_gain") -> float:
    """First frequency where gain drops 3 dB below the reference.

    dc_reference selects the 0-level: "dc_gain" uses the lowest-frequency
    gain of the data (dense sweep from 1e-3 Hz for transfer functions),
    "unity" uses 0 dB.  The crossing is located by linear interpolation
    in log frequency.

    Raises
    ------
    ValueError
        If the magnitude never crosses the threshold in range.
    """
    if dc_reference not in ("dc_gain", "unity"):
        raise ValueError("dc_reference must be 'dc_gain' or 'unity'")
    freqs, mag_db, _ = _as_response(frf_or_tf)
    ref_db = float(mag_db[0]) if dc_reference == "dc_gain" else 0.0
    thr = ref_db - _HALF_POWER_DB
    below = mag_db < thr
    if below[0]:
        return float(freqs[0])
    if not np.any(below):
        raise ValueError("magnitude never crosses -3 dB in the evaluated range")
    i = int(np.argmax(below))
    f0, f1 = np.log10(freqs[i - 1]), np.log10(freqs[i])
    m0, m1 = mag_db[i - 1], mag_db[i]
    frac = (thr - m0) / (m1 - m0)
    return float(10.0 ** (f0 + frac * (f1 - f0)))


def phase_at(frf_or_tf, f_hz: float) -> float:
    """Unwrapped phase in degrees at one frequency, interpolated.

    Raises
    ------
    ValueError
        If f_hz lies outside the data (or dense-sweep) range.
    """
    freqs, _, phase_deg = _as_response(frf_or_tf)
    if not (freqs[0] <= f_hz <= freqs[-1]):
        raise ValueError(
            f"{f_hz:.4g} Hz outside [{freqs[0]:.4g}, {freqs[-1]:.4g}] Hz"
        )
    return float(np.interp(np.log10(f_hz), np.log10(freqs), phase_deg))


def loop_margins(loop_tf: RationalTF) -> tuple[float, float]:
    """Classical stability margins of an open-loop transfer function.

    Returns (gain_margin_db, phase_margin_deg) from a dense sweep:
    the phase margin is 180 deg plus the phase at the first unity-gain
    crossing, the gain margin is the gain deficit at the first -180 deg
    phase crossing.  Either is inf when its crossing never happens.
    """
    freqs, mag_db, phase_deg = _as_response(loop_tf)
    pm = float("inf")
    cross = np.nonzero((mag_db[:-1] >= 0.0) & (mag_db[1:] < 0.0))[0]
    if len(cross):
        i = cross[0]
        frac = (0.0 - mag_db[i]) / (mag_db[i + 1] - mag_db[i])
        ph = phase_deg[i] + frac * (phase_deg[i + 1] - phase_deg[i])
        pm = 180.0 + ph
    gm = float("inf")
    flip = np.nonzero(
        (phase_deg[:-1] > -180.0) & (phase_deg[1:] <= -180.0)
    )[0]
    if len(flip):
        i = flip[0]
        frac = (-180.0 - phase_deg[i]) / (phase_deg[i + 1] - phase_deg[i])
        gm = -(mag_db[i] + frac * (mag_db[i + 1] - mag_db[i]))
    return gm, pm


def frf_to_csv(frf: FrfEstimate, path: str) -> None:
    """Write freq_hz, mag_db, phase_deg, coherence rows at 9 digits."""
    write_csv(
        path,
        ["freq_hz", "mag_db", "phase_deg", "coherence"],
        [frf.freqs_hz, frf.magnitude_db, frf.phase_deg, frf.coherence],
    )
