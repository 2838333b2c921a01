"""Unit tests for FRF estimation and Bode metrics."""

import warnings

import numpy as np
import pytest
from scipy import signal as sig

from seakit import (
    FrequencyResponse,
    ProjectConfig,
    RationalTF,
    bandwidth_3db,
    build_plant,
    default_params,
    estimate_frf,
    frf_to_csv,
    h2_synthesize,
    loop_margins,
    phase_at,
    torque_loop_maps,
)
from seakit.identify import _segment_length, _welch


def _lowpass(fc_hz: float) -> RationalTF:
    w0 = 2 * np.pi * fc_hz
    return RationalTF([w0], [1.0, w0])


def _simulated_pair(tf: RationalTF, dt: float, n: int, seed: int):
    """White-noise input driven through tf via lsim."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    t = np.arange(n) * dt
    lti = sig.lti(tf.num.coeffs, tf.den.coeffs)
    _, y, _ = sig.lsim(lti, u, t)
    return u, y


def test_segment_length_rule():
    # largest power of two not exceeding 2n/9 keeps >= 8 half-overlap segments
    assert _segment_length(36) == 8
    assert _segment_length(4608) == 1024
    assert _segment_length(4607) == 512
    with pytest.raises(ValueError):
        _segment_length(35)


def test_estimate_frf_recovers_known_response():
    tf = _lowpass(10.0)
    dt = 1e-3
    u, y = _simulated_pair(tf, dt, 60000, seed=5)
    freqs = np.logspace(np.log10(0.5), np.log10(40.0), 25)
    est = estimate_frf(u, y, dt, freqs)
    for f_hz, mag, ph, coh in zip(
        est.freqs_hz, est.magnitude_db, est.phase_deg, est.coherence
    ):
        val = tf(2j * np.pi * f_hz)
        assert coh > 0.95
        assert abs(mag - 20 * np.log10(abs(val))) < 0.3
        assert abs(ph - np.degrees(np.angle(val))) < 3.0


def test_estimate_frf_coherence_drops_with_output_noise():
    tf = _lowpass(10.0)
    dt = 1e-3
    u, y = _simulated_pair(tf, dt, 60000, seed=6)
    rng = np.random.default_rng(99)
    y_noisy = y + 0.5 * rng.standard_normal(len(y))
    freqs = np.array([1.0, 5.0, 20.0])
    clean = estimate_frf(u, y, dt, freqs)
    noisy = estimate_frf(u, y_noisy, dt, freqs)
    assert np.all(noisy.coherence < clean.coherence)
    assert np.all(noisy.coherence > 0.2)  # averaging keeps it usable


def test_estimate_frf_validation():
    dt = 1e-3
    rng = np.random.default_rng(0)
    u = rng.standard_normal(60000)
    y = u.copy()
    with pytest.raises(ValueError):
        estimate_frf(u, y[:-1], dt, np.array([1.0]))
    with pytest.raises(ValueError):
        estimate_frf(u, y, dt, np.array([2.0, 1.0]))  # not ascending
    with pytest.raises(ValueError):
        estimate_frf(u, y, dt, np.array([600.0]))  # beyond Nyquist
    with pytest.raises(ValueError, match="too short"):
        estimate_frf(u[:2000], y[:2000], dt, np.array([0.5]))
    # two periods fit but the frequency falls below the first Welch bin
    with pytest.raises(ValueError, match="resolvable"):
        estimate_frf(u, y, dt, np.array([0.05]))
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt_s must be finite and positive"):
            estimate_frf(u, y, bad, np.array([1.0]))


def test_estimate_frf_rejects_non_finite_input_naming_the_field():
    # one NaN sample used to give an all-NaN response, and a NaN frequency
    # a NaN row: NaN compares false, so the range checks let it through
    dt = 1e-3
    u = np.random.default_rng(0).standard_normal(60000)
    freqs = np.array([1.0, 10.0])
    for bad in (np.nan, np.inf):
        hole = u.copy()
        hole[123] = bad
        with pytest.raises(ValueError, match="^input_series must be finite"):
            estimate_frf(hole, u, dt, freqs)
        with pytest.raises(ValueError, match="^output_series must be finite"):
            estimate_frf(u, hole, dt, freqs)
    for grid in ([np.nan], [1.0, np.nan], [1.0, np.nan, 10.0]):
        with pytest.raises(ValueError, match="^freqs_hz "):
            estimate_frf(u, u, dt, np.array(grid))


def test_estimate_frf_rejects_unexcited_frequency():
    dt = 1e-3
    t = np.arange(60000) * dt
    u = np.sin(2 * np.pi * 5.0 * t)
    y = u.copy()
    with pytest.raises(ValueError, match="input power"):
        estimate_frf(u, y, dt, np.array([30.0]))


def test_bandwidth_on_first_order_lowpass():
    assert np.isclose(bandwidth_3db(_lowpass(1.0)), 1.0, rtol=1e-3)
    assert np.isclose(bandwidth_3db(_lowpass(12.0)), 12.0, rtol=1e-3)


def test_bandwidth_requires_a_crossing():
    with pytest.raises(ValueError, match="never crosses"):
        bandwidth_3db(RationalTF([0.5], [1.0]))


def test_phase_at():
    integrator = RationalTF([1.0], [1.0, 0.0])
    assert np.isclose(phase_at(integrator, 1.0), -90.0, atol=1e-6)
    lag = phase_at(_lowpass(1.0), 1.0)
    assert np.isclose(lag, -45.0, atol=0.1)
    with pytest.raises(ValueError):
        phase_at(integrator, 1e6)


def test_loop_margins_classic_example():
    # L = 1 / (s (s+1)^2): gm = 6.02 dB at 1 rad/s, pm = 21.4 deg
    loop = RationalTF([1.0], [1.0, 2.0, 1.0, 0.0])
    gm, pm = loop_margins(loop)
    assert np.isclose(gm, 20 * np.log10(2.0), atol=0.05)
    assert np.isclose(pm, 21.39, atol=0.2)


def test_loop_margins_without_crossings():
    gm, pm = loop_margins(RationalTF([0.5], [1.0, 1.0]))
    assert gm == np.inf and pm == np.inf


def test_frf_to_csv_round_trip(tmp_path):
    freqs = np.logspace(0, 1, 7)
    est = FrequencyResponse(
        freqs_hz=freqs,
        magnitude_db=-3.0 * np.arange(7.0),
        phase_deg=-15.0 * np.arange(7.0),
        coherence=np.linspace(1.0, 0.4, 7),
    )
    path = tmp_path / "frf.csv"
    frf_to_csv(est, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "freq_hz,mag_db,phase_deg,coherence"
    data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
    np.testing.assert_allclose(data[:, 0], est.freqs_hz, rtol=1e-8)
    np.testing.assert_allclose(data[:, 1], est.magnitude_db, rtol=1e-8)
    np.testing.assert_allclose(data[:, 2], est.phase_deg, rtol=1e-8)
    np.testing.assert_allclose(data[:, 3], est.coherence, rtol=1e-8)


def test_welch_spectra_match_scipy():
    # a chirp well inside the band of the segments, with a lagged,
    # noisy output
    dt = 2e-4
    t = np.arange(0.0, 42.0, dt)
    u = sig.chirp(t, 0.1, 42.0, 30.0)
    y = 0.8 * np.roll(u, 7) + 0.01 * np.random.default_rng(1).standard_normal(len(u))
    nperseg = _segment_length(len(u))
    kw = dict(fs=1.0 / dt, window="hann", nperseg=nperseg,
              noverlap=nperseg // 2, detrend=False)
    f, s_uu, s_yy, s_uy = _welch(u, y, 1.0 / dt, nperseg)
    f_ref, uu_ref = sig.welch(u, **kw)
    _, yy_ref = sig.welch(y, **kw)
    _, uy_ref = sig.csd(u, y, **kw)
    np.testing.assert_array_equal(f, f_ref)
    band = (f > 0.2) & (f < 25.0)
    for ours, ref in ((s_uu, uu_ref), (s_yy, yy_ref), (s_uy, uy_ref)):
        assert ours.shape == ref.shape
        err = np.abs(ours - ref)
        # bin by bin inside the chirp's band, against the peak outside it
        assert np.all(err[band] <= 1e-12 * np.abs(ref[band]))
        assert np.max(err) <= 1e-12 * np.max(np.abs(ref))


# The oracle for the closed-form metrics: a 100001-point log sweep over
# 1e-3 .. 1e4 Hz, read by linear interpolation in log frequency.  Its
# phase is numpy's unwrap of the principal angle (steps below 1 deg on
# every case), not the root sum that phase_at and loop_margins share.
def _sweep(tf):
    freqs = np.logspace(-3.0, 4.0, 100001)
    h = tf(2j * np.pi * freqs)
    return freqs, 20.0 * np.log10(np.abs(h)), np.degrees(np.unwrap(np.angle(h)))


def _swept_bandwidth(tf):
    # the first grid point 3 dB below the first one, interpolated back
    # to the threshold in log frequency
    freqs, mag, _ = _sweep(tf)
    thr = mag[0] - 20.0 * np.log10(np.sqrt(2.0))
    i = int(np.argmax(mag < thr))
    assert i > 0
    frac = (thr - mag[i - 1]) / (mag[i] - mag[i - 1])
    f0, f1 = np.log10(freqs[i - 1]), np.log10(freqs[i])
    return float(10.0 ** (f0 + frac * (f1 - f0)))


def _swept_phase(tf, f_hz):
    freqs, _, phase = _sweep(tf)
    return float(np.interp(np.log10(f_hz), np.log10(freqs), phase))


def _swept_margins(tf):
    _, mag, phase = _sweep(tf)
    gm = pm = np.inf
    cross = np.nonzero((mag[:-1] >= 0.0) & (mag[1:] < 0.0))[0]
    if len(cross):
        i = cross[0]
        frac = -mag[i] / (mag[i + 1] - mag[i])
        pm = 180.0 + phase[i] + frac * (phase[i + 1] - phase[i])
    flip = np.nonzero((phase[:-1] > -180.0) & (phase[1:] <= -180.0))[0]
    if len(flip):
        i = flip[0]
        frac = (-180.0 - phase[i]) / (phase[i + 1] - phase[i])
        gm = -(mag[i] + frac * (mag[i + 1] - mag[i]))
    return gm, pm


def _default_design():
    model = build_plant(default_params())
    ctrl = h2_synthesize(model.P, ProjectConfig().weights)
    g1, _ = torque_loop_maps(model, ctrl, with_compensator=True)
    return g1, model.P * ctrl.c2


def _resonance():
    # a 1 Hz pole, then a zeta = 0.01 resonance at 20 Hz that lifts the
    # gain back above -3 dB: three -3 dB crossings, and a phase that
    # falls through -180 deg within about 1% of 20 Hz
    wa, w0 = 2 * np.pi * 1.0, 2 * np.pi * 20.0
    return RationalTF([wa * w0**2], np.polymul([1.0, wa], [1.0, 0.02 * w0, w0**2]))


def _resonant_loop():
    # an integrator into a zeta = 0.01 resonance at 10 Hz: the gain falls
    # through 0 dB at 5 rad/s, comes back above it near 10 Hz and falls
    # again, and the phase falls through -180 deg exactly at 10 Hz
    w0 = 2 * np.pi * 10.0
    return RationalTF([5.0 * w0**2], [1.0, 0.02 * w0, w0**2, 0.0])


def _three_crossings():
    # 1/s, a double zero at 3 rad/s, a triple pole at 20 and one at 1000:
    # 0 dB crossings near 1, 9 and 30 rad/s
    num = np.polymul([1 / 3, 1.0], [1 / 3, 1.0])
    den = np.polymul([1.0, 0.0], np.polymul(np.poly([-20.0] * 3) / 8000.0,
                                             [1e-3, 1.0]))
    return RationalTF(num, den)


def _far_pole_loop():
    # an integrator into a zeta = 0.01 resonance at 1 Hz, with a pole at
    # 1e4 Hz: the crossing polynomials span about 18 decades in w^2
    w0, wp = 2 * np.pi, 2 * np.pi * 1e4
    den = np.polymul([1.0, 0.0], np.polymul([1 / w0**2, 0.02 / w0, 1.0], [1 / wp, 1.0]))
    return RationalTF([3.0], den)


_CLASSIC = RationalTF([1.0], [1.0, 2.0, 1.0, 0.0])  # 1 / (s (s+1)^2)
_INTEGRATOR = RationalTF([1.0], [1.0, 0.0])


def _cases():
    g1, loop = _default_design()
    # (name, tf, tolerance in dB and deg): the sweep interpolates linearly
    # across a transition only about 60 grid points wide at zeta = 0.01
    return [
        ("G1", g1, 1e-5),
        ("P C2", loop, 1e-5),
        ("classic", _CLASSIC, 1e-5),
        ("resonance", _resonance(), 2e-3),
        ("resonant loop", _resonant_loop(), 2e-3),
        ("three crossings", _three_crossings(), 1e-5),
        ("far pole", _far_pole_loop(), 2e-3),
        ("integrator", _INTEGRATOR, 1e-5),
    ]


def test_closed_form_metrics_match_the_sweep():
    for name, tf, tol in _cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as the design sweep runs them
            bw = bandwidth_3db(tf)
            assert bw == pytest.approx(_swept_bandwidth(tf), rel=1e-6), name
            for f_hz in (1e-3, bw, 0.5, 9.9, 10.0, 19.9, 20.1, 1e4):
                assert abs(phase_at(tf, f_hz) - _swept_phase(tf, f_hz)) <= tol, (
                    name, f_hz)
            gm, pm = loop_margins(tf)
        gm_ref, pm_ref = _swept_margins(tf)
        for got, ref in ((gm, gm_ref), (pm, pm_ref)):
            assert got == ref if np.isinf(ref) else abs(got - ref) <= tol, name


def test_closed_form_metrics_are_exact():
    g1, loop = _default_design()
    # the bandwidth halves the power of the gain at 1e-3 Hz
    ratio = abs(g1(2j * np.pi * bandwidth_3db(g1))) / abs(g1(2j * np.pi * 1e-3))
    assert ratio**2 == pytest.approx(0.5, rel=1e-12)
    # -3 dB at 1.0051 Hz, not at the later crossings around 20 Hz
    assert bandwidth_3db(_resonance()) == pytest.approx(1.005057, rel=1e-6)
    # classic loop: -180 deg at 1 rad/s, where |L| = 1/2
    gm, pm = loop_margins(_CLASSIC)
    assert gm == pytest.approx(20 * np.log10(2.0), abs=1e-12)
    # the first of three 0 dB crossings sets the phase margin
    w = 2 * np.pi * 10.0
    gm, pm = loop_margins(_resonant_loop())
    assert gm == pytest.approx(-20 * np.log10(5.0 / (0.02 * w)), abs=1e-9)
    assert 89.0 < pm < 90.0
    assert phase_at(_resonant_loop(), 10.0) == pytest.approx(-180.0, abs=1e-9)
    assert loop_margins(_INTEGRATOR) == (np.inf, pytest.approx(90.0, abs=1e-12))
    assert bandwidth_3db(_INTEGRATOR) == pytest.approx(np.sqrt(2.0) * 1e-3, rel=1e-12)


def test_closed_form_phase_is_unwrapped_through_the_band():
    # the triple pole at 20 rad/s splits into roots about 1e-4 apart;
    # the phase stays the exact angle of the loop, on the unwrapped branch
    loop = _three_crossings()
    for f_hz in (0.1, 1.0, 10.0, 1e3):
        w = 2 * np.pi * f_hz
        exact = -90.0 + np.degrees(2 * np.arctan(w / 3) - 3 * np.arctan(w / 20)
                                   - np.arctan(w / 1000))
        assert phase_at(loop, f_hz) == pytest.approx(exact, abs=1e-9)
    # near -270 deg above the resonance, where the principal angle is
    # near +90
    loop = _resonant_loop()
    principal = np.degrees(np.angle(loop(2j * np.pi * 100.0)))
    assert phase_at(loop, 100.0) == pytest.approx(principal - 360.0, abs=1e-9)


def test_touching_the_threshold_is_not_a_crossing():
    # a loop of gain sqrt(2) with a notch of depth 1/sqrt(2): |L|^2 - 1
    # has a double root at w0^2, which rounding splits by about 5e-8
    # relative, into two real roots at 4 Hz and a complex pair at 5 Hz,
    # so the gain touches 0 dB and never falls below it; the phase
    # stays near 0
    z = 0.2

    def loop(f0_hz, depth=1.0):
        w0 = 2 * np.pi * f0_hz
        num = np.sqrt(2.0) * np.array([1.0, 2 * depth * z * w0, w0**2])
        return RationalTF(num, [1.0, 2 * np.sqrt(2.0) * z * w0, w0**2])

    for f0_hz in (4.0, 5.0):
        assert loop_margins(loop(f0_hz)) == (np.inf, np.inf), f0_hz
    # one part in 1e4 deeper and it falls through 0 dB just below w0,
    # where the phase lags by less than a degree
    gm, pm = loop_margins(loop(5.0, depth=0.9999))
    assert gm == np.inf and 179.0 < pm < 180.0
