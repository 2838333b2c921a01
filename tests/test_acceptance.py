"""Acceptance gate: one test per shipped claim, one verdict line each.

Each test exercises a full claim end to end at its stated tolerance and
reports through criterion_report.  Wall-clock budgets are asserted where
a claim includes one.  The phase-plausibility sub-check of criterion 9
is expected to fail: the [100, 160] degree band encodes lag observed on
physical hardware (which carries extra transport and filter delay), while
the theoretical reference map at desk scale lags only ~85.5 degrees at
its own -3 dB point.  The test asserts the band as stated rather than
widening it to pass.
"""

import dataclasses
import filecmp
import os
import time

import numpy as np
import pytest

from seakit import (
    LoadModel,
    PiController,
    Polynomial,
    ProjectConfig,
    RationalTF,
    SignalSpec,
    SynthesisWeights,
    TorqueLoopScenario,
    bandwidth_3db,
    build_plant,
    closed_loop_maps,
    coprime_factorize,
    default_params,
    estimate_frf,
    fit_sine,
    h2_synthesize,
    is_hurwitz,
    peak_envelope,
    phase_at,
    rms_error,
    roots,
    run_preset,
    run_reproduce,
    shares_root,
    simulate_torque_loop,
    torque_loop_maps,
)
from seakit.transfer import frequency_response


@pytest.fixture(scope="module")
def model():
    return build_plant(default_params())


@pytest.fixture(scope="module")
def ctrl(model):
    return h2_synthesize(model.P, SynthesisWeights(rho=5e-4, lam=1.0, k=1.0))


@pytest.fixture(scope="module")
def maps(model, ctrl):
    g1, g2 = torque_loop_maps(model, ctrl, with_compensator=False)
    _, h_phi = torque_loop_maps(model, ctrl, with_compensator=True)
    return g1, g2, h_phi


def _max_rel_dev(actual, target) -> float:
    actual = np.asarray(actual, float)
    target = np.asarray(target, float)
    return float(np.max(np.abs(actual - target) / np.abs(target)))


def test_criterion_01_plant_coefficients(model, criterion_report):
    """Plant numerator/denominator against the design-point values (3 s.f.)."""
    dev = max(
        _max_rel_dev(model.P.num.coeffs, [3.204, 94.34]),
        _max_rel_dev(model.P.den.coeffs[:-1], [1.0, 74.88, 2021.0]),
    )
    ok = dev <= 0.005 and model.P.den.coeffs[-1] == 0.0
    criterion_report(1, ok, f"plant coefficients within {dev * 100:.3f}% "
                            f"of the design-point values (tol 0.5%)")
    assert ok


def test_criterion_02_controller_coefficients(ctrl, criterion_report):
    """Synthesized C1/C2 against the design-point controller (3 s.f.)."""
    c1_num = [6.90e-4, 0.0517, 1.40, 0.0651]
    den = [3.45e-7, 5.07e-5, 0.00346, 0.0651]
    c2_num = [3.22e-5, 0.00241, 0.0651]
    # the design-point arrays carry the physical (non-monic) plant lead;
    # controllers are invariant to that common scale, so rescale ours
    scale = den[0] / ctrl.c2.den.coeffs[0]
    dev = max(
        _max_rel_dev(ctrl.c1.num.coeffs * scale, c1_num),
        _max_rel_dev(ctrl.c1.den.coeffs * scale, den),
        _max_rel_dev(ctrl.c2.num.coeffs * scale, c2_num),
        _max_rel_dev(ctrl.c2.den.coeffs * scale, den),
    )
    ok = dev <= 0.02
    criterion_report(2, ok, f"controller coefficients within {dev * 100:.3f}% "
                            f"of the design-point values (tol 2%)")
    assert ok


def _random_stable_plant(rng) -> RationalTF:
    n = int(rng.integers(2, 5))
    rts: list[complex] = []
    while len(rts) < n:
        if n - len(rts) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.5, 30.0)
            im = rng.uniform(0.5, 30.0)
            rts += [complex(re, im), complex(re, -im)]
        else:
            rts.append(complex(-rng.uniform(0.5, 30.0), 0.0))
    a = Polynomial.from_roots(rts)
    while True:
        m = int(rng.integers(0, n))
        b = Polynomial(rng.normal(size=m + 1) * 10.0)
        if abs(b(0.0)) < 0.1:
            continue
        if b.degree >= 1 and shares_root(a, b):
            continue
        return RationalTF(b, a)


def _spectral_residual(d: Polynomial, a, b, wa: float, wb: float) -> float:
    e = a.negate_argument() * a * (wa * wa) + b.negate_argument() * b * (wb * wb)
    resid = d.negate_argument() * d - e
    return float(np.max(np.abs(resid.coeffs)) / np.max(np.abs(e.coeffs)))


def test_criterion_03_synthesis_identities(model, criterion_report):
    # every draw must design: a NumericsError fails the criterion
    rng = np.random.default_rng(20240819)
    worst = {"spectral": 0.0, "diophantine": 0.0, "bezout": 0.0, "placement": 0.0,
             "pole_re": -np.inf}
    grid = 2j * np.pi * np.logspace(-2, 2, 20)
    for i in range(201):
        plant = _random_stable_plant(rng) if i else model.P
        w = SynthesisWeights(
            rho=float(10.0 ** rng.uniform(-3, -1)),
            lam=float(rng.uniform(0.5, 2.0)),
            k=float(rng.uniform(0.5, 2.0)),
        )
        c = h2_synthesize(plant, w)
        fact = coprime_factorize(plant, c.c2)
        a, b = plant.den, plant.num
        worst["spectral"] = max(
            worst["spectral"],
            _spectral_residual(c.d_rho, a, b, w.rho, 1.0),
            _spectral_residual(c.d_lambda_k, a, b, w.k, w.lam),
        )
        target = c.d_rho * c.d_lambda_k
        resid = a * c.p + b * c.q - target
        worst["diophantine"] = max(
            worst["diophantine"],
            float(np.max(np.abs(resid.coeffs)) / np.max(np.abs(target.coeffs))),
        )
        # the poles placed, relative to the poles designed, on the grid
        placed = (a(grid) * c.p(grid) + b(grid) * c.q(grid)) / target(grid)
        worst["placement"] = max(
            worst["placement"], float(np.max(np.abs(placed - 1.0)))
        )
        assert is_hurwitz(target)
        worst["pole_re"] = max(
            worst["pole_re"], float(np.max(roots(target).real))
        )
        bez = max(
            abs(fact.M(s) * fact.X(s) + fact.N(s) * fact.Y(s) - 1.0) for s in grid
        )
        worst["bezout"] = max(worst["bezout"], float(bez))
    ok = (
        worst["spectral"] <= 1e-8
        and worst["diophantine"] <= 1e-8
        and worst["bezout"] <= 1e-8
        and worst["placement"] <= 1e-9
        and worst["pole_re"] < 0.0
    )
    criterion_report(
        3,
        ok,
        "201 plants: residuals spectral {spectral:.1e}, diophantine "
        "{diophantine:.1e}, bezout {bezout:.1e} (tol 1e-8 each), pole placement "
        "{placement:.1e} (tol 1e-9); max closed-loop pole Re {pole_re:.3g}".format(
            **worst
        ),
    )
    assert ok


def test_criterion_04_feedback_maps_independent_of_c1(model, ctrl, criterion_report):
    alt = dataclasses.replace(ctrl, c1=RationalTF([3.0], [1.0, 4.0]))
    base = closed_loop_maps(model.P, ctrl)
    swapped = closed_loop_maps(model.P, alt)
    same = all(
        np.array_equal(x.num.coeffs, y.num.coeffs)
        and np.array_equal(x.den.coeffs, y.den.coeffs)
        for x, y in zip(
            base.from_d.all() + base.from_n.all(),
            swapped.from_d.all() + swapped.from_n.all(),
        )
    )
    # sanity: the reference path must actually feel the swap
    changed = not np.array_equal(
        base.from_r.y.num.coeffs, swapped.from_r.y.num.coeffs
    )
    ok = same and changed
    criterion_report(4, ok, "eight disturbance/noise maps bit-identical under "
                            "feedforward replacement; reference maps change")
    assert ok


def test_criterion_05_torque_tracking(model, ctrl, maps, criterion_report):
    g1 = maps[0]
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.sine(0.033, 2.0),
        dt_s=1e-4,
        duration_s=10.0,
    )
    t0 = time.perf_counter()
    trace = simulate_torque_loop(sc)
    wall = time.perf_counter() - t0
    amp, phase_deg, _ = fit_sine(trace.t, trace.channel("tau_L"), 2.0, from_t=5.0)
    val = g1(2j * np.pi * 2.0)
    amp_err = abs(amp - 0.033 * abs(val)) / (0.033 * abs(val))
    ph_err = abs(phase_deg - np.degrees(np.angle(val)))
    ok = amp_err <= 0.02 and ph_err <= 2.0 and wall < 10.0
    criterion_report(
        5,
        ok,
        f"2 Hz tracking vs reference map: amplitude off {amp_err * 100:.3f}% "
        f"(tol 2%), phase off {ph_err:.3f} deg (tol 2); sim {wall:.1f} s (< 10)",
    )
    assert ok


def test_criterion_06_noise_rejection_ordering(model, ctrl, criterion_report):
    def run(controller):
        sc = TorqueLoopScenario(
            model=model,
            controller=controller,
            reference=SignalSpec.sine(0.033, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=321),
            dt_s=1e-4,
            duration_s=10.0,
        )
        return rms_error(simulate_torque_loop(sc), from_t=2.0)

    t0 = time.perf_counter()
    rms_2dof = run(ctrl)
    rms_pi = run(PiController(204.0, 111.0))
    wall = time.perf_counter() - t0
    ok = rms_2dof <= rms_pi and wall < 20.0
    criterion_report(
        6,
        ok,
        f"identical-seed noise: RMS error 2-DOF {rms_2dof:.4f} Nm <= "
        f"PI {rms_pi:.4f} Nm; sims {wall:.1f} s (< 20)",
    )
    assert ok


def test_criterion_07_compensator_efficacy(model, ctrl, maps, criterion_report):
    _, g2, h_phi = maps
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        handle_motion=SignalSpec.sine(0.5, 2.0),
        compensator_on=True,
        dt_s=1e-4,
        duration_s=6.0,
    )
    t0 = time.perf_counter()
    trace = simulate_torque_loop(sc)
    wall = time.perf_counter() - t0
    amp, _, _ = fit_sine(trace.t, trace.channel("tau_L"), 2.0, from_t=3.0)
    s2 = 2j * np.pi * 2.0
    pred_comp = 0.5 * abs(h_phi(s2))
    pred_raw = 0.5 * abs(g2(s2))
    err = abs(amp - pred_comp) / pred_comp
    ok = err <= 0.02 and amp < pred_raw and wall < 10.0
    criterion_report(
        7,
        ok,
        f"compensated 2 Hz coupling {amp:.5f} Nm vs predicted {pred_comp:.5f} "
        f"(off {err * 100:.2f}%, tol 2%), uncompensated bound {pred_raw:.4f}; "
        f"sim {wall:.1f} s (< 10)",
    )
    assert ok


def test_criterion_08_impedance_sweep(tmp_path, criterion_report):
    t0 = time.perf_counter()
    results = run_preset("fig6", ProjectConfig(), str(tmp_path))
    wall = time.perf_counter() - t0
    ok = all(r.passed for r in results) and wall < 40.0
    criterion_report(
        8,
        ok,
        f"virtual-stiffness sweep: {sum(r.passed for r in results)}/"
        f"{len(results)} tracking bounds met; {wall:.1f} s (< 40)",
    )
    assert ok


def test_criterion_09_bandwidth_regression(maps, criterion_report):
    g1 = maps[0]
    bw = bandwidth_3db(g1)
    lag = -phase_at(g1, bw)
    ok = abs(bw - 12.159250) <= 1e-3 and 10.0 <= bw <= 25.0 and abs(
        lag - 85.478624
    ) <= 0.1
    criterion_report(
        9,
        ok,
        f"-3 dB bandwidth {bw:.4f} Hz (locked 12.1593, band [10, 25]); "
        f"phase lag there {lag:.4f} deg (locked 85.4786)",
    )
    assert ok


def test_criterion_09_phase_plausibility_band(maps, criterion_report):
    # Expected to FAIL: the band encodes hardware-measured lag (extra
    # transport/filter delay); the theoretical map lags ~85.5 deg.  See
    # the module docstring; the band is asserted as stated.
    g1 = maps[0]
    lag = -phase_at(g1, bandwidth_3db(g1))
    ok = 100.0 <= lag <= 160.0
    criterion_report(
        9,
        ok,
        f"phase lag {lag:.2f} deg vs hardware plausibility band [100, 160] "
        f"(theoretical map carries no hardware delay; honest mismatch)",
    )
    assert ok


def test_a_command_delay_adds_360_f_tau_to_the_cutoff_lag(model, ctrl):
    # The number behind the red band above: with a pure command delay
    # D = exp(-s tau), G1 = P D C1 / (1 + P D C2) lags 85.48 + 360 f_bw tau
    # degrees at its own -3 dB point f_bw.  So the [100, 160] deg band
    # needs tau between 3.32 and 17.0 ms; here the lag reads 100.02, 129.26
    # and 159.87 deg.
    f = np.linspace(1e-3, 30.0, 300001)
    s = 2j * np.pi * f
    for tau in (3.32e-3, 10e-3, 17e-3):
        pd = model.P(s) * np.exp(-s * tau)
        g1 = pd * ctrl.c1(s) / (1.0 + pd * ctrl.c2(s))
        gain = np.abs(g1) / np.abs(g1[0])
        lag = -np.degrees(np.unwrap(np.angle(g1)))
        i = int(np.argmax(gain < np.sqrt(0.5)))  # first grid point past -3 dB
        t = (np.sqrt(0.5) - gain[i - 1]) / (gain[i] - gain[i - 1])
        f_bw = f[i - 1] + t * (f[i] - f[i - 1])
        lag_bw = lag[i - 1] + t * (lag[i] - lag[i - 1])
        assert abs(lag_bw - (85.48 + 360.0 * f_bw * tau)) <= 0.1, (tau, f_bw, lag_bw)
        assert 100.0 <= lag_bw <= 160.0, (tau, lag_bw)


def test_criterion_10_frf_fidelity(model, ctrl, maps, criterion_report):
    g1 = maps[0]
    # 120 s at 2 kHz: Welch segments reach 16.4 s (61 mHz bins), so the
    # 0.2 Hz low edge sits 3 bins clear of the Hann DC lobe; at 42 s the
    # same point is 1.3 bins out and picks up ~0.7 dB of leakage bias.
    dt = 5e-4
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.chirp(0.02, 0.1, 30.0, 120.0),
        dt_s=dt,
        duration_s=120.0,
    )
    t0 = time.perf_counter()
    trace = simulate_torque_loop(sc)
    freqs = np.logspace(np.log10(0.2), np.log10(25.0), 30)
    est = estimate_frf(trace.channel("r"), trace.channel("tau_L"), dt, freqs)
    wall = time.perf_counter() - t0
    theory = frequency_response(g1, freqs)
    coherent = est.coherence > 0.99
    mag_err = np.max(np.abs(est.magnitude_db - theory.magnitude_db)[coherent])
    ph_err = np.max(np.abs(est.phase_deg - theory.phase_deg)[coherent])
    ok = (
        int(np.sum(coherent)) >= 10
        and mag_err <= 0.5
        and ph_err <= 5.0
        and wall < 20.0
    )
    criterion_report(
        10,
        ok,
        f"chirp FRF vs theory over {int(np.sum(coherent))} coherent points: "
        f"max {mag_err:.3f} dB (tol 0.5), {ph_err:.2f} deg (tol 5); "
        f"{wall:.1f} s (< 20)",
    )
    assert ok


def test_criterion_11_free_response_decay(model, ctrl, criterion_report):
    sc = TorqueLoopScenario(
        model=model, controller=ctrl, dt_s=2e-4, duration_s=12.0,
        i_d=default_params().k_s, load=LoadModel(phi0=1.0),
    )
    t0 = time.perf_counter()
    trace = simulate_torque_loop(sc)
    wall = time.perf_counter() - t0
    _, vals = peak_envelope(trace, "phi_L")
    vals = vals[vals > 0.01]  # ignore numerical ripple near zero
    ok = len(vals) >= 3 and bool(np.all(np.diff(vals) < 0.0)) and wall < 10.0
    criterion_report(
        11,
        ok,
        f"free response: {len(vals)} successive peaks, strictly decreasing "
        f"envelope; sim {wall:.1f} s (< 10)",
    )
    assert ok


def test_criterion_12_reproduce_determinism(tmp_path, criterion_report):
    cfg = ProjectConfig()
    t0 = time.perf_counter()
    res_a = run_reproduce(cfg, str(tmp_path / "a"))
    first_pass = time.perf_counter() - t0
    res_b = run_reproduce(cfg, str(tmp_path / "b"))

    def csvs(root):
        found = {}
        for dirpath, _, files in os.walk(root):
            for name in files:
                if name.endswith(".csv"):
                    full = os.path.join(dirpath, name)
                    found[os.path.relpath(full, root)] = full
        return found

    a, b = csvs(tmp_path / "a"), csvs(tmp_path / "b")
    identical = set(a) == set(b) and all(
        filecmp.cmp(a[rel], b[rel], shallow=False) for rel in a
    )
    ok = identical and len(a) > 0 and res_a == res_b and first_pass < 180.0
    criterion_report(
        12,
        ok,
        f"two reproduce passes: {len(a)} CSV files byte-identical, check "
        f"results equal; first pass {first_pass:.0f} s (< 180)",
    )
    assert ok
