"""The benchmark's checks reject wrong outputs, and its arithmetic holds.

Run with: python3 -m pytest bench/tests
"""

import dataclasses
import statistics

import numpy as np
import pytest
from scipy import signal

import seakit as sk
import checks
import spread
import tracing
import workloads


@pytest.fixture(scope="module")
def loop():
    model = sk.build_plant(sk.default_params())
    ctrl = sk.h2_synthesize(model.P, sk.ProjectConfig().weights)
    return model, ctrl


def _run(model, controller, amplitude, duration_s, seed=5):
    sc = sk.TorqueLoopScenario(
        model=model, controller=controller,
        reference=sk.SignalSpec.sine(amplitude, workloads.SINE_HZ),
        noise=sk.SignalSpec.white_noise(workloads.NOISE_VAR, seed),
        dt_s=1e-4, duration_s=duration_s)
    return sk.simulate_torque_loop(sc)


def _with(trace, **channels):
    return dataclasses.replace(trace, channels={**trace.channels, **channels})


@pytest.mark.parametrize("hold", ["foh", "zoh"])
def test_lti_filter_matches_lsim(loop, hold):
    model, ctrl = loop
    (num, den), _ = checks.loop_maps(model.P, ctrl.c1, ctrl.c2)
    t = np.arange(4000) * 1e-4
    u = np.random.default_rng(3).standard_normal(len(t))
    _, want, _ = signal.lsim((num, den), u, t, interp=hold == "foh")
    got = checks.lti_filter(num, den, u, 1e-4, hold)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_linear_tracking_rejects_perturbed_tau(loop):
    model, ctrl = loop
    trace = _run(model, ctrl, 0.033, 0.5)
    args = (model.P, ctrl.c1, ctrl.c2, 0.033, workloads.SINE_HZ)
    assert checks.check_linear_tracking(trace, *args) == []
    tau = trace.channel("tau_L") * (1.0 + 1e-4)
    assert checks.check_linear_tracking(_with(trace, tau_L=tau), *args)


def test_trace_sane_rejects_clamp_violation_and_nan(loop):
    model, ctrl = loop
    trace = _run(model, ctrl, 0.3, 0.3)
    assert checks.clamped_share(trace) > 0.0
    assert checks.check_trace_sane(trace, 50.0) == []
    w = trace.channel("omega_d").copy()
    k = int(np.argmax(np.abs(trace.channel("u_presat"))))
    w[k] = trace.channel("u_presat")[k]  # the clamp let through
    assert checks.check_trace_sane(_with(trace, omega_d=w), 50.0)
    e = trace.channel("e").copy()
    e[-1] = np.nan
    assert checks.check_trace_sane(_with(trace, e=e), 50.0)


def test_clamped_prefix_rejects_a_wrong_trace(loop):
    model, ctrl = loop
    trace = _run(model, sk.PiController(*workloads.PI_GAINS), 0.3, 0.3)
    c = sk.PiController(*workloads.PI_GAINS).as_pair()
    args = (model.P, model.G, c[0], c[1], 0.3, workloads.SINE_HZ, 50.0, 2000)
    assert np.any(trace.channel("omega_d")[:2001] != trace.channel("u_presat")[:2001])
    assert checks.check_clamped_prefix(trace, *args) == []
    tau = trace.channel("tau_L").copy()
    tau[1500:] += 1e-6 * np.max(np.abs(tau))
    assert checks.check_clamped_prefix(_with(trace, tau_L=tau), *args)


def test_design_check_rejects_shifted_bandwidth_phase_and_margins(loop):
    model, ctrl = loop
    weights = sk.ProjectConfig().weights
    fact = sk.coprime_factorize(model.P, ctrl.c2)
    g1, _ = sk.torque_loop_maps(model, ctrl, with_compensator=True)
    bw = sk.bandwidth_3db(g1)
    phase = sk.phase_at(g1, bw)
    loop_tf = sk.series(model.P, ctrl.c2)
    gm, pm = sk.loop_margins(loop_tf)
    assert np.isfinite(gm) and np.isfinite(pm)

    def check(weights=weights, ctrl=ctrl, bw=bw, phase=phase, margins=(gm, pm)):
        return checks.check_design(model.P, weights, ctrl, fact, bw, phase,
                                   margins, loop_tf)

    assert check() == []
    assert check(bw=bw * 1.01)
    assert check(phase=phase + 0.5)
    assert check(margins=(gm + 0.01, pm))
    assert check(margins=(gm, pm - 0.1))
    assert check(margins=(np.inf, pm))
    q = sk.Polynomial(ctrl.q.coeffs * (1.0 + 1e-6))
    assert check(ctrl=dataclasses.replace(ctrl, q=q))
    # a design that echoes other weights than it was asked for
    asked = dataclasses.replace(weights, rho=weights.rho * 1.001)
    assert check(weights=asked)


def _write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def test_trace_csv_and_pass_comparison(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "CHUNK", 16)  # lines and rows across chunks
    rows = "".join(f"{k * 1e-4:.9g},0\n" for k in range(11))
    good = ("t,x\n" + rows).encode()
    scan = checks.scan_csv(_write(tmp_path / "good.csv", good))
    assert scan.lines == 12 and scan.last_line == b"0.001,0"
    assert checks.check_trace_csv(scan, 1e-3, 1e-4) == []
    cut = _write(tmp_path / "cut.csv", good[: good.rindex(b"0.0009")])
    assert checks.check_trace_csv(checks.scan_csv(cut), 1e-3, 1e-4)
    other = _write(tmp_path / "other.csv", good.replace(b"0.0005,0", b"0.0005,1"))
    first = {"a.csv": scan.sha256}
    assert checks.check_same_files(first, dict(first)) == []
    assert checks.check_same_files(first, {"a.csv": checks.scan_csv(other).sha256})
    assert checks.check_same_files(first, {})
    assert sorted(checks.csv_paths(str(tmp_path))) == ["cut.csv", "good.csv", "other.csv"]


def test_self_and_busy_time_arithmetic():
    spans = [
        ["presets.fig9", 0.0, 10.0, -1, 0],
        ["simulation.simulate_torque_loop", 1.0, 4.0, 0, 0],
        ["polynomials.roots", 1.5, 2.0, 1, 0],
        ["simulation.trace_to_csv", 5.0, 7.0, 0, 0],
        ["polynomials.roots", 8.0, 8.5, 0, 0],
        ["simulation.simulate_torque_loop", 20.0, 21.0, -1, 1],
    ]
    assert tracing.self_times(spans) == [4.5, 2.5, 0.5, 2.0, 0.5, 1.0]
    sim = ("simulation.simulate_torque_loop",)
    assert tracing.busy_time(spans, lambda n: n in sim, {0}) == 3.0
    assert tracing.busy_time(spans, lambda n: n in sim, {0, 1}) == 4.0
    # a roots call inside a simulation span is not counted twice
    assert tracing.busy_time(spans, lambda n: n.startswith("simulation."), {0}) == 5.0
    assert tracing.busy_time(spans, lambda n: n == "polynomials.roots", {0}) == 1.0


def test_spread_arithmetic():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    s = spread.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["spread"] == pytest.approx(5.5 / 5.5)
    assert statistics.quantiles(values, n=4) == [s["q1"], s["median"], s["q3"]]
    assert spread.spread([2.0, 2.0, 2.0, 2.0])["spread"] == 0.0


def test_tracer_wraps_every_reference_and_restores():
    original = sk.roots
    tracer = tracing.Tracer()
    tracer.instrument(sk)
    try:
        tracer.op = 7
        model = sk.build_plant(sk.default_params())
        sk.h2_synthesize(model.P, sk.ProjectConfig().weights)
        assert sk.roots is not original
        assert sk.synthesis.roots is sk.roots
    finally:
        tracer.restore()
    assert sk.roots is original and sk.synthesis.roots is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["plant.default_params", "plant.build_plant"]
    synth = names.index("synthesis.h2_synthesize")
    inner = [s for s in tracer.spans if s[3] == synth]
    assert inner and all(s[4] == 7 for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer, [7])
    assert metrics["polynomials.roots.calls"] == names.count("polynomials.roots") > 0
