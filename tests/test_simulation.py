"""Unit tests for signal generation, the loop integrator, and trace analysis."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from seakit import simulation
from seakit import (
    LoadModel,
    NumericsError,
    PiController,
    ProjectConfig,
    RationalTF,
    SignalSpec,
    SimTrace,
    SynthesisWeights,
    TRACE_CHANNELS,
    TorqueLoopScenario,
    build_plant,
    default_params,
    fit_sine,
    generate,
    h2_synthesize,
    peak_envelope,
    rms_error,
    run_preset,
    simulate_torque_loop,
    torque_loop_maps,
    trace_to_csv,
)


@pytest.fixture(scope="module")
def model():
    return build_plant(default_params())


@pytest.fixture(scope="module")
def ctrl(model):
    return h2_synthesize(model.P, SynthesisWeights(rho=5e-4, lam=1.0, k=1.0))


# ---------------------------------------------------------------- signals


def test_signal_validation():
    with pytest.raises(ValueError):
        SignalSpec(kind="triangle")
    with pytest.raises(ValueError):
        SignalSpec.sine(1.0, 0.0)
    with pytest.raises(ValueError):
        SignalSpec.chirp(1.0, 5.0, 1.0, 10.0)  # f1 < f0
    with pytest.raises(ValueError):
        SignalSpec.chirp(1.0, 1.0, 5.0, 0.0)  # no sweep time
    with pytest.raises(ValueError):
        SignalSpec(kind="white_noise", variance=0.01)  # seed missing
    with pytest.raises(ValueError):
        SignalSpec.white_noise(-1.0, seed=3)
    with pytest.raises(ValueError):
        SignalSpec.piecewise_linear([(0.0, 1.0)])
    with pytest.raises(ValueError):
        SignalSpec.piecewise_linear([(0.0, 1.0), (0.0, 2.0)])


def test_signal_rejects_non_finite_fields():
    for field in ("amplitude", "frequency_hz", "offset", "variance"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SignalSpec(**{"kind": "sine", "frequency_hz": 1.0, field: bad})
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        SignalSpec.piecewise_linear([(0.0, 1.0), (1.0, float("nan"))])


def test_generate_grid_and_formulas():
    dt = 1e-3
    x = generate(SignalSpec.sine(2.0, 5.0, offset=0.5), dt, 0.2)
    assert len(x) == 201
    t = np.arange(201) * dt
    np.testing.assert_allclose(x, 0.5 + 2.0 * np.sin(2 * np.pi * 5.0 * t))

    s = generate(SignalSpec.step(3.0, start_s=0.05), dt, 0.1)
    assert s[0] == 0.0 and s[49] == 0.0 and s[50] == 3.0 and s[-1] == 3.0

    pw = generate(SignalSpec.piecewise_linear([(0.0, 0.0), (0.1, 1.0)]), dt, 0.2)
    assert np.isclose(pw[50], 0.5)
    assert pw[-1] == 1.0  # held at the last breakpoint value

    with pytest.raises(ValueError):
        generate(SignalSpec.zero(), 0.0, 1.0)
    with pytest.raises(ValueError):
        generate(SignalSpec.zero(), 1e-3, -1.0)


def test_generate_rejects_non_finite_grid():
    nan, inf = float("nan"), float("inf")
    for dt_s, duration_s, field in ((1e-3, inf, "duration_s"),
                                    (1e-3, nan, "duration_s"),
                                    (inf, 1.0, "dt_s")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            generate(SignalSpec.zero(), dt_s, duration_s)


def test_chirp_phase_continuity_and_hold():
    dt = 1e-4
    spec = SignalSpec.chirp(1.0, 1.0, 5.0, 2.0)
    x = generate(spec, dt, 3.0)
    # no sample-to-sample jump can exceed the f1 slew rate
    assert np.max(np.abs(np.diff(x))) <= 2 * np.pi * 5.0 * dt * 1.01
    # past the sweep the frequency holds at f1 with continuous phase
    t = np.arange(len(x)) * dt
    end_phase = 2 * np.pi * (1.0 * 2.0 + 0.5 * 2.0 * 2.0**2)
    late = t > 2.0
    np.testing.assert_allclose(
        x[late], np.sin(end_phase + 2 * np.pi * 5.0 * (t[late] - 2.0)), atol=1e-12
    )


def test_white_noise_seeding():
    spec = SignalSpec.white_noise(0.01, seed=42)
    a = generate(spec, 1e-3, 1.0)
    b = generate(spec, 1e-3, 1.0)
    np.testing.assert_array_equal(a, b)  # same seed, same draw
    c = generate(SignalSpec.white_noise(0.01, seed=43), 1e-3, 1.0)
    assert not np.array_equal(a, c)
    assert abs(np.var(a) - 0.01) < 0.003


def test_white_noise_seed_must_be_an_integer():
    # a float seed used to construct, and the run then stopped on numpy's
    # SeedSequence error, which names no field
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            SignalSpec(kind="white_noise", variance=1.0, seed=bad)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            SignalSpec.white_noise(1.0, bad)
    a = generate(SignalSpec.white_noise(1.0, np.int64(4)), 1e-3, 0.1)
    np.testing.assert_array_equal(
        a, generate(SignalSpec.white_noise(1.0, 4), 1e-3, 0.1))
    with pytest.raises(ValueError, match="white_noise requires a seed >= 0"):
        SignalSpec.white_noise(1.0, np.int32(-1))


def test_pi_controller_validation_and_pair():
    with pytest.raises(ValueError):
        PiController(-1.0, 2.0)
    for kp, ki, name in ((float("nan"), 1.0, "kp"), (1.0, float("inf"), "ki"),
                         (float("-inf"), 1.0, "kp")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PiController(kp, ki)
    c1, c2 = PiController(204.0, 111.0).as_pair()
    assert c1 is c2
    assert np.isclose(c1(1j), 204.0 + 111.0 / 1j)


def test_load_model_validation():
    with pytest.raises(ValueError):
        LoadModel(j_l=0.0, b_l=0.1)


def test_load_model_rejects_non_finite_fields():
    for field, bad in (("j_l", float("inf")), ("b_l", float("nan"))):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LoadModel(**{field: bad})


def test_scenario_validation(model, ctrl):
    for field in ("duration_s", "dt_s"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TorqueLoopScenario(model=model, controller=ctrl,
                               **{field: float("inf")})
    loop = dict(model=model, controller=ctrl)
    bad = [  # each message starts with the field it names
        ("dt_s", dict(dt_s=0.0)),
        ("duration_s", dict(dt_s=1e-2, duration_s=0.05)),
        ("saturation_rad_s", dict(saturation_rad_s=0.0)),
        ("i_d", dict(i_d=-1.0)),
        ("i_d", dict(i_d=float("nan"))),
        ("i_d", dict(i_d=0.0)),
        ("reference", dict(i_d=10.0, reference=SignalSpec.constant(1.0))),
        ("phi_ref", dict(phi_ref=SignalSpec.constant(0.1))),
        ("load", dict(load=LoadModel())),
        ("handle_motion", dict(i_d=0.5, load=LoadModel(),
                               handle_motion=SignalSpec.sine(0.1, 1.0))),
    ]
    for field, kwargs in bad:
        with pytest.raises(ValueError, match=f"^{field} "):
            TorqueLoopScenario(**loop, **kwargs)
    TorqueLoopScenario(**loop, i_d=0.5, phi_ref=SignalSpec.constant(0.1),
                       load=LoadModel(phi0=0.2))


# ---------------------------------------------------------------- integrator


def test_zero_inputs_give_zero_trace(model, ctrl):
    sc = TorqueLoopScenario(model=model, controller=ctrl, duration_s=0.1)
    trace = simulate_torque_loop(sc)
    for name in TRACE_CHANNELS:
        if name == "t":
            continue
        assert np.max(np.abs(trace.channel(name))) == 0.0


def test_trace_channel_identities(model, ctrl):
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.sine(0.02, 2.0),
        noise=SignalSpec.white_noise(1e-6, seed=7),
        duration_s=0.5,
    )
    trace = simulate_torque_loop(sc)
    tau = trace.channel("tau_L")
    n = trace.channel("n")
    np.testing.assert_array_equal(trace.channel("y_meas"), tau + n)
    np.testing.assert_array_equal(trace.channel("e"), trace.channel("r") - tau)
    # noise is held per step, so the recorded channel is the seeded draw
    np.testing.assert_array_equal(n, generate(sc.noise, sc.dt_s, sc.duration_s))
    assert trace.n_samples == 5001
    with pytest.raises(KeyError):
        trace.channel("bogus")


def test_constant_reference_tracks_exactly(model, ctrl):
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.constant(0.02),
        duration_s=2.0,
    )
    trace = simulate_torque_loop(sc)
    # unity DC reference gain: the error decays to integration noise;
    # mean error over the last 10% of the trace
    e = trace.channel("e")
    assert abs(np.mean(e[-(len(e) // 10):])) < 1e-9
    assert abs(trace.channel("tau_L")[-1] - 0.02) < 1e-9


def test_sine_tracking_matches_reference_map(model, ctrl):
    g1, _ = torque_loop_maps(model, ctrl, with_compensator=False)
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.sine(0.033, 2.0),
        duration_s=3.0,
    )
    trace = simulate_torque_loop(sc)
    amp, phase_deg, _ = fit_sine(trace.t, trace.channel("tau_L"), 2.0, from_t=1.5)
    val = g1(2j * np.pi * 2.0)
    assert np.isclose(amp, 0.033 * abs(val), rtol=1e-2)
    assert abs(phase_deg - np.degrees(np.angle(val))) < 1.0


def test_saturation_clamps_velocity_command(model, ctrl):
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.step(1.0),
        duration_s=0.2,
    )
    trace = simulate_torque_loop(sc)
    w = trace.channel("omega_d")
    u = trace.channel("u_presat")
    assert np.max(u) > 50.0  # the raw command does exceed the limit
    assert np.max(w) == 50.0  # clamp hits the bound exactly
    assert np.all(np.abs(w) <= 50.0)
    clipped = np.abs(u) <= 50.0
    np.testing.assert_array_equal(w[clipped], u[clipped])
    # the trace's stats: every step counted once by its path, the samples
    # where the clamp acts, the largest command and the limit, no channel
    stats = trace.stats
    paths = (stats.closed_block, stats.upper_block, stats.lower_block,
             stats.closed_single, stats.clamped_single)
    assert sum(paths) == trace.n_samples - 1
    assert stats.upper_block > 0 and stats.clamped_single > 0
    assert stats.clamped_samples == np.count_nonzero(~clipped)
    assert stats.peak_u_presat == np.max(np.abs(u))
    assert stats.saturation_rad_s == 50.0
    assert not set(TRACE_CHANNELS) & set(vars(stats))


@pytest.mark.filterwarnings("error")  # the overflow on the way is not reported
def test_divergence_raises_with_sample_index(model):
    # a controller pair with a pole at +1e6 makes the loop unstable; any
    # nonzero torque makes its state blow up within a few dozen steps
    unstable = RationalTF([1.0], [1.0, -1e6])
    sc = TorqueLoopScenario(
        model=model,
        controller=(unstable, unstable),
        reference=SignalSpec.step(1.0),
        duration_s=0.05,
    )
    # the first non-finite sample: the state at sample 47 is still finite
    # (about 9e305), and the step map overflows on the step after it (a
    # stage-by-stage RK4 overflows inside a stage one step earlier)
    with pytest.raises(NumericsError, match=r"at sample 48 \(t = 0\.0048 s\)"):
        simulate_torque_loop(sc)


def test_step_too_large_for_rk4_is_rejected(model):
    # a decaying loop mode near -1e9 lies far outside the RK4 stability
    # region at this step size: it would grow by ~4e18 per step
    sc = TorqueLoopScenario(
        model=model,
        controller=(RationalTF([1.0], [1.0, 1e9]), RationalTF([1e9], [1.0, 1e9])),
        reference=SignalSpec.step(1.0),
        duration_s=0.05,
    )
    with pytest.raises(ValueError, match="dt_s"):
        simulate_torque_loop(sc)


@pytest.mark.filterwarnings("error")
def test_step_check_counts_a_non_finite_amplification_as_growth(model):
    # a PI pair at 1e200 overflowed |R(z)| with a RuntimeWarning before the
    # dt_s error; an amplification that comes out NaN let the run start
    sc = TorqueLoopScenario(model=model, controller=PiController(1e200, 1e200),
                            reference=SignalSpec.step(1.0), duration_s=0.05)
    with pytest.raises(ValueError, match=r"^dt_s = 0\.0001 s .* grows by inf per"):
        simulate_torque_loop(sc)
    # eigenvalues -1e200 +- 1e200j: h lambda's complex products give inf - inf
    a = np.array([[-1e200, 1e200], [-1e200, -1e200]])
    with pytest.raises(ValueError, match="grows by inf per step"):
        simulation._check_step(a, 1e-4)
    simulation._check_step(np.array([[-1.0]]), 1e-4)


@pytest.mark.filterwarnings("error")
def test_an_input_that_is_not_finite_is_named(model, ctrl):
    # 2 pi f t overflows at 1e308 Hz: the run used to start on NaN samples
    # and report a divergence at sample 0, after numpy's RuntimeWarnings
    sc = TorqueLoopScenario(model=model, controller=ctrl, duration_s=0.05,
                            reference=SignalSpec.sine(0.03, 1e308))
    with pytest.raises(ValueError, match="^reference is not finite at every sample"):
        simulate_torque_loop(sc)
    sc = TorqueLoopScenario(model=model, controller=ctrl, duration_s=0.05, i_d=0.5,
                            handle_motion=SignalSpec(kind="constant", amplitude=1e308,
                                                     offset=1e308))
    with pytest.raises(ValueError, match="^handle_motion is not finite at every sample"):
        simulate_torque_loop(sc)


def test_a_scenario_beyond_the_step_cap_fails_when_built(model, ctrl):
    # built only, never run: 1e6 s used to fail when numpy could not
    # allocate its 1e10 steps, and 1e308 s in int(round(inf))
    loop = dict(model=model, controller=ctrl, dt_s=1e-4)
    for duration in (1e6, 1000.0001, 1e308):
        with pytest.raises(ValueError, match=r"^duration_s must cover at most 1e\+07 "):
            TorqueLoopScenario(**loop, duration_s=duration)
    TorqueLoopScenario(**loop, duration_s=1000.0)  # exactly 1e7 steps
    with pytest.raises(ValueError, match="^duration_s must cover at most"):
        TorqueLoopScenario(model=model, controller=ctrl, dt_s=1e-320, duration_s=1.0)


def test_assembled_state_counts(model, ctrl):
    """Plant pair (3), controller pair (order of p), [C_L], [load (2)]."""
    k_s = default_params().k_s
    cases = [
        (dict(controller=ctrl), 6),
        (dict(controller=PiController(204.0, 111.0)), 4),
        (dict(controller=ctrl, compensator_on=True), 12),
        (dict(controller=ctrl, compensator_on=True, i_d=k_s, load=LoadModel()), 14),
    ]
    for kwargs, nx in cases:
        sc = TorqueLoopScenario(model=model, **kwargs)
        assert simulation._assemble(sc).A.shape == (nx, nx)


def _dense_inputs(inputs, nsteps):
    """_integrate's inputs as the dense per-step values (start, midpoint,
    end): three (nsteps, 4) arrays over [r, d, n, phi], the columns of the
    inputs it omits zero."""
    w = np.zeros((3, nsteps, simulation._N_INPUTS))
    for i, sampled in inputs.items():
        for j in range(3):
            w[j, :, i] = sampled[j]
    return w


def _stagewise_integrate(loop, a, x0, inputs, nsteps, h, sat, clamped=None):
    """Reference integrator: plain RK4 with the clamp applied at every
    stage.  Returns the states and path counts as _integrate does, every
    step a single one, and appends to clamped the index of each step where
    the clamp acts.  The closed-loop matrix a that _integrate takes is not
    used."""
    w0, wh, w1 = _dense_inputs(inputs, nsteps)

    def f(x, v):
        u = float(loop.c_u @ x + loop.d_u @ v)
        acts.append(abs(u) > sat)
        return loop.A @ x + loop.B @ v + loop.b_w * min(max(u, -sat), sat)

    xs = np.empty((len(w0) + 1, len(x0)))
    xs[0] = x0
    clamped = [] if clamped is None else clamped
    for k, (v0, vh, v1) in enumerate(zip(w0, wh, w1)):
        acts, x = [], xs[k]
        k1 = f(x, v0)
        k2 = f(x + (0.5 * h) * k1, vh)
        k3 = f(x + (0.5 * h) * k2, vh)
        k4 = f(x + h * k3, v1)
        xs[k + 1] = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if any(acts):
            clamped.append(k)
    return xs, dict(closed_block=0, upper_block=0, lower_block=0,
                    closed_single=len(w0) - len(clamped),
                    clamped_single=len(clamped))


def _states(loop):
    """loop recording its states: _integrate's rows are then x at every
    sample, exactly."""
    nx = len(loop.A)
    return dataclasses.replace(loop, out_x=np.eye(nx),
                               out_v=np.zeros((nx, simulation._N_INPUTS)))


def _recorded(loop, xs, inputs):
    """The recorded rows out_x x + out_v v of the states xs, each input at
    every sample, as one product over the whole run."""
    rows = loop.out_x @ xs.T
    if inputs:
        rows += loop.out_v[:, list(inputs)] @ np.array([w[3] for w in inputs.values()])
    return rows


def _record_integrate(monkeypatch):
    """Route simulate_torque_loop through simulation._integrate run on the
    loop recording its states, and record from those states; returns the
    list that collects (args, (states, counts)) of every call."""
    integrate = simulation._integrate
    runs = []

    def recording(loop, a, x0, inputs, *args):
        rows, counts = integrate(_states(loop), a, x0, inputs, *args)
        runs.append(((loop, a, x0, inputs, *args), (rows.T, counts)))
        return _recorded(loop, rows.T, inputs), counts

    monkeypatch.setattr(simulation, "_integrate", recording)
    return runs


def _parity_run(case, model, ctrl):
    """Short runs covering every entry point and the saturating cases."""
    loop = dict(model=model, controller=ctrl, compensator_on=True, duration_s=0.5)
    swing = SignalSpec.sine(0.5, 2.0)
    if case == "pi_noise":  # the criterion-6 PI run, which saturates
        return simulate_torque_loop(TorqueLoopScenario(
            model=model,
            controller=PiController(204.0, 111.0),
            reference=SignalSpec.sine(0.033, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=321),
            duration_s=1.0,
        ))
    if case == "deep_saturation":  # |u_presat| reaches 40 times the limit
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, reference=SignalSpec.step(1.0),
            duration_s=0.2,
        ))
    if case == "pi_coarse":
        # at a 1 ms step the terms coupling each stage command to the
        # clamped earlier ones move the trace by ~1e-6 relative; at 0.1 ms
        # they stay below the 1e-9 bound
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=PiController(204.0, 111.0),
            reference=SignalSpec.sine(0.3, 2.0), dt_s=1e-3, duration_s=2.0,
        ))
    if case == "clamp_across_blocks":
        # a clamp episode from step 31 to step 250, blocks 0 to 3, on a
        # run of 2000 steps, whose last block is partial
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl,
            reference=SignalSpec.step(0.3, start_s=0.00305), duration_s=0.2,
        ))
    if case == "pi_chatter":  # clamp episodes one or two steps apart
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=PiController(204.0, 111.0),
            reference=SignalSpec.sine(0.3, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=321), duration_s=0.5,
        ))
    if case == "saturated_blocks":
        # the sim_saturating 2-DOF run: clamp episodes at +sat and -sat of
        # several blocks each, one across the first group boundary
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, reference=SignalSpec.sine(0.3, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=5), duration_s=0.5,
        ))
    if case == "two_dof_blocks":  # the fig9 2-DOF run over 156 blocks
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, reference=SignalSpec.sine(0.033, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=1101), duration_s=1.0,
        ))
    if case == "growing":
        # a controller pole at +1000 rad/s: the state grows by about 600
        # per block, 2e17 over the run, and the limit is never reached
        unstable = RationalTF([1.0], [1.0, -1e3])
        return simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=(unstable, unstable),
            reference=SignalSpec.step(1e-9), saturation_rad_s=1e12,
            duration_s=0.05,
        ))
    if case == "compensator":
        return simulate_torque_loop(TorqueLoopScenario(
            reference=SignalSpec.sine(0.02, 3.0), handle_motion=swing, **loop
        ))
    k_s = default_params().k_s
    if case == "impedance":
        return simulate_torque_loop(TorqueLoopScenario(
            handle_motion=swing, i_d=0.6 * k_s, **loop
        ))
    return simulate_torque_loop(TorqueLoopScenario(
        dt_s=2e-4, i_d=k_s, load=LoadModel(phi0=1.0), **loop
    ))


_SATURATING = ("pi_noise", "deep_saturation", "pi_coarse",
               "clamp_across_blocks", "pi_chatter", "saturated_blocks")


def _episodes(steps):
    """(first, last) step of each run of consecutive step indices."""
    runs = []
    for k in steps:
        if runs and k == runs[-1][1] + 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return runs


@pytest.mark.parametrize(
    "case",
    [*_SATURATING, "compensator", "impedance", "free_response",
     "two_dof_blocks", "growing"],
)
def test_fused_step_matches_stagewise_rk4(model, ctrl, monkeypatch, case):
    """The RK4 step map, clamped where a step saturates, reproduces plain
    RK4 with the clamp applied stage by stage."""
    clamped_step = simulation._clamped_step
    fallback_steps = []

    def counting_step(*args):
        fallback_steps.append(1)
        return clamped_step(*args)

    monkeypatch.setattr(simulation, "_clamped_step", counting_step)
    runs = _record_integrate(monkeypatch)
    fused = _parity_run(case, model, ctrl)
    (_, (_, counts)), = runs
    ref_clamped, ref_runs = [], []

    def reference(loop, a, x0, inputs, *args):
        xs, ref_counts = _stagewise_integrate(loop, a, x0, inputs, *args, ref_clamped)
        ref_runs.append(ref_counts)
        return _recorded(loop, xs, inputs), ref_counts

    monkeypatch.setattr(simulation, "_integrate", reference)
    ref = _parity_run(case, model, ctrl)
    assert len(ref_runs) == 1

    for name in ("tau_L", "u_presat", "phi_L"):
        a, b = fused.channel(name), ref.channel(name)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b)), name
    saturates = not np.array_equal(ref.channel("omega_d"), ref.channel("u_presat"))
    assert saturates == (case in _SATURATING)
    if case == "deep_saturation":
        assert np.max(np.abs(ref.channel("u_presat"))) > 39 * 50.0
    block = simulation._BLOCK
    episodes = _episodes(ref_clamped)
    if case == "clamp_across_blocks":
        assert (ref.n_samples - 1) % block != 0
        assert any(a % block and a // block < b // block for a, b in episodes)
    if case == "pi_chatter":
        gaps = [b[0] - a[1] - 1 for a, b in zip(episodes, episodes[1:])]
        assert sum(g in (1, 2) for g in gaps) > 100
        # resuming the inside mode only after _RESUME single steps took
        # 2297 + 1092 single steps here; the back-off must take no more
        assert counts["closed_single"] + counts["clamped_single"] <= 3389
    if case == "pi_noise":
        # isolated clamps: resuming after _RESUME inside steps took 1195
        assert counts["closed_single"] < 1195
    if case == "saturated_blocks":
        group = block * simulation._GROUP
        assert any(b - a > 2 * block for a, b in episodes)
        assert any(a < group <= b for a, b in episodes)
        assert counts["upper_block"] > 0 and counts["lower_block"] > 0
    if case == "two_dof_blocks":
        assert ref.n_samples - 1 > 100 * block
    if case == "growing":
        tau = np.abs(ref.channel("tau_L"))
        assert np.isfinite(tau).all() and tau[-1] > 1e10 * tau[block]
    # every step is counted once, and the steps that leave the closed-loop
    # map, in saturated blocks or clamped one at a time, are as many as the
    # reference clamps at some stage
    assert sum(counts.values()) == ref.n_samples - 1
    saturated = counts["upper_block"] + counts["lower_block"]
    assert saturated + counts["clamped_single"] == len(ref_clamped)
    assert counts["clamped_single"] == len(fallback_steps)
    assert bool(saturated or fallback_steps) == saturates


def _closed_recurrence(loop, a, x0, inputs, nsteps, h):
    """x_(k+1) = Phi x_k + f_k, one step at a time, with Phi and the input
    terms f_k from the closed-loop RK4 step map."""
    w0, wh, w1 = _dense_inputs(inputs, nsteps)
    nx = len(x0)
    b = loop.B + np.outer(loop.b_w, loop.d_u)
    step, _ = simulation._step_maps(a, b, np.zeros(nx), loop.c_u, loop.d_u, h)
    phi, gam = step[:, :nx], step[:, nx:nx + 3 * b.shape[1]]
    xs = np.empty((len(w0) + 1, nx))
    xs[0] = x0
    for k, v in enumerate(np.hstack([w0, wh, w1])):
        xs[k + 1] = phi @ xs[k] + gam @ v
    return xs


@pytest.mark.parametrize("case", ["fig9_two_dof", "forced_12", "free_response_14"])
def test_block_solve_matches_the_plain_recurrence(model, ctrl, monkeypatch, case):
    """Unsaturated runs: the blocked closed-form solve gives the states of
    the closed map stepped one step at a time, builds no block maps but
    the closed map's, and solves each group in one attempt.  forced_12
    drives all 12 states over 1003 steps, a multiple of neither the block
    nor the sub-block length."""
    block_maps, attempt = simulation._block_maps, simulation._attempt
    built, attempts = [], []

    def recording_maps(q):
        built.append(q)
        return block_maps(q)

    def recording_attempt(*args):
        attempts.append(len(args[0]))  # the blocks it solves
        return attempt(*args)

    def no_clamp(*args):
        raise AssertionError("an unsaturated run took a clamped step")

    monkeypatch.setattr(simulation, "_block_maps", recording_maps)
    monkeypatch.setattr(simulation, "_attempt", recording_attempt)
    monkeypatch.setattr(simulation, "_clamped_step", no_clamp)
    runs = _record_integrate(monkeypatch)
    if case == "fig9_two_dof":
        simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, reference=SignalSpec.sine(0.033, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=1101), duration_s=1.0,
        ))
    elif case == "forced_12":  # C_L on, driven by the handle motion
        simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, compensator_on=True,
            reference=SignalSpec.sine(0.02, 3.0),
            handle_motion=SignalSpec.sine(0.5, 2.0), duration_s=0.1003,
        ))
    else:  # C_L and the load: 14 states, C_L's block nearly defective
        simulate_torque_loop(TorqueLoopScenario(
            model=model, controller=ctrl, compensator_on=True, duration_s=1.0,
            i_d=default_params().k_s, load=LoadModel(phi0=1.0),
        ))
    (args, (xs, counts)), = runs
    loop, a, x0, inputs, nsteps, h, _ = args
    assert len(x0) == {"fig9_two_dof": 6, "forced_12": 12}.get(case, 14)
    if case == "forced_12":
        assert nsteps == 1003
    ref = _closed_recurrence(loop, a, x0, inputs, nsteps, h)
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(xs - ref) <= 1e-12 * scale)
    assert counts["closed_block"] == nsteps
    span = simulation._BLOCK * simulation._GROUP
    assert len(attempts) == -(-nsteps // span)
    assert sum(attempts) == -(-nsteps // simulation._BLOCK)
    assert (len(attempts) > 1) == (case != "forced_12")
    q, = built
    closed, _ = simulation._step_maps(a, loop.B + np.outer(loop.b_w, loop.d_u),
                                      np.zeros(len(x0)), loop.c_u, loop.d_u, h)
    np.testing.assert_array_equal(q[:len(x0)], closed[:, :len(x0)])
    # the forced response is solved in sub-blocks of sqrt(_BLOCK) = 8
    # steps: its Toeplitz map is (8 nz x 8 nx), not (64 nz x 64 nx)
    _, toe = block_maps(q)
    assert simulation._BLOCK == 64 and toe.shape == (8 * len(q), 8 * len(x0))


def test_saturated_block_matches_the_open_recurrence(model, ctrl, monkeypatch):
    """Where every stage command of a step is past one side of the limit,
    the states follow x+ = X + n (+-sat) 1 of the open-loop step map,
    stepped one at a time from the first state of each such stretch."""
    runs = _record_integrate(monkeypatch)
    simulate_torque_loop(TorqueLoopScenario(
        model=model, controller=ctrl, reference=SignalSpec.sine(0.3, 2.0),
        noise=SignalSpec.white_noise(0.01, seed=5), duration_s=0.5,
    ))
    (args, (xs, counts)), = runs
    loop, _, _, inputs, nsteps, h, sat = args
    w0, wh, w1 = _dense_inputs(inputs, nsteps)
    step, cmds = simulation._step_maps(loop.A, loop.B, loop.b_w, loop.c_u,
                                       loop.d_u, h)
    m = step.shape[1] - 4  # the columns of [x, v0, vh, v1]; then w1..w4
    v = np.hstack([w0, wh, w1])
    # the side of each step: 1 (-1) if its stage commands with every w at
    # +sat (-sat) are all at or past that limit, else 0
    free = np.hstack([xs[:-1], v]) @ cmds[:, :m].T
    past = sat * cmds[:, m:].sum(1)
    side = (free + past >= sat).all(1).astype(int) - (free - past <= -sat).all(1)
    scale = np.max(np.abs(xs), axis=0)
    stretches = []
    for s in (1, -1):
        stretches += [(s, a, b) for a, b in _episodes(np.flatnonzero(side == s))]
    for s, first, last in stretches:
        x = xs[first]
        for k in range(first, last + 1):
            x = step[:, :m] @ np.r_[x, v[k]] + step[:, m:] @ np.full(4, s * sat)
            assert np.all(np.abs(x - xs[k + 1]) <= 1e-12 * scale), k
    assert max(b - a for _, a, b in stretches) > 2 * simulation._BLOCK
    assert counts["upper_block"] > 0 and counts["lower_block"] > 0


def test_clamped_step_is_the_stagewise_clamped_step(model, monkeypatch):
    """From the closed-loop step, _clamped_step gives the RK4 step with the
    clamp applied stage by stage, and the step's mode.  A PI run at 1 ms
    deep in the clamp: there the stage commands depend most on the clamped
    earlier ones."""
    runs = _record_integrate(monkeypatch)
    simulate_torque_loop(TorqueLoopScenario(
        model=model, controller=PiController(204.0, 111.0),
        reference=SignalSpec.sine(3.0, 2.0), dt_s=1e-3, duration_s=1.0,
    ))
    (args, (xs, _)), = runs
    loop, a, _, inputs, nsteps, h, sat = args
    w0, wh, w1 = _dense_inputs(inputs, nsteps)
    nx = xs.shape[1]
    b = loop.B + np.outer(loop.b_w, loop.d_u)
    closed = np.vstack(simulation._step_maps(a, b, np.zeros(nx), loop.c_u,
                                             loop.d_u, h))
    step, cmds = simulation._step_maps(loop.A, loop.B, loop.b_w, loop.c_u,
                                       loop.d_u, h)
    m = step.shape[1] - 4
    n, low = step[:, m:], tuple(cmds[:, m:][np.tril_indices(4, -1)].tolist())
    scale = np.max(np.abs(xs), axis=0)
    modes = []
    for k, v in enumerate(np.hstack([w0, wh, w1])):
        zk = closed[:, :m] @ np.r_[xs[k], v]
        if np.all(np.abs(zk[nx:]) <= sat):
            continue
        modes.append(simulation._clamped_step(zk, zk[nx:].tolist(), n, low, sat))
        one = {i: [w[k:k + 1] for w in sampled] for i, sampled in inputs.items()}
        ref, _ = _stagewise_integrate(loop, a, xs[k], one, 1, h, sat)
        assert np.all(np.abs(zk[:nx] - ref[1]) <= 1e-12 * scale), k
        # every command past +sat (-sat) with the earlier ones at +sat (-sat)
        free, past = cmds[:, :m] @ np.r_[xs[k], v], sat * cmds[:, m:].sum(1)
        up, down = (free + past >= sat).all(), (free - past <= -sat).all()
        side = (simulation._UPPER if up else
                simulation._LOWER if down else simulation._MIXED)
        assert modes[-1] == side, k
    assert {simulation._UPPER, simulation._LOWER, simulation._MIXED} <= set(modes)


def test_fig9_path_counts_at_the_default_seed(tmp_path, monkeypatch):
    """The steps of each fig9 run, by the path _integrate took: the 2-DOF
    run never reaches the clamp, and the PI run chatters across it.  Its
    clamps are isolated, so the inside mode resumes after one step and
    takes fewer closed single steps than twice the clamped ones."""
    runs = _record_integrate(monkeypatch)
    run_preset("fig9", ProjectConfig(), str(tmp_path))
    two_dof, pi = (counts for _, (_, counts) in runs)
    assert two_dof == dict(closed_block=100000, upper_block=0, lower_block=0,
                           closed_single=0, clamped_single=0)
    assert pi == dict(closed_block=96015, upper_block=0, lower_block=0,
                      closed_single=2374, clamped_single=1611)
    assert pi["closed_single"] < 2 * pi["clamped_single"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_block_power_does_not_end_the_run_early():
    """A mode that grows by ~1e7 a step from 1e-300 stays finite up to
    step 86, while Phi^j of a block overflows from j = 44: the run must
    stay finite exactly as long as the step-by-step recurrence does."""
    h = 1e-4
    lam = 124.0 / h  # RK4 amplification ~1e7 per step
    loop = simulation._LoopSystem(
        A=np.array([[lam]]), B=np.zeros((1, 4)), b_w=np.zeros(1),
        c_u=np.zeros(1), d_u=np.zeros(4), out_x=np.zeros((4, 1)),
        out_v=np.zeros((4, 4)),
    )
    x0 = np.array([1e-300])
    rows, _ = simulation._integrate(_states(loop), loop.A, x0, {}, 200, h, 50.0)
    xs = rows.T
    ref = _closed_recurrence(loop, loop.A, x0, {}, 200, h)
    finite = np.isfinite(ref[:, 0])
    last = int(np.argmin(finite)) - 1  # the last finite state
    assert 64 < last < 199
    assert np.isfinite(xs[:last + 1, 0]).all() and not np.isfinite(xs[last + 1:]).any()
    np.testing.assert_allclose(xs[:last + 1, 0], ref[:last + 1, 0], rtol=1e-12)


def _input_cases(model, ctrl):
    """fig10's chirp, fig9's noisy PI loop and fig11's 14-state load loop,
    each shortened to 5 s."""
    k_s = default_params().k_s
    return {
        "chirp_6": TorqueLoopScenario(
            model=model, controller=ctrl, dt_s=2e-4, duration_s=5.0,
            reference=SignalSpec.chirp(0.02, 0.1, 40.0, 5.0)),
        "noisy_pi": TorqueLoopScenario(
            model=model, controller=PiController(204.0, 111.0), duration_s=5.0,
            reference=SignalSpec.sine(0.033, 2.0),
            noise=SignalSpec.white_noise(0.01, seed=1101)),
        "load_14": TorqueLoopScenario(
            model=model, controller=ctrl, compensator_on=True, duration_s=5.0,
            i_d=k_s, load=LoadModel(phi0=1.0)),
    }


def test_recorded_rows_are_the_rows_of_the_states(model, ctrl, monkeypatch):
    """_integrate records out_x x + out_v v group by group, bit for bit the
    product over the whole run of the states it solves and every input
    sample.  The last sample of noisy_pi takes the noise's own final draw,
    not the one held over the last step; a diverging run names the first
    non-finite sample of that product, and records NaN in every row after
    it."""
    integrate = simulation._integrate
    runs = []

    def recording(loop, a, x0, inputs, *args):
        rows, counts = integrate(loop, a, x0, inputs, *args)
        states, _ = integrate(_states(loop), a, x0, inputs, *args)
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append((rows, _recorded(loop, states.T, inputs), inputs))
        return rows, counts

    monkeypatch.setattr(simulation, "_integrate", recording)
    unstable = RationalTF([1.0], [1.0, -1e6])
    cases = {**_input_cases(model, ctrl), "diverging": TorqueLoopScenario(
        model=model, controller=(unstable, unstable),
        reference=SignalSpec.step(1.0), duration_s=0.05)}
    for name, sc in cases.items():
        runs.clear()
        if name != "diverging":
            simulate_torque_loop(sc)
            (rows, ref, inputs), = runs
            assert rows.tobytes() == ref.tobytes(), name
            if name == "noisy_pi":  # the final draw is no held value
                noise = inputs[simulation._N]
                assert noise[3][-1] != noise[0][-1]
            continue
        with pytest.raises(NumericsError) as err:
            simulate_torque_loop(sc)
        (rows, ref, _), = runs
        k = int(np.argmax(~np.isfinite(ref[:3]).all(0)))
        assert k > 0 and f"at sample {k} " in str(err.value)
        assert rows[:, :k].tobytes() == ref[:, :k].tobytes()
        assert np.isnan(rows[:, k + 1:]).all()


def test_only_nonzero_inputs_are_sampled(model, ctrl, monkeypatch):
    """A zero input is never sampled: the chirp run samples its reference,
    the noisy run its reference and noise, the load run nothing.  A zero d
    or n channel is still a full-length array of zeros, and no two channels
    of a trace share memory."""
    generate_n = simulation._generate_n
    calls = []

    def counting(*args):
        calls.append(args[0].kind)
        return generate_n(*args)

    monkeypatch.setattr(simulation, "_generate_n", counting)
    expected = {"chirp_6": ["chirp"], "noisy_pi": ["sine", "white_noise"],
                "load_14": []}
    for name, sc in _input_cases(model, ctrl).items():
        calls.clear()
        trace = simulate_torque_loop(sc)
        assert calls == expected[name], name
        for ch in ("d", "n") if name != "noisy_pi" else ("d",):
            assert trace.channel(ch).shape == (trace.n_samples,)
            assert not trace.channel(ch).any()
        chans = list(trace.channels.values())
        for i, a in enumerate(chans):
            for b in chans[i + 1:]:
                assert not np.shares_memory(a, b), name


def test_simulation_peak_memory_per_step(model, ctrl):
    """tracemalloc peak of one simulate_torque_loop call, per step.  The
    trace is 80 B a step: the four recorded rows and six more channels.
    While the integrator runs it holds the recorded rows, the sampled
    inputs (16 B a step for a smooth one, 8 for noise) and one group's
    working set of about 1 MB, 42 B a step over chirp_6's 25k steps:
    32 + 16 + 42 = 90 B.  noisy_pi peaks
    at the trace, 81 B, plus the 0.7 MB that numpy.random imports on its
    first draw in a process: 94 B when this test runs alone.  load_14 peaks
    at the trace, 81 B.  Each bound leaves a third on top, and stays below
    the 80 B a step of one more copy of the trace."""
    bounds = {"chirp_6": 120, "noisy_pi": 125, "load_14": 110}
    for name, sc in _input_cases(model, ctrl).items():
        nsteps = round(sc.duration_s / sc.dt_s)
        tracemalloc.start()
        try:
            simulate_torque_loop(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / nsteps <= bounds[name], (name, peak / nsteps)


def test_a_smooth_run_keeps_no_half_step_samples(model, ctrl):
    """An impedance run with four smooth inputs returns ten contiguous
    channels of 8 B a step each, 80 B, and its trace holds no more: a d or
    n channel that stayed a stride-2 view of its input's half-step samples
    kept 16 B a step, about 96 B in all."""
    k_s = default_params().k_s
    sc = TorqueLoopScenario(
        model=model, controller=ctrl, compensator_on=True, duration_s=5.0,
        i_d=k_s, phi_ref=SignalSpec.sine(0.05, 1.0),
        disturbance=SignalSpec.sine(0.1, 3.0), noise=SignalSpec.sine(1e-3, 40.0),
        handle_motion=SignalSpec.sine(0.2, 0.5))
    nsteps = round(sc.duration_s / sc.dt_s)
    tracemalloc.start()
    try:
        trace = simulate_torque_loop(sc)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for name, ch in trace.channels.items():
        assert ch.flags.c_contiguous, name
    assert held / nsteps <= 82, held / nsteps


def test_feedforward_does_not_touch_disturbance_response(model, ctrl):
    """Replacing C1 must leave every d- and n-driven channel bit-identical."""
    def run(c1):
        sc = TorqueLoopScenario(
            model=model,
            controller=(c1, ctrl.c2),
            disturbance=SignalSpec.white_noise(0.5, seed=11),
            noise=SignalSpec.white_noise(1e-6, seed=12),
            duration_s=0.5,
        )
        return simulate_torque_loop(sc)

    a = run(ctrl.c1)
    p = ctrl.c2.den
    for num in ([5.0, 1.0], [2.0, 0.0, 3.0], [1.0, 4.0, 1.0, 2.0]):
        b = run(RationalTF(num, p))
        for name in ("tau_L", "y_meas", "omega_d", "u_presat", "e"):
            np.testing.assert_array_equal(a.channel(name), b.channel(name))
    # C1 and C2 are one filter over p: a C1 over another denominator is
    # rejected when the scenario is constructed
    with pytest.raises(ValueError, match="controller"):
        run(RationalTF([5.0, 1.0], [1.0, 2.0, 7.0]))


def test_impedance_reference_channel(model, ctrl):
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        handle_motion=SignalSpec.sine(0.5, 2.0),
        duration_s=1.0,
        i_d=0.5,
        phi_ref=SignalSpec.constant(0.1),
    )
    trace = simulate_torque_loop(sc)
    phi = generate(sc.handle_motion, sc.dt_s, sc.duration_s)
    np.testing.assert_allclose(
        trace.channel("r"), 0.5 * (0.1 - phi), rtol=0, atol=1e-12
    )


def test_impedance_spring_sees_the_applied_noise(model, ctrl):
    """White-noise handle motion and phi_ref are sampled once: the spring
    reacts to the same phi_L the plant sees."""
    phi_ref = SignalSpec.white_noise(1e-2, seed=9)
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        handle_motion=SignalSpec.white_noise(1e-4, seed=5),
        dt_s=1e-3,
        duration_s=1.0,
        i_d=0.02,
        phi_ref=phi_ref,
    )
    trace = simulate_torque_loop(sc)
    phi = trace.channel("phi_L")
    np.testing.assert_array_equal(phi, generate(sc.handle_motion, 1e-3, 1.0))
    spring = 0.02 * (generate(phi_ref, 1e-3, 1.0) - phi)
    assert np.max(np.abs(trace.channel("r") - spring)) <= 1e-15


def test_free_response_virtual_spring_pulls_load_back(model, ctrl):
    sc = TorqueLoopScenario(
        model=model, controller=ctrl, dt_s=2e-4, duration_s=4.0, i_d=0.5,
        load=LoadModel(phi0=0.3),
    )
    trace = simulate_torque_loop(sc)
    phi = trace.channel("phi_L")
    assert phi[0] == 0.3
    assert abs(phi[-1]) < 0.15  # decayed toward phi_ref = 0
    # restoring torque starts negative: the spring pulls the load down
    assert trace.channel("r")[0] == -0.5 * 0.3


def test_free_response_validation(model, ctrl):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="phi0 must be finite"):
            LoadModel(phi0=bad)
    with pytest.raises(ValueError, match="^handle_motion must be zero"):
        TorqueLoopScenario(
            model=model,
            controller=ctrl,
            handle_motion=SignalSpec.sine(0.1, 1.0),
            duration_s=0.5,
            i_d=0.5,
            load=LoadModel(phi0=0.1),
        )


# ---------------------------------------------------------------- analysis


def _trace_with_error(e: np.ndarray, dt: float = 0.01) -> SimTrace:
    t = np.arange(len(e)) * dt
    z = np.zeros_like(e)
    ch = {name: z.copy() for name in TRACE_CHANNELS}
    ch["t"] = t
    ch["e"] = np.asarray(e, float)
    return SimTrace(dt_s=dt, channels=ch)


def test_rms_error_and_tail_mean():
    e = np.concatenate([np.full(50, 3.0), np.full(50, 1.0)])
    trace = _trace_with_error(e)
    np.testing.assert_allclose(rms_error(trace), np.sqrt(5.0))
    np.testing.assert_allclose(rms_error(trace, from_t=0.5), 1.0)
    np.testing.assert_allclose(np.mean(trace.channel("e")[-10:]), 1.0)
    with pytest.raises(ValueError):
        rms_error(trace, from_t=10.0)


def test_peak_envelope():
    t = np.arange(0, 3.0, 1e-3)
    trace = _trace_with_error(np.sin(2 * np.pi * t), dt=1e-3)
    times, vals = peak_envelope(trace, "e")
    assert len(times) == 3
    np.testing.assert_allclose(times, [0.25, 1.25, 2.25], atol=2e-3)
    np.testing.assert_allclose(vals, 1.0, rtol=1e-5)


def test_fit_sine_recovers_parameters():
    t = np.arange(0, 2.0, 1e-3)
    x = 0.7 * np.sin(2 * np.pi * 3.0 * t + np.radians(30.0)) + 0.2
    amp, phase_deg, offset = fit_sine(t, x, 3.0)
    assert np.isclose(amp, 0.7, rtol=1e-9)
    assert np.isclose(phase_deg, 30.0, atol=1e-7)
    assert np.isclose(offset, 0.2, atol=1e-9)
    with pytest.raises(ValueError):
        fit_sine(t, x, 3.0, from_t=5.0)


def test_trace_to_csv_format(tmp_path, model, ctrl):
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.sine(0.01, 2.0),
        dt_s=1e-3,
        duration_s=0.05,
    )
    trace = simulate_torque_loop(sc)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().splitlines()
    assert lines[0] == ",".join(TRACE_CHANNELS)
    assert len(lines) == trace.n_samples + 1
    data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
    for j, name in enumerate(TRACE_CHANNELS):
        np.testing.assert_allclose(data[:, j], trace.channel(name), rtol=1e-8,
                                   atol=1e-12)

    # every value reads exactly as the per-value "%.9g" formatter writes it
    odd = _trace_with_error(
        np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 123456789.5, 1 / 3])
    )
    for tr in (trace, odd):
        trace_to_csv(tr, str(path))
        rows = zip(*(tr.channel(name) for name in TRACE_CHANNELS))
        expected = [",".join("%.9g" % v for v in row) for row in rows]
        assert path.read_text().splitlines()[1:] == expected
