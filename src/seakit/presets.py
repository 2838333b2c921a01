"""Canned experiment presets and the reproduce driver.

Each preset pins one published experiment's scenario constants in a
single place and knows how to run itself, write its artifacts (CSV
traces, FRF tables, SVG plots), and score itself against the acceptance
tolerances.  The reproduce driver runs all of them and emits a summary
table; any failed check makes the overall run fail.  Every simulation
is one TorqueLoopScenario run by simulate_torque_loop: fig6 sets the
virtual stiffness i_d, and fig11 sets i_d and a released load.

Scale note: the quantitative checks compare simulation against the
toolkit's own frequency-domain predictions (self-consistency).  Hardware
numbers from the original experiments enter only as plausibility bands,
and one of them is honestly out of reach: the theoretical phase lag at
the closed loop's own -3 dB frequency sits near 86 degrees, outside the
130 +- 30 degree band the hardware suggests.  That check is reported as
a failure rather than widened; see the fig10 runner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ProjectConfig, write_csv
from .identify import bandwidth_3db, estimate_frf, frf_to_csv, phase_at
from .plant import build_plant
from .simulation import (
    LoadModel,
    PiController,
    SignalSpec,
    TorqueLoopScenario,
    peak_envelope,
    rms_error,
    simulate_torque_loop,
    trace_to_csv,
)
from .svgplot import Curve, plot_bode, plot_lines
from .synthesis import h2_synthesize, torque_loop_maps
from .transfer import frequency_response

__all__ = ["CheckResult", "PRESET_NAMES", "run_preset", "run_reproduce"]

PRESET_NAMES = ("fig6", "fig9", "fig10", "fig10_narrow", "fig11")

# Shared scenario constants.
_SINE_AMP_NM = 0.033  # published tracking excitation
_SINE_HZ = 2.0
_NOISE_VAR = 0.01
_NOISE_SEED = 1101
# Chirp amplitude is chosen below the published sine amplitude: the
# feedforward gain approaches 2000 (1/rho k) at the top of the sweep and
# 0.033 Nm would brush the 50 rad/s velocity limit, corrupting the FRF.
_CHIRP_AMP_NM = 0.02
_HANDLE_AMP_RAD = 0.5
_IMPEDANCE_FRACTIONS = (0.2, 0.6, 1.0, 1.4)
_PHASE_PLAUSIBILITY_DEG = (100.0, 160.0)  # 130 +- 30
_BANDWIDTH_BAND_HZ = (10.0, 25.0)


@dataclass(frozen=True)
class CheckResult:
    preset: str
    check: str
    passed: bool
    detail: str

    def __post_init__(self):
        # verdicts are often numpy bools, which json cannot serialize
        object.__setattr__(self, "passed", bool(self.passed))


def _design(cfg: ProjectConfig):
    model = build_plant(cfg.plant)
    ctrl = h2_synthesize(model.P, cfg.weights)
    return model, ctrl


def _reseed(obj, seed: int | None):
    """obj with every white-noise seed replaced; everything else is kept.

    obj is a SignalSpec or a scenario, whose signals are reseeded field
    by field.
    """
    if seed is None:
        return obj
    if isinstance(obj, SignalSpec):
        return replace(obj, seed=seed) if obj.kind == "white_noise" else obj
    return replace(obj, **{
        f.name: _reseed(getattr(obj, f.name), seed)
        for f in fields(obj) if isinstance(getattr(obj, f.name), SignalSpec)
    })


def run_fig6(cfg: ProjectConfig, out_dir: str, seed: int | None = None):
    """Impedance sweep: virtual stiffness from 0.2 to 1.4 of the spring.

    Four simulations with a 2 Hz handle motion; each trace must track
    tau_d with relative RMS error below the frequency-domain bound."""
    model, ctrl = _design(cfg)
    g1, h_phi = torque_loop_maps(model, ctrl, with_compensator=True)
    s2 = 2j * np.pi * _SINE_HZ
    results = []
    rows = []
    curves = []
    for frac in _IMPEDANCE_FRACTIONS:
        i_d = frac * cfg.plant.k_s
        sc = TorqueLoopScenario(
            model=model,
            controller=ctrl,
            handle_motion=SignalSpec.sine(_HANDLE_AMP_RAD, _SINE_HZ),
            compensator_on=True,
            dt_s=1e-4,
            duration_s=6.0,
            i_d=i_d,
        )
        trace = simulate_torque_loop(sc)
        tag = f"id_{frac:.1f}ks"
        trace_to_csv(trace, os.path.join(out_dir, f"trace_{tag}.csv"))
        rel = rms_error(trace, from_t=2.0) / _rms(trace.channel("r"), trace.t, 2.0)
        # tau_L = G1 tau_d + H_phi phi with tau_d = -i_d phi, so the
        # relative error at the excitation frequency is bounded by
        # |(1 - G1) i_d + H_phi| / i_d (plus the sim-vs-oracle slack).
        bound = abs((1.0 - g1(s2)) * i_d + h_phi(s2)) / i_d
        limit = bound * 1.02 + 1e-4
        ok = rel <= limit
        results.append(
            CheckResult(
                "fig6",
                f"tracking_{tag}",
                ok,
                f"relative RMS {rel:.4e} vs bound {limit:.4e}",
            )
        )
        rows.append((i_d, rel, bound))
        mask = trace.t <= 2.0
        curves.append(
            Curve(trace.t[mask], trace.channel("tau_L")[mask], f"tau_L, {frac:.1f} Ks")
        )
    write_csv(
        os.path.join(out_dir, "rms_table.csv"),
        ["i_d_nm_per_rad", "relative_rms", "frequency_domain_bound"],
        [np.array([r[i] for r in rows]) for i in range(3)],
    )
    plot_lines(
        os.path.join(out_dir, "impedance_sweep.svg"),
        curves,
        xlabel="time (s)",
        ylabel="torque (Nm)",
        title="Impedance tracking across virtual stiffness settings",
    )
    return results


def _rms(x: np.ndarray, t: np.ndarray, from_t: float) -> float:
    xw = x[t >= from_t]
    return float(np.sqrt(np.mean(xw * xw)))


def run_fig9(cfg: ProjectConfig, out_dir: str, seed: int | None = None):
    """Noisy tracking: the 2-DOF pair against the tuned PI baseline.

    Identical seeds; the 2-DOF steady-state RMS error must not exceed
    the PI controller's.  The detail also counts, per controller, the
    samples where the velocity clamp acts, from each trace's stats."""
    model, ctrl = _design(cfg)
    noise = _reseed(SignalSpec.white_noise(_NOISE_VAR, _NOISE_SEED), seed)
    reference = SignalSpec.sine(_SINE_AMP_NM, _SINE_HZ)
    rms, clamped = {}, {}
    for label, controller in (("two_dof", ctrl), ("pi", PiController(204.0, 111.0))):
        sc = TorqueLoopScenario(
            model=model,
            controller=controller,
            reference=reference,
            noise=noise,
            dt_s=1e-4,
            duration_s=10.0,
        )
        trace = simulate_torque_loop(sc)
        trace_to_csv(trace, os.path.join(out_dir, f"trace_{label}.csv"))
        rms[label] = rms_error(trace, from_t=2.0)
        clamped[label] = trace.stats.clamped_samples
        if label == "two_dof":
            mask = (trace.t >= 2.0) & (trace.t <= 4.0)
            curves = [
                Curve(trace.t[mask], trace.channel("r")[mask], "reference"),
                Curve(trace.t[mask], trace.channel("tau_L")[mask], "tau_L (2-DOF)"),
            ]
        else:
            curves.append(
                Curve(trace.t[mask], trace.channel("tau_L")[mask], "tau_L (PI)")
            )
    plot_lines(
        os.path.join(out_dir, "noisy_tracking.svg"),
        curves,
        xlabel="time (s)",
        ylabel="torque (Nm)",
        title="2 Hz tracking with feedback noise, 2-DOF vs PI",
    )
    write_csv(
        os.path.join(out_dir, "rms_table.csv"),
        ["controller_two_dof_rms_nm", "controller_pi_rms_nm"],
        [np.array([rms["two_dof"]]), np.array([rms["pi"]])],
    )
    ok = rms["two_dof"] <= rms["pi"]
    return [
        CheckResult(
            "fig9",
            "noise_rejection_ordering",
            ok,
            f"2-DOF RMS {rms['two_dof']:.4e} Nm vs PI {rms['pi']:.4e} Nm; "
            f"velocity clamp: 2-DOF {clamped['two_dof']}, PI {clamped['pi']} "
            f"of {trace.n_samples} samples",
        )
    ]


def _run_chirp_frf(cfg, out_dir, f0, f1, sweep_s, duration_s, grid, preset):
    """Shared chirp-excitation FRF runner for the two Bode presets."""
    model, ctrl = _design(cfg)
    g1, _ = torque_loop_maps(model, ctrl, with_compensator=False)
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        reference=SignalSpec.chirp(_CHIRP_AMP_NM, f0, f1, sweep_s),
        dt_s=2e-4,
        duration_s=duration_s,
    )
    trace = simulate_torque_loop(sc)
    trace_to_csv(trace, os.path.join(out_dir, "trace_chirp.csv"))
    est = estimate_frf(trace.channel("r"), trace.channel("tau_L"), sc.dt_s, grid)
    frf_to_csv(est, os.path.join(out_dir, "frf_estimated.csv"))
    theory = frequency_response(g1, grid)
    frf_to_csv(theory, os.path.join(out_dir, "frf_theory.csv"))

    coherent = est.coherence > 0.99
    dmag = np.abs(est.magnitude_db - theory.magnitude_db)[coherent]
    dph = np.abs(est.phase_deg - theory.phase_deg)[coherent]
    max_dmag = float(np.max(dmag)) if len(dmag) else float("nan")
    max_dph = float(np.max(dph)) if len(dph) else float("nan")
    fit_ok = len(dmag) > 0 and max_dmag <= 0.5 and max_dph <= 5.0
    results = [
        CheckResult(
            preset,
            "frf_matches_theory",
            fit_ok,
            f"max deviation {max_dmag:.3f} dB / {max_dph:.2f} deg over "
            f"{int(np.sum(coherent))} coherent points",
        )
    ]

    bw_hz = bandwidth_3db(g1)
    lag_deg = -phase_at(g1, bw_hz)
    vline = [(bw_hz, f"-3 dB at {bw_hz:.2f} Hz")]
    plot_bode(
        os.path.join(out_dir, "bode.svg"),
        [
            Curve(grid, theory.magnitude_db, "theory"),
            Curve(est.freqs_hz, est.magnitude_db, "estimated", dash=True),
        ],
        [
            Curve(grid, theory.phase_deg, "theory"),
            Curve(est.freqs_hz, est.phase_deg, "estimated", dash=True),
        ],
        title="Closed torque loop: estimated vs theoretical response",
        vlines=vline,
    )
    if preset == "fig10":
        lo, hi = _BANDWIDTH_BAND_HZ
        results.append(
            CheckResult(
                preset,
                "bandwidth_plausible",
                lo <= bw_hz <= hi,
                f"-3 dB at {bw_hz:.3f} Hz vs [{lo:.0f}, {hi:.0f}] Hz band",
            )
        )
        plo, phi_b = _PHASE_PLAUSIBILITY_DEG
        # Known-red plausibility check: the theoretical lag at the loop's
        # own cutoff is ~86 deg, well short of the hardware-suggested
        # band.  Reported honestly; see the module docstring.
        results.append(
            CheckResult(
                preset,
                "phase_lag_plausible",
                plo <= lag_deg <= phi_b,
                f"lag {lag_deg:.2f} deg at {bw_hz:.3f} Hz vs "
                f"[{plo:.0f}, {phi_b:.0f}] deg band",
            )
        )
    return results


def run_fig10(cfg: ProjectConfig, out_dir: str, seed: int | None = None):
    """Wide chirp through the torque loop; Bode comparison and the
    bandwidth/phase plausibility checks."""
    grid = np.logspace(np.log10(0.5), np.log10(25.0), 40)
    return _run_chirp_frf(cfg, out_dir, 0.1, 30.0, 40.0, 42.0, grid, "fig10")


def run_fig10_narrow(cfg: ProjectConfig, out_dir: str, seed: int | None = None):
    """The published low-frequency chirp (0 to 5 Hz); FRF fidelity only,
    since the band ends far below the cutoff."""
    grid = np.logspace(np.log10(0.4), np.log10(4.5), 25)
    return _run_chirp_frf(cfg, out_dir, 0.0, 5.0, 25.0, 26.0, grid, "fig10_narrow")


def run_fig11(cfg: ProjectConfig, out_dir: str, seed: int | None = None):
    """Free response of an inertia-damper load under the virtual spring.

    The load is displaced 1 rad and released; the oscillation peaks must
    decay monotonically."""
    model, ctrl = _design(cfg)
    sc = TorqueLoopScenario(
        model=model,
        controller=ctrl,
        compensator_on=True,
        dt_s=1e-4,
        # the rendered spring against the default load swings at
        # ~0.35 Hz; 12 s covers four decaying peaks
        duration_s=12.0,
        i_d=cfg.plant.k_s,
        load=LoadModel(phi0=1.0),
    )
    trace = simulate_torque_loop(sc)
    trace_to_csv(trace, os.path.join(out_dir, "trace_free.csv"))
    t_pk, v_pk = peak_envelope(trace, "phi_L")
    decaying = len(v_pk) >= 3 and bool(np.all(np.diff(v_pk) < 0.0))
    plot_lines(
        os.path.join(out_dir, "free_response.svg"),
        [
            Curve(trace.t, trace.channel("phi_L"), "phi_L (rad)"),
            Curve(trace.t, trace.channel("tau_L"), "tau_L (Nm)"),
        ],
        xlabel="time (s)",
        ylabel="response",
        title="Free response after a 1 rad load displacement",
    )
    return [
        CheckResult(
            "fig11",
            "decaying_envelope",
            decaying,
            f"{len(v_pk)} peaks, first {v_pk[0]:.4f} last {v_pk[-1]:.4f}"
            if len(v_pk)
            else "no peaks found",
        )
    ]


_RUNNERS = {
    "fig6": run_fig6,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig10_narrow": run_fig10_narrow,
    "fig11": run_fig11,
}


def run_preset(
    name: str, cfg: ProjectConfig, out_dir: str, seed: int | None = None
) -> list[CheckResult]:
    """Run one named preset, writing artifacts into out_dir."""
    if name not in _RUNNERS:
        raise KeyError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    os.makedirs(out_dir, exist_ok=True)
    return _RUNNERS[name](cfg, out_dir, seed)


def run_reproduce(
    cfg: ProjectConfig, out_root: str, seed: int | None = None
) -> list[CheckResult]:
    """Run every preset into per-preset subdirectories; return all checks."""
    results: list[CheckResult] = []
    for name in PRESET_NAMES:
        results.extend(run_preset(name, cfg, os.path.join(out_root, name), seed))
    lines = ["preset,check,status,detail"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        detail = r.detail.replace(",", ";")
        lines.append(f"{r.preset},{r.check},{status},{detail}")
    with open(os.path.join(out_root, "summary.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return results
