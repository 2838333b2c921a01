"""The four benchmark workloads.

A workload makes its inputs from the run seed and the operation index
alone, runs one operation at a time (``op``, the timed part), and checks
each operation's output afterwards (``check``, not timed).  Every call
into the package goes through the ``seakit`` module attributes, so a
traced run sees it.
"""

from __future__ import annotations

import os
import shutil
import warnings

import numpy as np

import checks

SAT_RAD_S = 50.0
SINE_HZ = 2.0
NOISE_VAR = 0.01
PI_GAINS = (204.0, 111.0)


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


class _Tracking:
    """The fig9 noisy-tracking loop, run with the 2-DOF design and the PI
    baseline on one noise seed per operation."""

    amplitude_nm = 0.033
    duration_s = 10.0
    dt_s = 1e-4

    def __init__(self, sk, seed: int, work_dir: str):
        self.sk = sk
        self.seed = seed
        self.model = sk.build_plant(sk.default_params())
        self.ctrl = sk.h2_synthesize(self.model.P, sk.ProjectConfig().weights)
        pi = sk.PiController(*PI_GAINS)
        # (label, controller, (C1, C2)) in the order op runs them
        self.loops = (("2-DOF", self.ctrl, (self.ctrl.c1, self.ctrl.c2)),
                      ("PI", pi, pi.as_pair()))

    def steps_per_op(self) -> int:
        return 2 * round(self.duration_s / self.dt_s)

    def op(self, k: int):
        sk = self.sk
        noise_seed = int(_rng(self.seed, k).integers(2**31))
        traces = []
        for _, controller, _ in self.loops:
            sc = sk.TorqueLoopScenario(
                model=self.model,
                controller=controller,
                reference=sk.SignalSpec.sine(self.amplitude_nm, SINE_HZ),
                noise=sk.SignalSpec.white_noise(NOISE_VAR, noise_seed),
                dt_s=self.dt_s,
                duration_s=self.duration_s,
            )
            traces.append(sk.simulate_torque_loop(sc))
        return traces

    def check(self, k: int, traces) -> list[str]:
        problems = []
        for (label, _, _), trace in zip(self.loops, traces):
            problems += [f"{label}: {p}" for p in checks.check_trace_sane(trace, SAT_RAD_S)]
        return problems


class SimEnsemble(_Tracking):
    """The fig9 / criterion-6 scenario over a set of noise seeds; no files."""

    def check(self, k: int, traces) -> list[str]:
        problems = super().check(k, traces)
        problems += [f"2-DOF: {p}" for p in checks.check_linear_tracking(
            traces[0], self.model.P, self.ctrl.c1, self.ctrl.c2,
            self.amplitude_nm, SINE_HZ)]
        return problems


class SimSaturating(_Tracking):
    """The same loop with a 0.3 Nm reference, which drives the velocity
    command into the clamp on about half the samples of the 2-DOF run."""

    amplitude_nm = 0.3
    duration_s = 2.0
    prefix_steps = 2000
    min_clamped_share = 0.1

    def check(self, k: int, traces) -> list[str]:
        problems = super().check(k, traces)
        for (label, _, (c1, c2)), trace in zip(self.loops, traces):
            share = checks.clamped_share(trace)
            if share < self.min_clamped_share:
                problems.append(f"{label}: clamp engaged on only {share:.1%} of samples")
            problems += [f"{label}: {p}" for p in checks.check_clamped_prefix(
                trace, self.model.P, self.model.G, c1, c2, self.amplitude_nm,
                SINE_HZ, SAT_RAD_S, self.prefix_steps)]
        return problems


class DesignSweep:
    """One H2 design per operation for a plant drawn within +-20% of the
    design point and weights within a factor of 2 of the defaults."""

    spread = 0.2
    weight_decades = 0.3

    def __init__(self, sk, seed: int, work_dir: str):
        self.sk = sk
        self.seed = seed
        self.base = sk.default_params()
        self.weights = sk.ProjectConfig().weights

    def steps_per_op(self) -> int:
        return 0

    def _inputs(self, k: int):
        sk = self.sk
        rng = _rng(self.seed, k)
        names = ("j_a", "b_f", "k_s", "r_winch", "k_g", "k_pv", "k_iv")
        params = sk.SeaParams(**{
            n: getattr(self.base, n) * rng.uniform(1 - self.spread, 1 + self.spread)
            for n in names})
        w = self.weights
        scale = 10.0 ** rng.uniform(-self.weight_decades, self.weight_decades, 3)
        weights = sk.SynthesisWeights(rho=w.rho * scale[0], lam=w.lam * scale[1],
                                      k=w.k * scale[2])
        return params, weights

    def op(self, k: int):
        sk = self.sk
        params, weights = self._inputs(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an ill-conditioned design fails
            model = sk.build_plant(params)
            ctrl = sk.h2_synthesize(model.P, weights)
            fact = sk.coprime_factorize(model.P, ctrl.c2)
            g1, _ = sk.torque_loop_maps(model, ctrl, with_compensator=True)
            bw = sk.bandwidth_3db(g1)
            phase = sk.phase_at(g1, bw)
            loop = sk.series(model.P, ctrl.c2)
            margins = sk.loop_margins(loop)
        return model, ctrl, fact, bw, phase, loop, margins

    def check(self, k: int, out) -> list[str]:
        model, ctrl, fact, bw, phase, loop, margins = out
        _, weights = self._inputs(k)
        return checks.check_design(model.P, weights, ctrl, fact, bw, phase,
                                   margins, loop)


# Length and step of every trace CSV a reproduce pass writes, from the
# published scenarios.
TRACE_CSVS = {
    **{f"fig6/trace_id_{f:.1f}ks.csv": (6.0, 1e-4) for f in (0.2, 0.6, 1.0, 1.4)},
    "fig9/trace_two_dof.csv": (10.0, 1e-4),
    "fig9/trace_pi.csv": (10.0, 1e-4),
    "fig10/trace_chirp.csv": (42.0, 2e-4),
    "fig10_narrow/trace_chirp.csv": (26.0, 2e-4),
    "fig11/trace_free.csv": (12.0, 1e-4),
}
EXPECTED_CHECKS = (
    *(f"fig6/tracking_id_{f:.1f}ks" for f in (0.2, 0.6, 1.0, 1.4)),
    "fig9/noise_rejection_ordering",
    "fig10/frf_matches_theory",
    "fig10/bandwidth_plausible",
    "fig10/phase_lag_plausible",
    "fig10_narrow/frf_matches_theory",
    "fig11/decaying_envelope",
)
# Red by design: the delay-free model lags about 85.5 deg at its -3 dB
# point, short of the 100-160 deg band seen on hardware.
KNOWN_RED = "fig10/phase_lag_plausible"


class Reproduce:
    """What ``seakit reproduce --seed N`` runs, in-process, one pass per
    operation into a fresh directory."""

    def __init__(self, sk, seed: int, work_dir: str):
        self.sk = sk
        self.noise_seed = int(_rng(seed, 0).integers(2**31))
        self.dir = os.path.join(work_dir, f"reproduce-{os.getpid()}")
        self.first: dict[str, str] | None = None
        self.known_red = ""

    def steps_per_op(self) -> int:
        return sum(round(t / dt) for t, dt in TRACE_CSVS.values())

    def op(self, k: int):
        out = os.path.join(self.dir, f"pass-{k}")
        results = self.sk.run_reproduce(self.sk.ProjectConfig(), out, seed=self.noise_seed)
        return out, results

    def check(self, k: int, out) -> list[str]:
        out_dir, results = out
        try:
            return self._check(out_dir, results)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, out_dir, results) -> list[str]:
        problems = []
        seen = {f"{r.preset}/{r.check}": r for r in results}
        if sorted(seen) != sorted(EXPECTED_CHECKS):
            problems.append(f"checks reported: {sorted(seen)}")
        for name, r in seen.items():
            if name == KNOWN_RED:
                self.known_red = f"{name}: {'pass' if r.passed else 'FAIL'} ({r.detail})"
            elif not r.passed:
                problems.append(f"{name} failed: {r.detail}")
        # one file at a time, so that the check adds little to peak_rss_mib
        scans = {rel: checks.scan_csv(path)
                 for rel, path in checks.csv_paths(out_dir).items()}
        for rel, (duration, dt) in TRACE_CSVS.items():
            scan = scans.get(rel)
            if scan is None:
                problems.append(f"{rel} missing")
            else:
                problems += [f"{rel}: {p}" for p in checks.check_trace_csv(scan, duration, dt)]
        digests = {rel: scan.sha256 for rel, scan in scans.items()}
        if self.first is None:
            self.first = digests
        else:
            problems += checks.check_same_files(self.first, digests)
        return problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "reproduce": Reproduce,
    "sim_ensemble": SimEnsemble,
    "sim_saturating": SimSaturating,
    "design_sweep": DesignSweep,
}
