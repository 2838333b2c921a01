"""Deterministic fixed-step simulation of the closed torque loop.

One scenario type, TorqueLoopScenario, and one entry point,
simulate_torque_loop.  The interconnection integrated is the one the
controller is designed for: u = C1 r - C2 (tau_L + n), the motor
velocity command is saturated, omega_d = clamp(u + d, +-sat), and the
plant responds with tau_L through P (from omega_d) plus G (from load
motion phi_L).  A scenario with i_d set is in impedance mode: the torque
reference is the virtual spring tau_d = i_d (phi_ref - phi_L), optionally
corrected by the load-motion compensator C_L, and phi_L is the handle
motion or, with a load set, the state of that load.

The linear blocks are assembled once, by _assemble, into a single
state-space system over the inputs [r, d, n, phi_L]: 6 states for the
2-DOF loop, 4 for PI, 9 with C_L, 11 with the load too.  The virtual
spring and the load are rows of that system, and tau_L, u_presat, phi_L
and the recorded reference all come out of one product over [x, v].
The saturation is the only nonlinearity, applied to the scalar
velocity command at every stage of a fixed-step classical Runge-Kutta
integrator; a step too large for RK4 is rejected up front.  The RK4
step is one linear map, and a step runs in one of three affine modes.
Inside: its four stage commands stay within the limit, and it is the
map closed through the unclamped command, x+ = Phi x + G0 w0 + Gh wh +
G1 w1, Phi the degree-4 Taylor polynomial of exp(hA).  +sat and -sat:
its four commands are all at or past that side of the limit, and it is
the map opened at the clamp with the command held at the limit.  Each
mode is solved in closed form, a chunked linear recurrence in three
levels: sub-blocks of 8 steps, blocks of 64 and groups of 32 blocks,
each level carrying the start states of the one below.  A group that
starts inside the limit, after a group with no single step, is solved
whole; any other solve runs to the end of its block.  A solve keeps its
steps up to the first that leaves its mode.  From there the loop steps
one at a time, clamping the four stage commands of a step in none of
the modes in sequence, and solves again after 8 steps in a row at +sat
or -sat, or after `wait` steps inside.  wait starts at 1, doubles up to
8 after an inside solve that keeps fewer than 8 steps, and drops back to
1 after a solve that keeps at least 8.
Every nonzero input, phi_ref and handle motion included, is sampled
once, by _step_inputs: deterministic signals on the half-step grid the
integrator needs, seeded noise held constant across each step
(zero-order hold).  A zero input adds exactly 0 to every product, so
it is never sampled or multiplied; each group's input block is filled
straight from the samples of the others.  The integrator holds only the
current group's states, and records the four rows of each group as it
ends.  So a run peaks at its trace, 80 B a step, or, while it
integrates, at the 32 B a step of recorded rows plus its sampled inputs,
16 B a step for each smooth one and 8 for noise: about 100 B a step with
four smooth inputs.

Everything is deterministic: same scenario, same trace, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .plant import SeaModel
from .synthesis import (build_compensator, _controller_pair, _feedforward_quotient,
                        _shared_denominator_pair)
from .transfer import RationalTF, to_state_space

__all__ = [
    "SignalSpec",
    "generate",
    "PiController",
    "TorqueLoopScenario",
    "LoadModel",
    "SimStats",
    "SimTrace",
    "TRACE_CHANNELS",
    "simulate_torque_loop",
    "rms_error",
    "peak_envelope",
    "fit_sine",
    "trace_to_csv",
]

# Each signal kind and the fields it reads; config parses exactly these
# keys.
_SIGNAL_FIELDS = {
    "zero": (),
    "constant": ("amplitude", "offset"),
    "sine": ("amplitude", "frequency_hz", "offset"),
    "chirp": ("amplitude", "f0_hz", "f1_hz", "sweep_s", "offset"),
    "step": ("amplitude", "start_s", "offset"),
    "white_noise": ("variance", "seed", "offset"),
    "piecewise_linear": ("breakpoints", "offset"),
}

# Most steps of one run: at about 100 B a step (four smooth inputs), 1 GiB.
_MAX_STEPS = 10**7

_NUMERIC_FIELDS = ("amplitude", "frequency_hz", "f0_hz", "f1_hz", "sweep_s",
                   "offset", "start_s", "variance")


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of one scalar excitation.

    kind selects the generator, which reads only the fields
    _SIGNAL_FIELDS lists for it.  Instances are immutable and hashable
    so scenarios can be compared and reused.
    """

    kind: str
    amplitude: float = 0.0
    frequency_hz: float = 0.0
    f0_hz: float = 0.0
    f1_hz: float = 0.0
    sweep_s: float = 0.0
    offset: float = 0.0
    start_s: float = 0.0
    variance: float = 0.0
    seed: int | None = None
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in _SIGNAL_FIELDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        for name in _NUMERIC_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(x) for bp in self.breakpoints for x in bp):
            raise ValueError("breakpoints must be finite")
        if self.kind == "sine" and not self.frequency_hz > 0.0:
            raise ValueError("sine requires frequency_hz > 0")
        if self.kind == "chirp":
            if not (self.f1_hz >= self.f0_hz >= 0.0):
                raise ValueError("chirp requires f1_hz >= f0_hz >= 0")
            if not self.sweep_s > 0.0:
                raise ValueError("chirp requires sweep_s > 0")
        if self.kind == "white_noise":
            if self.variance < 0.0:
                raise ValueError("white_noise requires variance >= 0")
            seed = self.seed
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
                raise ValueError(f"seed must be an integer, not {seed!r}")
            if seed < 0:
                raise ValueError("white_noise requires a seed >= 0")
        if self.kind == "step" and self.start_s < 0.0:
            raise ValueError("step requires start_s >= 0")
        if self.kind == "piecewise_linear":
            ts = [bp[0] for bp in self.breakpoints]
            if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError(
                    "piecewise_linear requires >= 2 breakpoints with "
                    "strictly increasing times"
                )

    # Convenience constructors; keyword soup above is rarely typed by hand.
    @classmethod
    def zero(cls) -> "SignalSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "SignalSpec":
        return cls(kind="constant", amplitude=float(value))

    @classmethod
    def sine(
        cls, amplitude: float, frequency_hz: float, offset: float = 0.0
    ) -> "SignalSpec":
        return cls(
            kind="sine",
            amplitude=float(amplitude),
            frequency_hz=float(frequency_hz),
            offset=float(offset),
        )

    @classmethod
    def chirp(
        cls, amplitude: float, f0_hz: float, f1_hz: float, sweep_s: float
    ) -> "SignalSpec":
        return cls(
            kind="chirp",
            amplitude=float(amplitude),
            f0_hz=float(f0_hz),
            f1_hz=float(f1_hz),
            sweep_s=float(sweep_s),
        )

    @classmethod
    def step(cls, amplitude: float, start_s: float = 0.0) -> "SignalSpec":
        return cls(kind="step", amplitude=float(amplitude), start_s=float(start_s))

    @classmethod
    def white_noise(cls, variance: float, seed: int) -> "SignalSpec":
        return cls(kind="white_noise", variance=float(variance), seed=seed)

    @classmethod
    def piecewise_linear(
        cls, breakpoints: list[tuple[float, float]]
    ) -> "SignalSpec":
        return cls(
            kind="piecewise_linear",
            breakpoints=tuple((float(t), float(v)) for t, v in breakpoints),
        )


def _generate_n(spec: SignalSpec, dt_s: float, n: int) -> np.ndarray:
    """Sample a spec at n points spaced dt_s, starting at t = 0."""
    t = np.arange(n) * dt_s
    if spec.kind == "zero":
        return np.zeros(n)
    if spec.kind == "constant":
        return np.full(n, spec.amplitude + spec.offset)
    if spec.kind == "sine":
        return spec.offset + spec.amplitude * np.sin(
            2.0 * np.pi * spec.frequency_hz * t
        )
    if spec.kind == "chirp":
        # Linear instantaneous frequency f0 -> f1 over sweep_s, then held
        # at f1 with continuous phase.
        rate = (spec.f1_hz - spec.f0_hz) / spec.sweep_s
        phase = 2.0 * np.pi * (spec.f0_hz * t + 0.5 * rate * t * t)
        past = t > spec.sweep_s
        if np.any(past):
            end_phase = 2.0 * np.pi * (
                spec.f0_hz * spec.sweep_s + 0.5 * rate * spec.sweep_s**2
            )
            phase[past] = end_phase + 2.0 * np.pi * spec.f1_hz * (
                t[past] - spec.sweep_s
            )
        return spec.offset + spec.amplitude * np.sin(phase)
    if spec.kind == "step":
        return spec.offset + np.where(t >= spec.start_s, spec.amplitude, 0.0)
    if spec.kind == "white_noise":
        rng = np.random.default_rng(spec.seed)
        return spec.offset + math.sqrt(spec.variance) * rng.standard_normal(n)
    if spec.kind == "piecewise_linear":
        xs = np.array([bp[0] for bp in spec.breakpoints])
        ys = np.array([bp[1] for bp in spec.breakpoints])
        return spec.offset + np.interp(t, xs, ys)
    raise ValueError(f"unknown signal kind {spec.kind!r}")


def generate(spec: SignalSpec, dt_s: float, duration_s: float) -> np.ndarray:
    """Sample a signal spec on the uniform grid 0, dt_s, ..., duration_s.

    Returns round(duration_s / dt_s) + 1 samples.  White noise draws a
    fresh seeded generator on every call, so repeated calls agree.
    """
    if not (math.isfinite(dt_s) and dt_s > 0.0):
        raise ValueError("dt_s must be finite and positive")
    if not (math.isfinite(duration_s) and duration_s >= 0.0):
        raise ValueError("duration_s must be finite and nonnegative")
    return _generate_n(spec, dt_s, int(round(duration_s / dt_s)) + 1)


@dataclass(frozen=True)
class PiController:
    """Proportional-integral torque controller C = kp + ki/s.

    Runs in the same loop topology as the 2-DOF pair with C1 = C2 = C,
    so u = C (r - tau_L - n); comparisons against the 2-DOF design then
    differ in controller structure only.
    """

    kp: float
    ki: float

    def __post_init__(self):
        for name in ("kp", "ki"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError("PI gains must be nonnegative")

    def as_pair(self) -> tuple[RationalTF, RationalTF]:
        c = RationalTF([self.kp, self.ki], [1.0, 0.0])
        return c, c


@dataclass(frozen=True)
class LoadModel:
    """Inertia-damper load driven by the delivered torque.

    J_L phidd + b_L phid = tau_L, released at rest from the angle phi0 in
    rad.  Desk-scale defaults; the free-response acceptance on this model
    is qualitative (decay), never numeric.
    """

    j_l: float = 0.01
    b_l: float = 0.005
    phi0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.j_l) and self.j_l > 0.0):
            raise ValueError("j_l must be finite and positive")
        if not (math.isfinite(self.b_l) and self.b_l >= 0.0):
            raise ValueError("b_l must be finite and nonnegative")
        if not math.isfinite(self.phi0):
            raise ValueError("phi0 must be finite")


@dataclass(frozen=True)
class TorqueLoopScenario:
    """Everything one run of the loop needs.

    reference is the torque command r in Nm; disturbance d enters the
    motor velocity command in rad/s; noise n corrupts the torque
    measurement in Nm; handle_motion is the exogenous load angle phi_L in
    rad.  The velocity command is clamped to +-saturation_rad_s.

    With i_d set (the virtual stiffness, > 0, in Nm/rad) the scenario is
    in impedance mode: the torque reference is tau_d = i_d (phi_ref -
    phi_L) and reference must stay zero.  With a load as well, phi_L is
    the angle of that load, released from load.phi0, and handle_motion
    must stay zero.  phi_ref and load apply only with i_d set.
    """

    model: SeaModel
    controller: object  # TwoDofController or PiController
    reference: SignalSpec = field(default_factory=SignalSpec.zero)
    disturbance: SignalSpec = field(default_factory=SignalSpec.zero)
    noise: SignalSpec = field(default_factory=SignalSpec.zero)
    handle_motion: SignalSpec = field(default_factory=SignalSpec.zero)
    phi_ref: SignalSpec = field(default_factory=SignalSpec.zero)
    compensator_on: bool = False
    saturation_rad_s: float = 50.0
    dt_s: float = 1e-4
    duration_s: float = 10.0
    i_d: float | None = None
    load: LoadModel | None = None

    def __post_init__(self):
        # each message starts with the field it names, which
        # config.parse_config prefixes with the scenario's path
        for name in ("dt_s", "duration_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt_s > 0.0:
            raise ValueError("dt_s must be positive")
        if self.duration_s < 10.0 * self.dt_s:
            raise ValueError("duration_s must cover at least 10 steps")
        if self.duration_s / self.dt_s > _MAX_STEPS:
            raise ValueError(f"duration_s must cover at most {_MAX_STEPS:.0e} steps")
        if not self.saturation_rad_s > 0.0:
            raise ValueError("saturation_rad_s must be positive")
        _shared_denominator_pair(self.controller)
        if self.i_d is None:
            if self.phi_ref.kind != "zero":
                raise ValueError("phi_ref applies only with i_d set")
            if self.load is not None:
                raise ValueError("load applies only with i_d set")
            return
        if not 0.0 < self.i_d <= 1e100:  # a stiffer spring overflows the loop
            raise ValueError("i_d must be positive and at most 1e+100")
        if self.reference.kind != "zero":
            raise ValueError(
                "reference must be zero: impedance mode derives the torque "
                "reference from i_d (phi_ref - phi_L)"
            )
        if self.load is not None and self.handle_motion.kind != "zero":
            raise ValueError("handle_motion must be zero: the load simulates phi_L")


TRACE_CHANNELS = (
    "t",
    "r",
    "u_presat",
    "omega_d",
    "d",
    "n",
    "tau_L",
    "y_meas",
    "phi_L",
    "e",
)


@dataclass(frozen=True)
class SimStats:
    """What one run did: its steps by the path the integrator took, solved
    in closed-form blocks in a mode (inside, +sat, -sat) or taken one at a
    time inside the limit or clamped; the samples with |u_presat| past the
    limit saturation_rad_s, and the largest |u_presat|.  A step can clamp
    at an inner RK4 stage while its end sample stays inside the limit."""

    closed_block: int
    upper_block: int
    lower_block: int
    closed_single: int
    clamped_single: int
    clamped_samples: int
    peak_u_presat: float
    saturation_rad_s: float


@dataclass(frozen=True)
class SimTrace:
    """Uniformly sampled simulation record.

    channels holds equal-length arrays for: t, the torque reference r
    (tau_d in impedance mode), the pre-saturation velocity command
    u_presat = u + d, the saturated command omega_d, the injected d and
    n, the delivered torque tau_L, the measured torque y_meas = tau_L +
    n, the load angle phi_L, and the tracking error e = r - tau_L.
    stats, set by the simulator, is no channel and holds no wall time.
    """

    dt_s: float
    channels: dict[str, np.ndarray]
    stats: SimStats | None = None

    def __post_init__(self):
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) != 1:
            raise ValueError("all trace channels must have equal length")

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise KeyError(f"no channel {name!r}; have {sorted(self.channels)}")
        return self.channels[name]

    @property
    def t(self) -> np.ndarray:
        return self.channels["t"]

    @property
    def n_samples(self) -> int:
        return len(self.channels["t"])


# Input channels of the assembled loop, in this order.
_N_INPUTS = 4
_R, _D, _N, _PHI = range(_N_INPUTS)


@dataclass(frozen=True)
class _LoopSystem:
    """The closed loop as one linear system around the velocity clamp.

    With inputs v = [r, d, n, phi] and w = clamp(u_presat) the motor
    velocity command,

        dx/dt = A x + B v + b_w w,    u_presat = c_u x + d_u v,

    and out_x x + out_v v gives the recorded [tau_L, u_presat, phi_L, r],
    r the torque reference.  These four rows are recorded as each group of
    steps ends, 32 B a step, in place of the states and stage commands,
    8 (nx + 4) B a step.
    Whenever the clamp is inactive the loop is the LTI system
    (A + b_w c_u, B + b_w d_u).
    """

    A: np.ndarray
    B: np.ndarray
    b_w: np.ndarray
    c_u: np.ndarray
    d_u: np.ndarray
    out_x: np.ndarray
    out_v: np.ndarray


def _assemble(sc: TorqueLoopScenario) -> _LoopSystem:
    """Build the loop u = C1 r - C2 (tau_L + n) as one state-space system.

    The plant pair is one observable canonical block over den(P) =
    s den(G), driven by [w, phi_L]: tau_L = P w + (G s / s) phi_L.  The
    controller is one block over one denominator, driven by [r, y] (u =
    (n1 r - q y) / p) and, with the compensator on, by phi_L: u = C1 r -
    C2 y - (C1 C_L) phi_L over p den(C1 C_L), C1 C_L from
    ``_feedforward_quotient``.  The reference r is the R input in torque
    mode (i_d None) and the virtual spring i_d (R - phi_L) in impedance
    mode.  The state layout is plant pair, controller, [phi_L, phi_L'].
    Every scalar signal of the loop is built as a row over [x, v].
    """
    model, i_d, load = sc.model, sc.i_d, sc.load
    c1, c2 = _controller_pair(sc.controller)
    g_s = model.G * RationalTF([1.0, 0.0], [1.0, 0.0])  # G s / s, over den(P)
    tfs = (c1, -c2)
    if sc.compensator_on:
        build_compensator(model, sc.controller)  # raises unless a p + b n2 is Hurwitz
        ff = _feedforward_quotient(model.P, sc.controller, g_s.num)  # C1 C_L
        over = RationalTF(ff.den, ff.den)
        tfs = (c1 * over, -c2 * over, RationalTF(c1.den, c1.den) * -ff)
    pg, ctl = to_state_space(model.P, g_s), to_state_space(*tfs)
    sizes = [pg.order, ctl.order, 2 if load is not None else 0]
    ends = np.cumsum(sizes)
    s_p, s_k, s_l = (slice(e - n, e) for e, n in zip(ends, sizes))
    nx = int(ends[-1])
    nz = nx + _N_INPUTS

    def row(idx, value=1.0):
        e = np.zeros(nz)
        e[idx] = value
        return e

    phi = row(s_l.start) if load is not None else row(nx + _PHI)
    tau = row(s_p, pg.C) + pg.D[1] * phi  # P is strictly proper
    y = tau + row(nx + _N)
    r = row(nx + _R) if i_d is None else i_d * (row(nx + _R) - phi)
    drives = (r, y, phi) if sc.compensator_on else (r, y)
    u = row(s_k, ctl.C) + sum(gain * v for gain, v in zip(ctl.D, drives))
    u_presat = u + row(nx + _D)

    F = np.zeros((nx, nz))  # dx/dt = F [x, v] + b_w w
    b_w = np.zeros(nx)
    b_w[s_p] = pg.B[:, 0]  # the plant is driven by the clamped command w
    F[s_p, s_p] = pg.A
    F[s_p] += np.outer(pg.B[:, 1], phi)
    F[s_k, s_k] = ctl.A
    F[s_k] += ctl.B @ np.stack(drives)
    if load is not None:
        phid = row(s_l.start + 1)
        F[s_l.start] = phid
        F[s_l.start + 1] = (tau - load.b_l * phid) / load.j_l
    return _LoopSystem(
        A=F[:, :nx],
        B=F[:, nx:],
        b_w=b_w,
        c_u=u_presat[:nx],
        d_u=u_presat[nx:],
        out_x=np.stack([tau[:nx], u_presat[:nx], phi[:nx], r[:nx]]),
        out_v=np.stack([tau[nx:], u_presat[nx:], phi[nx:], r[nx:]]),
    )


def _check_step(a: np.ndarray, h: float) -> None:
    """Reject h if RK4 grows a decaying mode of the unclamped loop matrix a.

    RK4 scales a mode lambda by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    z = h lambda, per step; a non-finite |R(z)| (a huge loop gain) is growth.
    """
    lam = np.linalg.eigvals(a)
    z = h * lam[lam.real < 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))
    worst = float(np.max(np.where(np.isfinite(amp), amp, np.inf), initial=0.0))
    if worst > 1.0:
        raise ValueError(
            f"dt_s = {h:.6g} s is too large for RK4: a decaying loop mode "
            f"grows by {worst:.3g} per step"
        )


def _step_maps(a, b, b_w, c_u, d_u, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of dx/dt = a x + b v + b_w w_i, run on linear maps.

    The maps act on [x, v0, vh, v1, w1, w2, w3, w4]: the inputs at the
    start, midpoint and end of the step, then the command the plant
    receives at each stage.  They give the next state (the degree-4
    Taylor polynomial of exp(h a) on x) and the four stage commands
    c_u x_i + d_u v_i, where stage i depends on w_j only for j < i.
    """
    nx, ni = b.shape
    cols = nx + 3 * ni + 4
    x = np.eye(nx, cols)
    v0, vh, v1 = (np.eye(ni, cols, nx + j * ni) for j in range(3))
    w = [np.outer(b_w, e) for e in np.eye(4, cols, nx + 3 * ni)]
    k1 = a @ x + b @ v0 + w[0]
    x2 = x + (0.5 * h) * k1
    k2 = a @ x2 + b @ vh + w[1]
    x3 = x + (0.5 * h) * k2
    k3 = a @ x3 + b @ vh + w[2]
    x4 = x + h * k3
    k4 = a @ x4 + b @ v1 + w[3]
    step = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    cmds = np.stack(
        [c_u @ s + d_u @ v for s, v in zip((x, x2, x3, x4), (v0, vh, vh, v1))]
    )
    return step, cmds


# The modes of a step (inside, +sat, -sat; a _MIXED step is in none).  A
# mode is also the sign of its clamped command, and indexes the per-mode
# tables of _integrate (-1 the last entry).
_INSIDE, _UPPER, _LOWER, _MIXED = 0, 1, -1, None


def _clamped_step(zk: np.ndarray, u: list, n: np.ndarray, low: tuple, sat: float):
    """Clamp, in place, a closed-loop step whose stage commands leave +-sat.

    zk is the closed-loop step: the next state, then the four stage
    commands, also given as the list u.  The closed map is the open map
    with w = u, so w_i = clamp(u_i + sum_j<i l_ij (w_j - u_j)), low being
    (l_10, l_20, l_21, l_30, l_31, l_32), and the state moves by n (w - u).
    Returns _UPPER or _LOWER when every w_i is +sat or -sat, else _MIXED.
    """
    u0, u1, u2, u3 = u
    l10, l20, l21, l30, l31, l32 = low
    # clamp(v) as max(v, -sat), then min(., sat), NaN passing through
    w0 = sat if u0 > sat else -sat if u0 < -sat else u0
    d0 = w0 - u0
    v = u1 + l10 * d0
    w1 = sat if v > sat else -sat if v < -sat else v
    d1 = w1 - u1
    v = u2 + (l20 * d0 + l21 * d1)
    w2 = sat if v > sat else -sat if v < -sat else v
    d2 = w2 - u2
    v = u3 + (l30 * d0 + l31 * d1 + l32 * d2)
    w3 = sat if v > sat else -sat if v < -sat else v
    zk[:len(n)] += n @ (d0, d1, d2, w3 - u3)
    if w0 == w1 == w2 == w3 == sat:
        return _UPPER
    return _LOWER if w0 == w1 == w2 == w3 == -sat else _MIXED


# Steps per block of the closed-form solve.  Longer blocks take fewer
# interpreter iterations but more forced-response flops per step.
_BLOCK = 64
_SUB = math.isqrt(_BLOCK)  # steps per sub-block of _forced, _BLOCK = _SUB^2
# Blocks whose forced responses come out of one matrix product; the input
# terms are formed one group at a time, never for the whole run at once.
_GROUP = 32
# Single steps in a saturated mode before the block solve resumes in it,
# and the inside mode's longest wait: a chattering clamp is not met by a
# block attempt at every step.
_RESUME = 8

def _block_maps(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maps of _BLOCK steps of the recurrence z_(k+1) = q x_k + f_k.

    q is [Phi; C_q], z_(k+1) = [x_(k+1); u_k] and f_k = [f_x; f_u] the
    input terms of step k.  Over a block starting at x_k, row j of the
    solution is M_j x_k + f_(k+j) + sum_i<j M_(j-i-1) f_x,(k+i), with
    M_j = q Phi^j = [Phi^(j+1); C_q Phi^j].  Returns M stacked over j and
    the block-Toeplitz map of a sub-block's stacked f_x onto its stacked
    rows: _forced solves a block as _SUB sub-blocks of _SUB steps.
    """
    nz, nx = q.shape
    # Phi^j as Phi Phi^(j-1), the order of the step-by-step recursion: on
    # the 11-state loop this keeps the states 1.7x closer to it than
    # binary powering does
    powers = [np.eye(nx)]
    for _ in range(_BLOCK - 1):
        powers.append(q[:nx] @ powers[-1])
    m = q @ np.array(powers)
    toe = np.zeros((_SUB, nz, _SUB, nx))
    for d in range(1, _SUB):
        i = np.arange(_SUB - d)
        toe[i + d, :, i, :] = m[d - 1]
    return m.reshape(-1, nx), toe.reshape(_SUB * nz, _SUB * nx)


def _forced(f: np.ndarray, m: np.ndarray, toe: np.ndarray) -> np.ndarray:
    """Forced responses, from a zero state, of the consecutive blocks whose
    input terms are the rows of f; one row of stacked block rows per block,
    a partial last block padded with zero input terms.

    m and toe are the block maps of _block_maps.  Each sub-block of _SUB
    steps is first solved from a zero state through toe; its true start
    state c then follows from the previous sub-block's, c <- x_end +
    Phi^_SUB c, for all blocks at once, and adds M_j c to its row j.
    """
    nb = -(-len(f) // _BLOCK)
    nz, nx = f.shape[1], m.shape[1]
    pad = np.zeros((nb * _BLOCK, nz))
    pad[:len(f)] = f
    rows = pad.reshape(-1, _SUB * nz)  # one sub-block per row
    rows += pad[:, :nx].reshape(-1, _SUB * nx) @ toe.T
    ends = rows[:, -nz:-nz + nx].reshape(nb, _SUB, nx)  # x at each end
    phi_t = m[(_SUB - 1) * nz:(_SUB - 1) * nz + nx].T  # (Phi^_SUB)^T
    starts = np.zeros((nb, _SUB, nx))
    for s in range(1, _SUB):
        starts[:, s] = ends[:, s - 1] + starts[:, s - 1] @ phi_t
    rows += starts.reshape(-1, nx) @ m[:_SUB * nz].T
    return rows.reshape(nb, -1)


def _attempt(forced: np.ndarray, m: np.ndarray, x: np.ndarray, lo: np.ndarray,
             hi: np.ndarray, steps: int) -> np.ndarray:
    """The first of steps rows of consecutive blocks, up to the first row
    that leaves [lo, hi]: past the mode's limit, or with a non-finite state.

    Row i of forced holds block i's forced response, stacked, from its
    first row on: only a lone block may start past its row 0.  Its start
    state s_i, relative to that response, is x for block 0, and Phi^_BLOCK
    s_(i-1) plus block i - 1's last forced state after.  The rows are
    forced + S M^T, S stacking the s_i.
    """
    nz, nx = len(lo), len(x)
    starts = [x]
    for f in forced[:-1]:
        starts.append(m[-nz:nx - nz] @ starts[-1] + f[-nz:nx - nz])
    s = np.array(starts) if len(starts) > 1 else x  # a lone block: one gemv
    rows = (forced + s @ m[:forced.shape[1]].T).reshape(-1, nz)[:steps]
    ok = (rows >= lo) & (rows <= hi)
    return rows if ok.all() else rows[:ok.all(1).argmin()]


def _single_step(zk: np.ndarray, x: np.ndarray, q: np.ndarray, n: np.ndarray,
                 low: tuple, sat: float):
    """One closed-map step from x onto zk, its input terms, clamped by
    _clamped_step where it leaves the limit.  Returns the step's mode, or
    False where it leaves the limit from a non-finite x."""
    zk += q @ x
    u = zk[len(x):].tolist()
    if max(u) <= sat and min(u) >= -sat:
        return _INSIDE
    if not np.isfinite(x).all():
        return False
    return _clamped_step(zk, u, n, low, sat)


def _integrate(loop: _LoopSystem, a: np.ndarray, x0: np.ndarray, inputs: dict,
               nsteps: int, h: float, sat: float) -> tuple[np.ndarray, dict[str, int]]:
    """The recorded rows out_x x + out_v v at every sample, of the states
    solved as the module docstring describes, and the number of steps that
    took each path, keyed as the first five fields of SimStats.

    a is the unclamped loop matrix A + b_w c_u.  inputs maps the index of
    each nonzero input to its values at the start, midpoint and end of each
    of the nsteps steps, then at every sample; an input it omits is zero,
    and its columns of the step maps are never multiplied.  Only the
    current group of states is held: as a group ends, its samples are
    recorded from its states and its step-start inputs, and the last
    sample from the last state and each input's last sample.  A recorded
    row that no state and no nonzero input reaches stays zero.  An attempt
    from row j of a block resumes by superposition, its forced response F
    plus M (x - F_(j-1)).  The saturated modes, the open map of (A, B, b_w)
    with w = +-sat, are built when first met.  Integration stops at a
    non-finite state, every recorded row NaN after.
    """
    nx, ni = loop.B.shape
    m = nx + 3 * ni
    nz = nx + 4
    b = loop.B + np.outer(loop.b_w, loop.d_u)
    closed = np.vstack(_step_maps(a, b, np.zeros(nx), loop.c_u, loop.d_u, h))
    opened = np.vstack(_step_maps(loop.A, loop.B, loop.b_w, loop.c_u, loop.d_u, h))
    n, low = opened[:nx, m:], tuple(opened[nx:, m:][np.tril_indices(4, -1)].tolist())
    # the input columns of the nonzero inputs, start, midpoint, then end
    cols = [nx + j * ni + i for j in range(3) for i in inputs]
    q, gam, gam_open = closed[:, :nx], closed[:, cols], opened[:, cols]
    maps = {_INSIDE: _block_maps(q)}  # per mode: M and the Toeplitz map
    # a row is accepted while its state is finite and its commands lie in
    # [lo, hi] of the mode
    big = np.finfo(float).max
    lo, hi = np.full((3, nz), -big), np.full((3, nz), big)
    lo[:, nx:] = [[-sat], [sat], [-np.inf]]
    hi[:, nx:] = [[sat], [np.inf], [-sat]]
    block_path = ("closed_block", "upper_block", "lower_block")
    counts = dict.fromkeys(block_path + ("closed_single", "clamped_single"), 0)
    live = np.flatnonzero(loop.out_x.any(1) | loop.out_v[:, list(inputs)].any(1))
    out_x, out_v = loop.out_x[live], loop.out_v[live][:, list(inputs)]
    out = np.zeros((len(loop.out_x), nsteps + 1))

    def record(k, rows):  # samples k, k + 1, ... from the group's first rows
        rec = out_x @ xs[:rows].T
        if inputs:
            rec += out_v @ block[:rows, :len(inputs)].T
        out[live, k:k + rows] = rec

    # Row j + 1 of the group holds x_(g+j+1) followed by the stage commands
    # of step g + j; it starts out as the closed map's input terms of that
    # step.  Row 0 holds the group's start state.
    span = _BLOCK * _GROUP
    z = np.empty((span + 1, nz))
    z[0, :nx] = x0
    xs = z[:, :nx]
    # the inputs of each step of the group, then, in the row after its last
    # step, each input at the sample that ends the group
    block = np.empty((span + 1, len(cols)))
    # run: steps in mode since a block stopped; wait: the run that resumes
    # the inside mode; clean: no single step since the group began
    mode, run, wait, clean = _INSIDE, _RESUME, 1, True
    for g in range(0, nsteps, span):
        e = min(g + span, nsteps)
        v = block[:e - g]
        for c, sampled in enumerate(inputs.values()):
            for j in range(3):
                v[:, j * len(inputs) + c] = sampled[j][g:e]
            block[e - g, c] = sampled[3][e]
        z[1:e - g + 1] = v @ gam.T
        forced = {_INSIDE: _forced(z[1:e - g + 1], *maps[_INSIDE])}
        whole, clean, k = clean, True, g
        while k < e:
            if run >= (wait if mode == _INSIDE else _RESUME):
                if mode not in forced:  # +-sat, first met in this group
                    if _UPPER not in maps:
                        maps[_UPPER] = maps[_LOWER] = _block_maps(opened[:, :nx])
                        # each step's input terms with w = 1 at every stage
                        terms = np.tile(opened[:, m:].sum(1), (_BLOCK, 1))
                        unit = _forced(terms, *maps[_UPPER])[0]
                    free = _forced(v @ gam_open.T, *maps[_UPPER])
                    for side in (_UPPER, _LOWER):
                        forced[side] = free + (side * sat) * unit
                # the whole group, or the rest of block i from its row j
                fb, (i, j) = forced[mode], divmod(k - g, _BLOCK)
                nb = len(fb) if whole and k == g and mode == _INSIDE else 1
                r, end = j * nz, min(k - j + nb * _BLOCK, e)
                x = xs[k - g] - fb[i, r - nz:r - nz + nx] if j else xs[k - g]
                rows = _attempt(fb[i:i + nb, r:], maps[mode][0], x, lo[mode],
                                hi[mode], end - k)
                z[k - g + 1:k - g + len(rows) + 1] = rows
                counts[block_path[mode]] += len(rows)
                k += len(rows)
                if len(rows) >= _SUB:
                    wait = 1
                elif mode == _INSIDE:
                    wait = min(2 * wait, _RESUME)
                if k == end:
                    continue
                run = 0
            step = _single_step(z[k - g + 1], xs[k - g], q, n, low, sat)
            if step is False:
                record(g, k - g + 1)
                out[:, k + 1:] = np.nan
                return out, counts
            counts["closed_single" if step == _INSIDE else "clamped_single"] += 1
            if step is _MIXED:
                run = 0
            elif step == mode:
                run += 1
            else:
                mode, run = step, 1
            clean = False
            k += 1
        record(g, e - g + (e == nsteps))  # the last group also records sample e
        z[0, :nx] = z[e - g, :nx]
    return out, counts


def _step_inputs(spec: SignalSpec, dt_s: float, nsteps: int):
    """Input values (start, midpoint, end of each step; every sample), as
    four views of one sampled array.

    Smooth signals are sampled on the half-step grid the integrator
    needs; seeded noise is held constant across each step (zero-order
    hold).
    """
    if spec.kind == "white_noise":
        s = _generate_n(spec, dt_s, nsteps + 1)
        return s[:-1], s[:-1], s[:-1], s
    s = _generate_n(spec, 0.5 * dt_s, 2 * nsteps + 1)
    return s[0:-1:2], s[1::2], s[2::2], s[0::2]


def simulate_torque_loop(sc: TorqueLoopScenario) -> SimTrace:
    """Integrate the closed loop of one scenario.

    The loop is u = C1 r - C2 (tau_L + n) for a 2-DOF controller, or
    u = C (r - tau_L - n) for a PI controller run as C1 = C2 = C; the
    motor command omega_d = clamp(u + d) drives P while phi_L drives G.
    With compensator_on, C_L phi_L is subtracted from the reference
    before C1.  In impedance mode (i_d set) the R input is phi_ref, the
    loop forms tau_d = i_d (phi_ref - phi_L) from the same samples of
    phi_L that drive the plant, and the recorded r channel is tau_d;
    otherwise r is the scenario reference.  With a load, phi_L is the
    load state, starting at rest at load.phi0.  e = r - tau_L.

    Raises
    ------
    NumericsError
        On divergence, with the first non-finite sample index.
    ValueError
        If any block is improper (not realizable), if dt_s is too large
        for RK4 on a decaying mode of the unclamped loop, or if an input
        is not finite at every sample (a sine at 1e308 Hz).
    """
    dt = sc.dt_s
    nsteps = int(round(sc.duration_s / dt))
    loop = _assemble(sc)
    a = loop.A + np.outer(loop.b_w, loop.c_u)  # the loop with the clamp inactive
    _check_step(a, dt)

    names = ("reference" if sc.i_d is None else "phi_ref", "disturbance", "noise",
             "handle_motion")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        ins = {i: _step_inputs(getattr(sc, name), dt, nsteps)
               for i, name in enumerate(names) if getattr(sc, name).kind != "zero"}
    for i in ins:
        if not (np.isfinite(ins[i][1]).all() and np.isfinite(ins[i][3]).all()):
            raise ValueError(f"{names[i]} is not finite at every sample of the run")

    x0 = (sc.load.phi0 if sc.load is not None else 0.0) * loop.out_x[2]
    sat = sc.saturation_rad_s
    with np.errstate(over="ignore", invalid="ignore"):  # divergence, reported below
        out, counts = _integrate(loop, a, x0, ins, nsteps, dt, sat)
    tau, u_presat, phi, r = out

    bad = ~(np.isfinite(tau) & np.isfinite(u_presat) & np.isfinite(phi))
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericsError(
            f"simulation diverged: non-finite state at sample {k} "
            f"(t = {k * dt:.6g} s)"
        )
    # a smooth input's samples are a stride-2 view: copy them off the grid
    d, n = (np.ascontiguousarray(ins[i][3]) if i in ins else np.zeros(nsteps + 1)
            for i in (_D, _N))
    del ins  # frees the sampled inputs that are no channel of the trace
    omega_d = np.clip(u_presat, -sat, sat)
    clamped = int(np.count_nonzero(omega_d != u_presat))
    stats = SimStats(**counts, clamped_samples=clamped, saturation_rad_s=sat,
                     peak_u_presat=float(max(u_presat.max(), -u_presat.min())))
    rec = {
        "t": np.arange(nsteps + 1.0) * dt,
        "r": r,
        "u_presat": u_presat,
        "omega_d": omega_d,
        "d": d,
        "n": n,
        "tau_L": tau,
        "y_meas": tau + n,
        "phi_L": phi,
        "e": r - tau,
    }
    return SimTrace(dt_s=dt, channels=rec, stats=stats)


def rms_error(trace: SimTrace, from_t: float = 0.0) -> float:
    """RMS of the tracking error r - tau_L over [from_t, end]."""
    t = trace.t
    if len(t) == 0 or from_t > t[-1]:
        raise ValueError("empty evaluation window")
    mask = t >= from_t
    e = trace.channel("e")[mask]
    return float(np.sqrt(np.mean(e * e)))


def peak_envelope(
    trace: SimTrace, channel: str
) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of strict local maxima of one channel."""
    v = trace.channel(channel)
    t = trace.t
    if len(v) < 3:
        return np.zeros(0), np.zeros(0)
    core = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.nonzero(core)[0] + 1
    return t[idx], v[idx]


def fit_sine(
    t: np.ndarray, x: np.ndarray, frequency_hz: float, from_t: float = 0.0
) -> tuple[float, float, float]:
    """Least-squares fit x ~ A sin(2 pi f t + phase) + offset over [from_t, end].

    Returns (A, phase_deg, offset).  The DC basis column keeps slowly
    varying residuals (settling exponentials) out of the amplitude
    estimate.
    """
    mask = t >= from_t
    if not np.any(mask):
        raise ValueError("empty fit window")
    tw = t[mask]
    xw = x[mask]
    w = 2.0 * np.pi * frequency_hz
    basis = np.column_stack([np.sin(w * tw), np.cos(w * tw), np.ones_like(tw)])
    coef, *_ = np.linalg.lstsq(basis, xw, rcond=None)
    a, b, c = coef
    return float(math.hypot(a, b)), float(math.degrees(math.atan2(b, a))), float(c)


def trace_to_csv(trace: SimTrace, path: str) -> None:
    """Write the trace as CSV, one row per sample, columns in TRACE_CHANNELS
    order, in the format of config.write_csv (9 significant digits, LF)."""
    from .config import write_csv  # config imports this module

    write_csv(path, list(TRACE_CHANNELS), [trace.channel(n) for n in TRACE_CHANNELS])
