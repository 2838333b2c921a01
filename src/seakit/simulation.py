"""Deterministic fixed-step simulation of the closed torque and impedance loops.

The interconnection integrated here is the one the controller is designed
for: u = C1 r - C2 (tau_L + n), the motor velocity command is saturated,
omega_d = clamp(u + d, +-sat), the plant responds with tau_L through P
(from omega_d) plus G (from load motion phi_L), and in impedance mode the
torque reference is tau_d = I_d (phi_ref - phi_L), optionally corrected by
the load-motion compensator C_L.

The linear blocks are realized in observable canonical form and
assembled once into a single state-space system over the inputs
[r, d, n, phi_L].  The state vector is, in order: the plant pair P and
G as one 3-state block over their shared actuator denominator, driven
by the clamped command and phi_L; the controller pair C1, C2 as one
block over their shared denominator p, u = (n1 r - q y) / p; C_L when
it is on; the load angle and rate when a load model is simulated: 6
states for the 2-DOF loop, 4 for PI, 12 with C_L, 14 with the load too.
The virtual spring is one more row of that system: the R input is the
torque reference itself in torque mode and phi_ref in impedance mode,
where the loop forms tau_d = I_d (phi_ref - phi_L) from phi_L, the
exogenous handle motion or the load state.  tau_L, u, phi_L and the
recorded reference all come out of one product over [x, v].
The saturation is the only nonlinearity, applied to the scalar
velocity command at every stage of a fixed-step classical Runge-Kutta
integrator; a step too large for RK4 is rejected up front.  The RK4
step is one linear map: closed through the unclamped command it is
x+ = Phi x + G0 w0 + Gh wh + G1 w1, Phi the degree-4 Taylor polynomial
of exp(hA), for every step whose four stage commands stay inside the
limit.  Any other step is the same map opened at the clamp, its four
stage commands clamped in sequence.  The closed map is not stepped one
step at a time: it is solved in closed form over blocks of steps (a
chunked linear recurrence), and only the steps around a clamp episode
are taken one by one.
Every input, phi_ref and handle motion included, is sampled once, by
_step_inputs: deterministic signals on the half-step grid the
integrator needs, seeded noise held constant across each step
(zero-order hold).

Everything is deterministic: same scenario, same trace, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .plant import SeaModel
from .synthesis import build_compensator, _controller_pair
from .transfer import RationalTF, to_state_space

__all__ = [
    "SignalSpec",
    "generate",
    "PiController",
    "TorqueLoopScenario",
    "ImpedanceScenario",
    "LoadModel",
    "SimTrace",
    "TRACE_CHANNELS",
    "simulate_torque_loop",
    "simulate_impedance",
    "simulate_free_response",
    "rms_error",
    "steady_state_error",
    "peak_envelope",
    "fit_sine",
    "trace_to_csv",
]

_KINDS = (
    "constant",
    "sine",
    "chirp",
    "step",
    "white_noise",
    "piecewise_linear",
    "zero",
)

_NUMERIC_FIELDS = ("amplitude", "frequency_hz", "f0_hz", "f1_hz", "sweep_s",
                   "offset", "start_s", "variance")


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of one scalar excitation.

    kind selects the generator; the remaining fields are read only where
    they make sense for that kind (amplitude and offset nearly always,
    frequency_hz for sine, the f0/f1/sweep triple for chirp, start_s for
    step, variance and seed for white_noise, breakpoints for
    piecewise_linear).  Instances are immutable and hashable so scenarios
    can be compared and reused.
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
        if self.kind not in _KINDS:
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
            if self.seed is None:
                raise ValueError("white_noise requires a seed")
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
        return cls(kind="white_noise", variance=float(variance), seed=int(seed))

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


def _controller_blocks(controller) -> tuple[RationalTF, RationalTF]:
    if isinstance(controller, PiController):
        return controller.as_pair()
    return _controller_pair(controller)


@dataclass(frozen=True)
class LoadModel:
    """Inertia-damper load driven by the delivered torque.

    J_L phidd + b_L phid = tau_L.  Desk-scale defaults; the free-response
    acceptance on this model is qualitative (decay), never numeric.
    """

    j_l: float = 0.01
    b_l: float = 0.005

    def __post_init__(self):
        if not (math.isfinite(self.j_l) and self.j_l > 0.0):
            raise ValueError("j_l must be finite and positive")
        if not (math.isfinite(self.b_l) and self.b_l >= 0.0):
            raise ValueError("b_l must be finite and nonnegative")


# The model-free checks of a scenario.  config.ScenarioDef runs them too,
# so a config is rejected when it loads; each message starts with the
# field it names.
def _check_timing(dt_s: float, duration_s: float, saturation_rad_s: float) -> None:
    for name, value in (("dt_s", dt_s), ("duration_s", duration_s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not dt_s > 0.0:
        raise ValueError("dt_s must be positive")
    if duration_s < 10.0 * dt_s:
        raise ValueError("duration_s must cover at least 10 steps")
    if not saturation_rad_s > 0.0:
        raise ValueError("saturation_rad_s must be positive")


def _check_i_d(i_d: float) -> None:
    if not (math.isfinite(i_d) and i_d > 0.0):
        raise ValueError("i_d must be finite and positive")


@dataclass(frozen=True)
class TorqueLoopScenario:
    """Everything one torque-loop run needs.

    reference is the torque command r in Nm; disturbance d enters the
    motor velocity command in rad/s; noise n corrupts the torque
    measurement in Nm; handle_motion is the exogenous load angle phi_L in
    rad.  The velocity command is clamped to +-saturation_rad_s.
    """

    model: SeaModel
    controller: object  # TwoDofController or PiController
    reference: SignalSpec = field(default_factory=SignalSpec.zero)
    disturbance: SignalSpec = field(default_factory=SignalSpec.zero)
    noise: SignalSpec = field(default_factory=SignalSpec.zero)
    handle_motion: SignalSpec = field(default_factory=SignalSpec.zero)
    compensator_on: bool = False
    saturation_rad_s: float = 50.0
    dt_s: float = 1e-4
    duration_s: float = 10.0

    def __post_init__(self):
        _check_timing(self.dt_s, self.duration_s, self.saturation_rad_s)
        c1, c2 = _controller_blocks(self.controller)
        if c1.den != c2.den:
            raise ValueError("controller: C1 and C2 must share one denominator")


@dataclass(frozen=True)
class ImpedanceScenario:
    """Virtual spring closed around the torque loop.

    The torque reference becomes tau_d = i_d (phi_ref - phi_L), with the
    virtual stiffness i_d > 0 in Nm/rad; the inner torque scenario
    supplies everything else and must leave its own reference at zero.
    """

    torque_scenario: TorqueLoopScenario
    i_d: float
    phi_ref: SignalSpec = field(default_factory=SignalSpec.zero)

    def __post_init__(self):
        _check_i_d(self.i_d)
        if self.torque_scenario.reference.kind != "zero":
            raise ValueError(
                "impedance mode derives the torque reference from "
                "i_d (phi_ref - phi_L); set the inner reference to zero"
            )


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
class SimTrace:
    """Uniformly sampled simulation record.

    channels holds equal-length arrays for: t, the torque reference r
    (tau_d in impedance mode), the pre-saturation velocity command
    u_presat = u + d, the saturated command omega_d, the injected d and
    n, the delivered torque tau_L, the measured torque y_meas = tau_L +
    n, the load angle phi_L, and the tracking error e = r - tau_L.
    """

    dt_s: float
    channels: dict[str, np.ndarray]

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

    and out_x x + out_v v gives the recorded [tau_L, u, phi_L, r], where
    u = u_presat - d is the controller output and r the torque reference.
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


def _assemble(
    sc: TorqueLoopScenario, i_d: float | None, load: LoadModel | None
) -> _LoopSystem:
    """Build the loop u = C1 re - C2 (tau_L + n) as one state-space system.

    The plant pair is one observable canonical block over den(P) =
    s den(G), driven by [w, phi_L]: tau_L = P w + (G s / s) phi_L.  The
    controller pair is one block over its shared denominator p, driven
    by [re, y]: u = (n1 re - q y) / p.  The reference r is the R input
    in torque mode (i_d None) and the virtual spring i_d (R - phi_L) in
    impedance mode; re = r - C_L phi_L with the compensator on.  The
    state layout is plant pair, controller, [C_L], [phi_L, phi_L'].
    Every scalar signal of the loop is built as a row over [x, v].
    """
    model = sc.model
    c1, c2 = _controller_blocks(sc.controller)
    pg = to_state_space(model.P, model.G * RationalTF([1.0, 0.0], [1.0, 0.0]))
    ctl = to_state_space(c1, -c2)
    comp = None
    if sc.compensator_on:
        comp = to_state_space(build_compensator(model, (c1, c2)))
    sizes = [
        pg.order,
        ctl.order,
        comp.order if comp is not None else 0,
        2 if load is not None else 0,
    ]
    ends = np.cumsum(sizes)
    s_p, s_k, s_c, s_l = (slice(e - n, e) for e, n in zip(ends, sizes))
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
    re = r if comp is None else r - (row(s_c, comp.C) + comp.D[0] * phi)
    u = row(s_k, ctl.C) + ctl.D[0] * re + ctl.D[1] * y
    u_presat = u + row(nx + _D)

    F = np.zeros((nx, nz))  # dx/dt = F [x, v] + b_w w
    b_w = np.zeros(nx)
    b_w[s_p] = pg.B[:, 0]  # the plant is driven by the clamped command w
    F[s_p, s_p] = pg.A
    F[s_p] += np.outer(pg.B[:, 1], phi)
    for blk, s, drives in ((ctl, s_k, (re, y)), (comp, s_c, (phi,))):
        if blk is not None:
            F[s, s] = blk.A
            F[s] += blk.B @ np.stack(drives)
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
        out_x=np.stack([tau[:nx], u[:nx], phi[:nx], r[:nx]]),
        out_v=np.stack([tau[nx:], u[nx:], phi[nx:], r[nx:]]),
    )


def _check_step(a: np.ndarray, h: float) -> None:
    """Reject h if RK4 grows a decaying mode of the unclamped loop matrix a.

    RK4 scales a mode lambda by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    z = h lambda, per step.
    """
    lam = np.linalg.eigvals(a)
    z = h * lam[lam.real < 0.0]
    amp = np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))
    if amp.size and amp.max() > 1.0:
        raise ValueError(
            f"dt_s = {h:.6g} s is too large for RK4: a decaying loop mode "
            f"grows by {amp.max():.3g} per step"
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


def _clamped_step(xu: np.ndarray, n: np.ndarray, low: list, sat: float):
    """Finish a step whose stage commands leave +-sat, clamping each in turn.

    xu is the open-loop step map with every w at zero: the state X, then
    the commands U.  w_i = clamp(U_i + sum_j<i low[i][j] w_j); x+ = X + n w.
    """
    w = []
    for ui, row in zip(xu[-4:].tolist(), low):
        ui += sum(c * wj for c, wj in zip(row, w))
        w.append(min(max(ui, -sat), sat))
    return xu[:-4] + n @ w


# Steps per block of the closed-form solve.  Longer blocks take fewer
# interpreter iterations but more flops per step in the forced response,
# which grows with the block length.
_BLOCK = 64
# Blocks whose forced responses come out of one matrix product; the input
# terms are formed one group at a time, never for the whole run at once.
_GROUP = 32
# In-range single steps after a clamped one before the block solve resumes,
# so that a chattering clamp is not met by a block attempt at every step.
_RESUME = 8


def _block_maps(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maps of _BLOCK steps of the closed recurrence z_(k+1) = q x_k + f_k.

    q is [Phi; C_q], z_(k+1) = [x_(k+1); u_k] and f_k = [f_x; f_u] the
    input terms of step k.  Over a block starting at x_k, row j of the
    solution is M_j x_k + f_(k+j) + sum_i<j M_(j-i-1) f_x,(k+i), with
    M_j = q Phi^j = [Phi^(j+1); C_q Phi^j].  Returns M stacked over j and
    the block-Toeplitz map of the stacked f_x onto the stacked rows.
    """
    nz, nx = q.shape
    # Phi^j as Phi Phi^(j-1), the order of the step-by-step recursion: on
    # the 14-state loop this keeps the states 3x closer to it than
    # squaring up does
    powers = [np.eye(nx)]
    for _ in range(_BLOCK - 1):
        powers.append(q[:nx] @ powers[-1])
    m = q @ np.array(powers)
    toe = np.zeros((_BLOCK, nz, _BLOCK, nx))
    for d in range(1, _BLOCK):
        i = np.arange(_BLOCK - d)
        toe[i + d, :, i, :] = m[d - 1]
    return m.reshape(-1, nx), toe.reshape(_BLOCK * nz, _BLOCK * nx)


def _integrate(loop: _LoopSystem, a: np.ndarray, x0: np.ndarray, w0, wh, w1,
               h: float, sat: float) -> np.ndarray:
    """States at every sample, from the RK4 step maps of _step_maps.

    a is the unclamped loop matrix A + b_w c_u; w0, wh, w1 hold the inputs
    at the start, midpoint and end of each step, one row per step.  A step
    whose four stage commands lie within +-sat takes the closed-loop map;
    any other, the open-loop map of (A, B, b_w) through _clamped_step.

    Unclamped stretches are solved in closed form, a block of _BLOCK
    steps at a time (_block_maps): a block keeps its rows up to the first
    one with a command outside +-sat or a non-finite state.  From there
    the closed map steps one at a time, and _clamped_step takes each step
    that leaves the limit, until _RESUME steps in a row stay inside it;
    the block then resumes from the current state by superposition, the
    unclamped block solution plus M (x - x_block).  Integration stops
    once the state is non-finite, leaving NaN after it.
    """
    nsteps, (nx, ni) = len(w0), loop.B.shape
    m = nx + 3 * ni
    nz = nx + 4
    b = loop.B + np.outer(loop.b_w, loop.d_u)
    closed = np.vstack(_step_maps(a, b, np.zeros(nx), loop.c_u, loop.d_u, h))
    opened = np.vstack(_step_maps(loop.A, loop.B, loop.b_w, loop.c_u, loop.d_u, h))
    o, n, low = opened[:, :m], opened[:nx, m:], opened[nx:, m:].tolist()
    q, gam = closed[:, :nx], closed[:, nx:m]
    mb, toe = _block_maps(q)
    # a state row is accepted while finite, a command while inside +-sat
    limit = np.r_[np.full(nx, np.finfo(float).max), np.full(4, sat)]
    # Row k + 1 holds x_(k+1) followed by the stage commands of step k;
    # it starts out as the input terms of step k.
    z = np.empty((nsteps + 1, nz))
    z[0, :nx] = x0
    xs = z[:, :nx]
    run = _RESUME  # steps inside the limit since a block last stopped
    span = _BLOCK * _GROUP
    for g in range(0, nsteps, span):
        e = min(g + span, nsteps)
        z[g + 1:e + 1] = np.hstack([w0[g:e], wh[g:e], w1[g:e]]) @ gam.T
        nb = -(-(e - g) // _BLOCK)
        f = np.zeros((nb * _BLOCK, nz))
        f[:e - g] = z[g + 1:e + 1]
        forced = f.reshape(nb, -1) + f[:, :nx].reshape(nb, -1) @ toe.T
        for k, fk in zip(range(g, e, _BLOCK), forced):
            steps = min(_BLOCK, nsteps - k)
            zb = (mb @ xs[k] + fk).reshape(_BLOCK, nz)
            j = 0
            while j < steps:
                if run >= _RESUME:
                    if j:
                        dx = xs[k + j] - zb[j - 1, :nx]
                        zb[j:] += (mb[:(_BLOCK - j) * nz] @ dx).reshape(-1, nz)
                    ok = (np.abs(zb[j:steps]) <= limit).all(1)
                    good = len(ok) if ok.all() else int(ok.argmin())
                    z[k + j + 1:k + j + good + 1] = zb[j:j + good]
                    j += good
                    if j == steps:
                        break
                    run = 0
                zk = z[k + j + 1]
                zk += q @ xs[k + j]
                u = zk[nx:].tolist()
                run += 1
                if not (max(u) <= sat and min(u) >= -sat):
                    run = 0
                    if not np.isfinite(xs[k + j]).all():
                        xs[k + j + 1:] = np.nan
                        return xs
                    xv = np.concatenate((xs[k + j], w0[k + j], wh[k + j], w1[k + j]))
                    zk[:nx] = _clamped_step(o @ xv, n, low, sat)
                j += 1
    return xs


def _step_inputs(spec: SignalSpec, dt_s: float, nsteps: int):
    """Input values (start, midpoint, end of each step; every sample).

    Smooth signals are sampled on the half-step grid the integrator
    needs; seeded noise is held constant across each step (zero-order
    hold).
    """
    if spec.kind == "white_noise":
        s = _generate_n(spec, dt_s, nsteps + 1)
        return s[:-1], s[:-1], s[:-1], s
    s = _generate_n(spec, 0.5 * dt_s, 2 * nsteps + 1)
    return s[0:-1:2], s[1::2], s[2::2], s[0::2]


def _simulate(
    sc: TorqueLoopScenario | ImpedanceScenario,
    load: LoadModel | None = None,
    phi0: float = 0.0,
) -> SimTrace:
    """Shared integrator behind the three simulate_* entry points.

    The R input is the scenario reference for a torque-loop scenario and
    phi_ref for an impedance scenario, whose loop closes the virtual
    spring itself.  With a load model, phi_L is the load state, starting
    at rest at phi0, and the handle_motion input drives nothing.
    """
    if isinstance(sc, ImpedanceScenario):
        ts, i_d, r_spec = sc.torque_scenario, sc.i_d, sc.phi_ref
    else:
        ts, i_d, r_spec = sc, None, sc.reference
    dt = ts.dt_s
    nsteps = int(round(ts.duration_s / dt))
    loop = _assemble(ts, i_d, load)
    a = loop.A + np.outer(loop.b_w, loop.c_u)  # the loop with the clamp inactive
    _check_step(a, dt)

    ins = [
        _step_inputs(spec, dt, nsteps)
        for spec in (r_spec, ts.disturbance, ts.noise, ts.handle_motion)
    ]
    w0, wh, w1, samples = (np.column_stack([s[j] for s in ins]) for j in range(4))

    x0 = phi0 * loop.out_x[2]
    sat = ts.saturation_rad_s
    xs = _integrate(loop, a, x0, w0, wh, w1, dt, sat)
    tau, u, phi, r = loop.out_x @ xs.T + loop.out_v @ samples.T

    bad = ~(np.isfinite(tau) & np.isfinite(u) & np.isfinite(phi))
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericsError(
            f"simulation diverged: non-finite state at sample {k} "
            f"(t = {k * dt:.6g} s)"
        )
    u_presat = u + samples[:, _D]
    n = samples[:, _N]
    rec = {
        "t": np.arange(nsteps + 1) * dt,
        "r": r,
        "u_presat": u_presat,
        "omega_d": np.clip(u_presat, -sat, sat),
        "d": samples[:, _D],
        "n": n,
        "tau_L": tau,
        "y_meas": tau + n,
        "phi_L": phi,
        "e": r - tau,
    }
    return SimTrace(dt_s=dt, channels=rec)


def simulate_torque_loop(sc: TorqueLoopScenario) -> SimTrace:
    """Integrate the closed torque loop for one scenario.

    The loop is u = C1 r - C2 (tau_L + n) for a 2-DOF controller, or
    u = C (r - tau_L - n) for a PI controller run as C1 = C2 = C; the
    motor command omega_d = clamp(u + d) drives P while handle motion
    drives G.  With compensator_on, C_L phi_L is subtracted from the
    reference before C1.  The recorded r channel is the external
    reference; e = r - tau_L.

    Raises
    ------
    NumericsError
        On divergence, with the first non-finite sample index.
    ValueError
        If any block is improper (not realizable), or dt_s is too large
        for RK4 on a decaying mode of the unclamped loop.
    """
    return _simulate(sc)


def simulate_impedance(sc: ImpedanceScenario) -> SimTrace:
    """Torque loop with the reference generated by a virtual spring.

    tau_d = i_d (phi_ref - phi_L), formed inside the loop from the same
    samples of phi_ref and of the inner scenario's handle_motion (phi_L,
    exogenous) that drive the plant.  The trace r channel records tau_d.
    Raises as simulate_torque_loop does.
    """
    return _simulate(sc)


def simulate_free_response(
    sc: ImpedanceScenario, load: LoadModel, phi0: float
) -> SimTrace:
    """Impedance loop with phi_L produced by a simulated load.

    The load obeys J_L phidd + b_L phid = tau_L from initial angle phi0
    at rest, and the virtual spring tau_d = i_d (phi_ref - phi_L) pulls
    it back toward phi_ref.

    Raises
    ------
    ValueError
        If phi0 is not finite, or the inner scenario supplies exogenous
        handle motion (phi_L is a state here); otherwise as
        simulate_torque_loop does.
    """
    if not math.isfinite(phi0):
        raise ValueError("phi0 must be finite")
    if sc.torque_scenario.handle_motion.kind != "zero":
        raise ValueError("free response simulates phi_L; handle_motion must be zero")
    return _simulate(sc, load, phi0)


def rms_error(trace: SimTrace, from_t: float = 0.0) -> float:
    """RMS of the tracking error r - tau_L over [from_t, end]."""
    t = trace.t
    if len(t) == 0 or from_t > t[-1]:
        raise ValueError("empty evaluation window")
    mask = t >= from_t
    e = trace.channel("e")[mask]
    return float(np.sqrt(np.mean(e * e)))


def steady_state_error(trace: SimTrace) -> float:
    """Mean tracking error over the last 10% of the trace."""
    n = trace.n_samples
    tail = max(1, n // 10)
    return float(np.mean(trace.channel("e")[n - tail:]))


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
