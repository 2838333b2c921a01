"""Output checks for the benchmark workloads.

Each check recomputes what the program should have produced from the
scenario inputs with numpy and scipy alone, or tests a property the
method must have.  None compares against stored output.  A check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np
from scipy import linalg, optimize, signal

# -3 dB is half power: 20 log10(sqrt(2)).
HALF_POWER_DB = 10.0 * math.log10(2.0)
# tau_L against the closed-loop maps (measured: about 1.3e-7)
LINEAR_TOL = 1e-5
# a clamped run against the stage-clamped RK4 (measured: about 4e-14)
PREFIX_TOL = 1e-8
# polynomial identities of a design, relative to the largest coefficient
# of the right-hand side
IDENTITY_TOL = 1e-8
# Bode figures of a design: dB, deg, and the "low frequency" of |G1|
DB_TOL = 1e-3
DEG_TOL = 1e-2
F_REF_HZ = 1e-3
# the sweep range of the Bode metrics, and the grid that brackets a
# crossing before it is solved for exactly
SWEEP_HZ = (1e-3, 1e4)
BRACKET_POINTS = 20001
# CSVs are read this many bytes at a time
CHUNK = 1 << 20


def _coeffs(tf):
    return np.asarray(tf.num.coeffs, float), np.asarray(tf.den.coeffs, float)


def _relative(a, b) -> float:
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / (scale or 1.0)


def lti_filter(num, den, u, dt: float, hold: str) -> np.ndarray:
    """Response of num/den from rest to samples u, as scipy.signal.lsim.

    hold is "foh" (input linear between samples, lsim's default) or
    "zoh" (input held, lsim with interp=False).  The step matrices are
    lsim's, from one matrix exponential; the recursion runs mode by mode
    through lfilter instead of lsim's per-sample Python loop, which makes
    it cheap enough to run on every benchmark output.
    """
    a, b, c, d = signal.tf2ss(num, den)
    n = a.shape[0]
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = a * dt
    m[:n, n] = b[:, 0] * dt
    m[n, n + 1] = 1.0
    e = linalg.expm(m)
    ad, b_zoh, b_end = e[:n, :n], e[:n, n], e[:n, n + 1]
    # x_(k+1) = ad x_k + b_zoh u_k            (zoh)
    # x_(k+1) = ad x_k + (b_zoh - b_end) u_k + b_end u_(k+1)   (foh)
    b_now, b_next = (b_zoh, np.zeros(n)) if hold == "zoh" else (b_zoh - b_end, b_end)
    lam, vec = np.linalg.eig(ad)
    beta_now = np.linalg.solve(vec, b_now)
    beta_next = np.linalg.solve(vec, b_next)
    gamma = c[0] @ vec
    u = np.asarray(u, float)
    u_next = np.append(u[1:], 0.0)
    y = d[0, 0] * u.astype(complex)
    for lam_i, b0, b1, g in zip(lam, beta_now, beta_next, gamma):
        # mode xi_(k+1) = lam xi_k + b0 u_k + b1 u_(k+1) from xi_0 = 0
        y += g * signal.lfilter([0.0, 1.0], [1.0, -lam_i], b0 * u + b1 * u_next)
    return y.real


def loop_maps(p_tf, c1_tf, c2_tf):
    """Closed-loop maps r -> tau_L and n -> tau_L as coefficient pairs.

    With P = b/a, C1 = n1/d, C2 = n2/d over one denominator (as the H2
    design and a PI controller both have): tau_L = b (n1 r - n2 n) /
    (a d + b n2).
    """
    b, a = _coeffs(p_tf)
    n1, d1 = _coeffs(c1_tf)
    n2, d2 = _coeffs(c2_tf)
    if not np.array_equal(d1, d2):
        raise ValueError("C1 and C2 must share their denominator")
    char = np.polyadd(np.polymul(a, d2), np.polymul(b, n2))
    return (np.polymul(b, n1), char), (-np.polymul(b, n2), char)


def check_trace_sane(trace, sat: float) -> list[str]:
    """Every channel finite, and omega_d = clip(u_presat, +-sat) exactly."""
    problems = []
    for name, values in trace.channels.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"channel {name} is not finite")
    u = trace.channel("u_presat")
    w = trace.channel("omega_d")
    bad = np.count_nonzero(w != np.clip(u, -sat, sat))
    if bad:
        problems.append(f"omega_d != clip(u_presat, +-{sat:g}) on {bad} samples")
    return problems


def clamped_share(trace) -> float:
    u = trace.channel("u_presat")
    return float(np.count_nonzero(trace.channel("omega_d") != u)) / len(u)


def check_linear_tracking(trace, p_tf, c1_tf, c2_tf, amplitude,
                          frequency_hz) -> list[str]:
    """tau_L of an unclamped run equals the closed-loop maps' response.

    The sine reference is recomputed here and seen linear between
    samples; the recorded noise is held across each step.
    """
    if clamped_share(trace) > 0.0:
        return ["the clamp engaged; the linear maps do not apply"]
    (num_r, den), (num_n, _) = loop_maps(p_tf, c1_tf, c2_tf)
    r = amplitude * np.sin(2.0 * np.pi * frequency_hz * trace.t)
    expect = lti_filter(num_r, den, r, trace.dt_s, "foh") + lti_filter(
        num_n, den, trace.channel("n"), trace.dt_s, "zoh"
    )
    err = _relative(trace.channel("tau_L"), expect)
    if not err <= LINEAR_TOL:
        return [f"tau_L differs from the closed-loop maps by {err:.3e} "
                f"(tol {LINEAR_TOL:g})"]
    return []


def _realize(tf):
    num, den = _coeffs(tf)
    return tuple(np.atleast_2d(m) for m in signal.tf2ss(num, den))


def clamped_rk4(p_tf, g_tf, c1_tf, c2_tf, r_fn, noise, dt: float, nsteps: int,
                sat: float):
    """tau_L and u_presat from a classical RK4 clamped at every stage.

    The loop is u = C1 r - C2 (tau_L + n), omega_d = clip(u, +-sat),
    tau_L = P omega_d + G phi_L with phi_L = 0.  r_fn(t) gives the
    reference; noise[k] is held across step k.  Returns the samples
    0..nsteps.
    """
    blocks = [_realize(tf) for tf in (p_tf, g_tf, c1_tf, c2_tf)]
    (ap, bp, cp, _), (ag, _, cg, _), (a1, b1, c1, d1), (a2, b2, c2, d2) = blocks
    sizes = np.cumsum([0] + [blk[0].shape[0] for blk in blocks])
    sp, sg, s1, s2 = (slice(i, j) for i, j in zip(sizes[:-1], sizes[1:]))

    def outputs(x, r, n):
        tau = (cp @ x[sp])[0] + (cg @ x[sg])[0]
        y = tau + n
        u = (c1 @ x[s1])[0] + d1[0, 0] * r - (c2 @ x[s2])[0] - d2[0, 0] * y
        return tau, y, u

    def f(x, r, n):
        _, y, u = outputs(x, r, n)
        w = min(max(u, -sat), sat)
        dx = np.empty_like(x)
        dx[sp] = ap @ x[sp] + bp[:, 0] * w
        dx[sg] = ag @ x[sg]
        dx[s1] = a1 @ x[s1] + b1[:, 0] * r
        dx[s2] = a2 @ x[s2] + b2[:, 0] * y
        return dx

    x = np.zeros(sizes[-1])
    tau = np.empty(nsteps + 1)
    u_presat = np.empty(nsteps + 1)
    for k in range(nsteps + 1):
        t = k * dt
        r0 = r_fn(t)
        tau[k], _, u_presat[k] = outputs(x, r0, noise[k])
        if k == nsteps:
            break
        rh, r1, n = r_fn(t + 0.5 * dt), r_fn(t + dt), noise[k]
        k1 = f(x, r0, n)
        k2 = f(x + 0.5 * dt * k1, rh, n)
        k3 = f(x + 0.5 * dt * k2, rh, n)
        k4 = f(x + dt * k3, r1, n)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return tau, u_presat


def check_clamped_prefix(trace, p_tf, g_tf, c1_tf, c2_tf, amplitude,
                         frequency_hz, sat: float, nsteps: int) -> list[str]:
    """The first nsteps of a run agree with the stage-clamped RK4 above."""
    def r_fn(t):
        return amplitude * math.sin(2.0 * math.pi * frequency_hz * t)

    tau, u = clamped_rk4(p_tf, g_tf, c1_tf, c2_tf, r_fn, trace.channel("n"),
                         trace.dt_s, nsteps, sat)
    problems = []
    for name, expect in (("tau_L", tau), ("u_presat", u)):
        err = _relative(trace.channel(name)[: nsteps + 1], expect)
        if not err <= PREFIX_TOL:
            problems.append(
                f"{name} differs from the stage-clamped RK4 by {err:.3e} "
                f"over {nsteps} steps (tol {PREFIX_TOL:g})"
            )
    return problems


def _mirror(p: np.ndarray) -> np.ndarray:
    """Coefficients of p(-s)."""
    powers = np.arange(len(p) - 1, -1, -1)
    return p * np.where(powers % 2, -1.0, 1.0)


def _identity_error(lhs: np.ndarray, rhs: np.ndarray) -> float:
    diff = np.polysub(lhs, rhs)
    return float(np.max(np.abs(diff))) / float(np.max(np.abs(rhs)))


def _response(num, den, f_hz):
    s = 2j * np.pi * np.asarray(f_hz, float)
    return np.polyval(num, s) / np.polyval(den, s)


def _g1_at(p_tf, c1_tf, c2_tf, f_hz: float) -> complex:
    (num, den), _ = loop_maps(p_tf, c1_tf, c2_tf)
    return complex(_response(num, den, f_hz))


def _first_fall(value, level: float):
    """First frequency in SWEEP_HZ where value(f) falls through level.

    value maps an array of frequencies to an array of figures; a log
    grid of BRACKET_POINTS brackets the crossing and brentq solves for
    it.  None when value never falls through level.
    """
    grid = np.logspace(*np.log10(SWEEP_HZ), BRACKET_POINTS)
    v = value(grid) - level
    hits = np.nonzero((v[:-1] >= 0.0) & (v[1:] < 0.0))[0]
    if not len(hits):
        return None
    lo, hi = grid[hits[0]], grid[hits[0] + 1]
    return optimize.brentq(lambda f: float(value(np.array([f]))[0]) - level,
                           lo, hi, xtol=1e-12 * lo, rtol=1e-12)


def _margins(loop_tf) -> tuple[float, float]:
    """(gain margin dB, phase margin deg) of loop_tf, with numpy.polyval.

    The phase is unwrapped from its principal angle at the low end of
    SWEEP_HZ; the margins are read at the first unity-gain crossing and
    the first fall through -180 deg, and are inf when there is none.
    """
    num, den = _coeffs(loop_tf)
    grid = np.logspace(*np.log10(SWEEP_HZ), BRACKET_POINTS)
    unwrapped = np.degrees(np.unwrap(np.angle(_response(num, den, grid))))

    def gain_db(f):
        return 20.0 * np.log10(np.abs(_response(num, den, f)))

    def phase_deg(f):
        # continuous from the nearest grid point below f
        i = np.clip(np.searchsorted(grid, f, side="right") - 1, 0, len(grid) - 1)
        turn = _response(num, den, f) / _response(num, den, grid[i])
        return unwrapped[i] + np.degrees(np.angle(turn))

    f_gain = _first_fall(gain_db, 0.0)
    f_phase = _first_fall(phase_deg, -180.0)
    pm = math.inf if f_gain is None else 180.0 + float(phase_deg(np.array([f_gain]))[0])
    gm = math.inf if f_phase is None else -float(gain_db(np.array([f_phase]))[0])
    return gm, pm


def _close(got: float, want: float, tol: float) -> bool:
    return got == want if math.isinf(want) else abs(got - want) <= tol


def check_design(p_tf, weights, ctrl, fact, bandwidth_hz: float,
                 phase_deg: float, margins, loop_tf) -> list[str]:
    """Identities of one H2 design and its Bode figures.

    weights are the ones the design was asked for.  a p + b q = d_rho
    d_lk (Diophantine), d_rho(s) d_rho(-s) = rho^2 a(-s) a(s) + b(-s)
    b(s) and d_lk(s) d_lk(-s) = k^2 a(-s) a(s) + lam^2 b(-s) b(s)
    (spectral), f h = a den(C2) + b num(C2) (the coprime split), all to
    IDENTITY_TOL relative; the characteristic roots lie in the open left
    half plane; at bandwidth_hz, |G1| sits 3.0103 dB below its gain at
    F_REF_HZ, and phase_deg is the angle of G1 there (mod 360); margins
    (gain dB, phase deg) are those of loop_tf at its first crossings.
    """
    b, a = _coeffs(p_tf)
    p, q = ctrl.p.coeffs, ctrl.q.coeffs
    d_rho, d_lk = ctrl.d_rho.coeffs, ctrl.d_lambda_k.coeffs
    char = np.polymul(d_rho, d_lk)
    aa = np.polymul(_mirror(a), a)
    bb = np.polymul(_mirror(b), b)
    n2, dd2 = _coeffs(ctrl.c2)
    identities = {
        "Diophantine a p + b q = d_rho d_lk": (
            np.polyadd(np.polymul(a, p), np.polymul(b, q)), char),
        "spectral d_rho": (
            np.polymul(_mirror(d_rho), d_rho),
            np.polyadd(weights.rho**2 * aa, bb)),
        "spectral d_lambda_k": (
            np.polymul(_mirror(d_lk), d_lk),
            np.polyadd(weights.k**2 * aa, weights.lam**2 * bb)),
        "coprime split f h": (
            np.polymul(fact.f.coeffs, fact.h.coeffs),
            np.polyadd(np.polymul(a, dd2), np.polymul(b, n2))),
    }
    problems = []
    for name, (lhs, rhs) in identities.items():
        err = _identity_error(lhs, rhs)
        if not err <= IDENTITY_TOL:
            problems.append(f"{name}: residual {err:.3e} (tol {IDENTITY_TOL:g})")
    worst = float(np.max(np.roots(char).real))
    if not worst < 0.0:
        problems.append(f"characteristic root with real part {worst:.3e}")
    g_ref = _g1_at(p_tf, ctrl.c1, ctrl.c2, F_REF_HZ)
    g_bw = _g1_at(p_tf, ctrl.c1, ctrl.c2, bandwidth_hz)
    drop = 20.0 * math.log10(abs(g_ref) / abs(g_bw))
    if not abs(drop - HALF_POWER_DB) <= DB_TOL:
        problems.append(
            f"|G1| at the bandwidth {bandwidth_hz:.6g} Hz is {drop:.5f} dB "
            f"below its low-frequency gain, not {HALF_POWER_DB:.5f}"
        )
    off = (phase_deg - math.degrees(np.angle(g_bw)) + 180.0) % 360.0 - 180.0
    if not abs(off) <= DEG_TOL:
        problems.append(f"phase_at is {off:.4f} deg off the angle of G1")
    gm, pm = _margins(loop_tf)
    if not _close(margins[0], gm, DB_TOL):
        problems.append(f"gain margin {margins[0]:.6g} dB, expected {gm:.6g}")
    if not _close(margins[1], pm, DEG_TOL):
        problems.append(f"phase margin {margins[1]:.6g} deg, expected {pm:.6g}")
    return problems


def csv_paths(root: str) -> dict[str, str]:
    """Every CSV below root: its path relative to root, and its path."""
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                found[os.path.relpath(path, root)] = path
    return found


@dataclasses.dataclass(frozen=True)
class CsvScan:
    sha256: str
    lines: int  # newline characters
    last_line: bytes


def scan_csv(path: str) -> CsvScan:
    """Digest, line count and last line of a file, read CHUNK bytes at a
    time, so that no whole file is held in memory."""
    digest = hashlib.sha256()
    lines = 0
    tail = b""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(CHUNK), b""):
            digest.update(block)
            lines += block.count(b"\n")
            tail = (tail + block)[-CHUNK:]
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return CsvScan(digest.hexdigest(), lines, last)


def check_trace_csv(scan: CsvScan, duration_s: float, dt_s: float) -> list[str]:
    """A trace CSV has a header and one row per sample, ending at duration_s."""
    expect = round(duration_s / dt_s) + 1
    problems = []
    if scan.lines != expect + 1:
        problems.append(f"{scan.lines - 1} rows, expected {expect}")
    first = scan.last_line.split(b",", 1)[0]
    try:
        t_end = float(first)
    except ValueError:
        return problems + [f"last row starts with {first[:20]!r}"]
    if not abs(t_end - duration_s) <= 1e-6 * duration_s:
        problems.append(f"last sample at t = {t_end!r}, expected {duration_s:g}")
    return problems


def check_same_files(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Two passes wrote the same set of CSVs with the same bytes; each
    dict maps a CSV's relative path to its sha256."""
    if first.keys() != again.keys():
        return [f"CSV sets differ: {sorted(first.keys() ^ again.keys())}"]
    changed = [k for k in first if first[k] != again[k]]
    return [f"CSV differs between passes: {k}" for k in changed]
