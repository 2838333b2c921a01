"""A seeded fuzz of the input contract: every mutated config ends in a
documented exit code, with no numpy RuntimeWarning on the way."""

import json
import time
import warnings

import numpy as np

from seakit.cli import main

_SINE = {"kind": "sine", "amplitude": 0.03, "frequency_hz": 2.0}
_BASE = {
    "plant": {"j_a": 6.9e-4, "b_f": 0.0059, "k_s": 0.0484, "r_winch": 7.25e-3,
              "k_g": 14.0, "k_pv": 0.0457, "k_iv": 1.3455},
    "weights": {"rho": 5e-4, "lambda": 1.0, "k": 1.0},
    "scenarios": {
        "two_dof": {"dt_s": 1e-4, "duration_s": 0.05, "saturation_rad_s": 50.0,
                    "reference": _SINE,
                    "noise": {"kind": "white_noise", "variance": 1e-6, "seed": 3}},
        "pi": {"dt_s": 1e-4, "duration_s": 0.05, "saturation_rad_s": 50.0,
               "reference": {"kind": "chirp", "amplitude": 0.03, "f0_hz": 1.0,
                             "f1_hz": 20.0, "sweep_s": 0.04, "offset": 0.01},
               "controller": {"type": "pi", "kp": 204.0, "ki": 111.0}},
        "imp": {"type": "impedance", "i_d": 0.02, "dt_s": 1e-4, "duration_s": 0.05,
                "saturation_rad_s": 50.0, "compensator_on": True,
                "phi_ref": {"kind": "piecewise_linear", "offset": 0.01,
                            "breakpoints": [[0.0, 0.0], [0.02, 0.1], [0.04, -0.05]]},
                "handle_motion": {"kind": "sine", "amplitude": 0.1, "frequency_hz": 1.0}},
    },
}
_PATHS = (
    [("plant", k) for k in _BASE["plant"]]
    + [("weights", k) for k in _BASE["weights"]]
    + [("scenarios", s, f) for s in ("two_dof", "pi", "imp")
       for f in ("dt_s", "duration_s", "saturation_rad_s")]
    + [("scenarios", "imp", "i_d"),
       ("scenarios", "two_dof", "reference", "amplitude"),
       ("scenarios", "two_dof", "reference", "frequency_hz"),
       ("scenarios", "two_dof", "noise", "variance"),
       ("scenarios", "two_dof", "noise", "seed"),
       ("scenarios", "pi", "controller", "kp"),
       ("scenarios", "pi", "controller", "ki")]
    + [("scenarios", "pi", "reference", f)
       for f in ("amplitude", "f0_hz", "f1_hz", "sweep_s", "offset")]
    + [("scenarios", "imp", "phi_ref", "offset"),
       ("scenarios", "imp", "phi_ref", "breakpoints"),
       ("scenarios", "imp", "phi_ref", "breakpoints", 1, 0),
       ("scenarios", "imp", "phi_ref", "breakpoints", 2, 1)]
)
_ODD = [0, -1.0, 1e-320, 1e308, float("nan"), float("inf"), -float("inf"),
        "x", [1.0], None, True, 10**400]
# whole breakpoint lists: too short, not increasing, not pairs, not numbers
_ODD_BREAKPOINTS = [[], [[0.0, 1.0]], [[0.02, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
                    [[0.0, 0.0, 1.0], [1.0, 2.0]], [[0.0, "x"], [1.0, 2.0]],
                    [0.0, 1.0], [[0.0, 0.0], [1e308, 1e308]]]


def _value(rng, path):
    """A bad or extreme value for the field at path.

    Durations and steps are drawn so that no accepted scenario runs more
    than 2e4 steps: a long duration always lies beyond the step cap."""
    field = path[-1]
    if field == "breakpoints":
        odd = _ODD_BREAKPOINTS if rng.random() < 0.8 else _ODD
        return odd[rng.integers(len(odd))]
    if field in ("kp", "ki") and rng.random() < 0.6:
        return 10.0 ** rng.uniform(0.0, 300.0)
    if field == "duration_s" and rng.random() < 0.5:
        return 10.0 ** rng.uniform(8.0, 308.0)
    if rng.random() < 0.5:
        return _ODD[rng.integers(len(_ODD))]
    if field == "seed":
        return int(rng.integers(0, 2**40))
    low, high = {"duration_s": (-3.0, 0.6), "dt_s": (-1.0, 3.0)}.get(field, (-3.0, 3.0))
    base = _BASE
    for key in path:
        base = base[key]
    return base * 10.0 ** rng.uniform(low, high)


def _mutated(rng):
    raw = json.loads(json.dumps(_BASE))
    for _ in range(int(rng.integers(1, 3))):
        path = _PATHS[rng.integers(len(_PATHS))]
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _value(rng, path)
    return raw


def _nan_root(roots):
    def patched(c):
        r = roots(c).astype(complex)
        if len(r):
            r[-1] = complex(np.nan, 0.0)
        return r
    return patched


def test_mutated_configs_end_in_a_documented_exit_code(tmp_path, capsys, monkeypatch):
    # plant constants, weights, scenario timing, signals (sine, noise,
    # chirp, and a piecewise-linear phi_ref) and PI gains (up to 1e300)
    # take odd values, durations reach 1e308, and every tenth config runs
    # with a NaN eigenvalue among the roots np.roots returns
    rng = np.random.default_rng(14)
    t0 = time.perf_counter()
    exits = []
    for i in range(100):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(_mutated(rng)))
        nan_root = i % 10 == 0
        with monkeypatch.context() as m:
            if nan_root:
                m.setattr(np, "roots", _nan_root(np.roots))
            for argv in (["synth"], ["sim", "two_dof"], ["sim", "pi"], ["sim", "imp"]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv + ["--config", str(path), "--out", str(tmp_path / "o")])
                err = capsys.readouterr().err
                context = (i, argv, path.read_text(), err)
                assert code in (0, 2, 3, 5), context
                escaped = [str(w.message) for w in caught
                           if issubclass(w.category, RuntimeWarning)]
                assert not escaped, (escaped, context)
                if nan_root:  # the design raises instead of losing a root
                    assert code == 2 or "root residual nan exceeds" in err, context
                exits.append(code)
    assert time.perf_counter() - t0 < 10.0
    assert {0, 2, 3} <= set(exits), exits
