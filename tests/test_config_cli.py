"""Unit tests for config parsing, the controller bundle, and the CLI."""

import dataclasses
import json
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from seakit import (
    ConfigError,
    PiController,
    ProjectConfig,
    SignalSpec,
    SynthesisWeights,
    TRACE_CHANNELS,
    TorqueLoopScenario,
    build_compensator,
    build_plant,
    default_params,
    h2_synthesize,
    load_config,
    parse_config,
    params_fingerprint,
    write_bundle,
)
from seakit import config
from seakit.cli import main
from seakit.config import write_csv
from seakit.presets import PRESET_NAMES


# ---------------------------------------------------------------- config


def test_parse_empty_config_uses_defaults():
    cfg = parse_config({})
    assert cfg.plant == default_params()
    assert cfg.weights == SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)
    assert cfg.scenarios == {}
    assert cfg.output_dir == "out"


def _coefficients(ctrl) -> list:
    return [tf.num.coeffs.tolist() + tf.den.coeffs.tolist()
            for tf in (ctrl.c1, ctrl.c2)]


def _scenario(cfg, name, **fields):
    """cfg.scenarios[name] as built in code from fields, on the config's
    plant and, unless fields set a controller, its freshly designed 2-DOF
    pair.  model and controller compare by identity, so they are checked
    here and then taken from the parsed scenario."""
    sc = cfg.scenarios[name]
    assert sc.model.params == cfg.plant
    if "controller" not in fields:
        fresh = h2_synthesize(build_plant(cfg.plant).P, cfg.weights)
        assert _coefficients(sc.controller) == _coefficients(fresh)
        fields["controller"] = sc.controller
    return TorqueLoopScenario(model=sc.model, **fields)


def test_config_round_trip():
    """A JSON literal with every field set parses to the config built in
    code: every signal kind, a PI controller, the impedance fields and
    the "lambda" weight key."""
    raw = {
        "format_version": 1,
        "output_dir": "results",
        "plant": {"k_s": 0.05},
        "weights": {"rho": 1e-3, "lambda": 2.0, "k": 0.5},
        "scenarios": {
            "track": {
                "type": "torque_loop",
                "reference": {"kind": "sine", "amplitude": 0.033,
                              "frequency_hz": 2.0, "offset": 0.0},
                "disturbance": {"kind": "step", "amplitude": 0.01,
                                "start_s": 0.5},
                "noise": {"kind": "white_noise", "variance": 0.01, "seed": 4,
                          "offset": 0.0},
                "handle_motion": {"kind": "chirp", "amplitude": 0.2,
                                  "f0_hz": 0.0, "f1_hz": 5.0, "sweep_s": 2.0},
                "compensator_on": True,
                "saturation_rad_s": 40.0,
                "dt_s": 1e-3,
                "duration_s": 3.0,
            },
            "render": {
                "type": "impedance",
                "controller": {"type": "pi", "kp": 204.0, "ki": 111.0},
                "disturbance": {"kind": "zero"},
                "handle_motion": {"kind": "piecewise_linear",
                                  "breakpoints": [[0, 0], [1, 0.5]]},
                "phi_ref": {"kind": "constant", "amplitude": 0.1},
                "i_d": 0.5,
            },
        },
    }
    cfg = parse_config(raw)
    assert dataclasses.replace(cfg, scenarios={}) == ProjectConfig(
        plant=dataclasses.replace(default_params(), k_s=0.05),
        weights=SynthesisWeights(rho=1e-3, lam=2.0, k=0.5),
        output_dir="results",
    )
    assert list(cfg.scenarios) == ["track", "render"]
    assert cfg.scenarios["track"] == _scenario(
        cfg, "track",
        reference=SignalSpec.sine(0.033, 2.0),
        disturbance=SignalSpec.step(0.01, start_s=0.5),
        noise=SignalSpec.white_noise(0.01, seed=4),
        handle_motion=SignalSpec.chirp(0.2, 0.0, 5.0, 2.0),
        compensator_on=True,
        saturation_rad_s=40.0,
        dt_s=1e-3,
        duration_s=3.0,
    )
    assert cfg.scenarios["render"] == _scenario(
        cfg, "render",
        controller=PiController(204.0, 111.0),
        i_d=0.5,
        handle_motion=SignalSpec.piecewise_linear([(0.0, 0.0), (1.0, 0.5)]),
        phi_ref=SignalSpec.constant(0.1),
    )
    assert cfg.scenarios["render"].model is cfg.scenarios["track"].model


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(
        {"scenarios": {"quick": {"duration_s": 1.0, "dt_s": 1e-3}}}
    ))
    cfg = load_config(str(path))
    assert dataclasses.replace(cfg, scenarios={}) == ProjectConfig()
    assert cfg.scenarios == {"quick": _scenario(cfg, "quick", duration_s=1.0,
                                                dt_s=1e-3)}


def test_parse_config_designs_once_and_only_for_a_two_dof_scenario(monkeypatch):
    def no_design(P, weights):
        raise AssertionError("h2_synthesize called")

    monkeypatch.setattr(config, "h2_synthesize", no_design)
    pi = {"type": "pi", "kp": 204.0, "ki": 111.0}
    parse_config({})
    parse_config({"plant": {"k_s": 0.05}, "scenarios": {}})
    parse_config({"scenarios": {"a": {"controller": pi},
                                "b": {"type": "impedance", "i_d": 0.5,
                                      "controller": pi}}})
    designs = []
    monkeypatch.setattr(config, "h2_synthesize",
                        lambda P, weights: designs.append(weights) or
                        h2_synthesize(P, weights))
    cfg = parse_config({"scenarios": {"a": {}, "b": {"controller": pi},
                                      "c": {"controller": "two_dof"}}})
    assert designs == [cfg.weights]
    assert cfg.scenarios["a"].controller is cfg.scenarios["c"].controller


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"plnat": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"plant": {"j_motor": 1.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"weights": {"rho": 1e-3, "mu": 2.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"scenarios": {"a": {"kind": "torque_loop"}}})  # key is 'type'
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            {"scenarios": {"a": {"reference": {"kind": "sine",
                                               "frequency_hz": 1.0,
                                               "amp": 2.0}}}}
        )
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            {"scenarios": {"a": {"controller": {"type": "pi", "kp": 1.0,
                                                "ki": 1.0, "kd": 0.0}}}}
        )


def test_weights_lambda_key_maps_to_lam():
    cfg = parse_config({"weights": {"rho": 1e-3, "lambda": 3.0, "k": 2.0}})
    assert cfg.weights.lam == 3.0
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"weights": {"lam": 3.0}})


def test_plant_overlay_keeps_other_defaults():
    cfg = parse_config({"plant": {"k_s": 0.1}})
    assert cfg.plant.k_s == 0.1
    assert cfg.plant.j_a == default_params().j_a
    with pytest.raises(ConfigError):
        parse_config({"plant": {"k_s": -1.0}})  # physical invariant


def test_format_version_is_enforced():
    with pytest.raises(ConfigError, match="format_version"):
        parse_config({"format_version": 999})
    assert parse_config({"format_version": 1}) == ProjectConfig()


def test_output_dir_must_be_a_non_empty_string():
    # "" used to load, and every command then failed to write (exit 5)
    for bad in ("", 3):
        with pytest.raises(ConfigError, match=r"^config\.output_dir "):
            parse_config({"output_dir": bad})


def test_impedance_fields_rejected_on_torque_loop():
    with pytest.raises(ConfigError, match="i_d"):
        parse_config({"scenarios": {"a": {"type": "torque_loop", "i_d": 0.5}}})
    parse_config({"scenarios": {"a": {"type": "impedance", "i_d": 0.5}}})


_SINE = {"kind": "sine", "amplitude": 0.01, "frequency_hz": 1.0}


def test_scenario_fields_checked_at_load():
    bad = [
        ("i_d", {"type": "impedance"}),
        ("i_d", {"type": "impedance", "i_d": 0.0}),
        ("dt_s", {"dt_s": -1e-4}),
        ("saturation_rad_s", {"saturation_rad_s": 0.0}),
        ("duration_s", {"dt_s": 1e-3, "duration_s": 5e-3}),
        ("duration_s", {"duration_s": 1e6}),
        ("duration_s", {"duration_s": 1e308}),
        ("duration_s", {"duration_s": 10**400}),  # a JSON integer with no float
        ("i_d", {"type": "impedance", "i_d": 1e101}),
        ("reference", {"type": "impedance", "i_d": 0.02, "reference": _SINE}),
    ]
    for field, body in bad:
        with pytest.raises(ConfigError) as err:
            parse_config({"scenarios": {"s": body}})
        assert str(err.value).startswith(f"config.scenarios.s.{field} ")


def test_cli_rejects_an_impedance_reference_before_any_output(tmp_path, capsys):
    # it used to load, and sim then made the output directory and failed
    # mid-command with an unprefixed "error: reference must be zero"
    imp = {"type": "impedance", "i_d": 0.02, "reference": _SINE}
    cfg = _write_project(tmp_path, scenarios={"imp": imp})
    out = tmp_path / "d"
    assert main(["sim", "imp", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config.scenarios.imp.reference must be zero")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_extreme_weights_and_plant_fail_with_a_message(tmp_path, capsys):
    # weights beyond 1e+-100 used to escape the design as an OverflowError
    # traceback or as messages naming no weight; a plant constant beyond
    # 1e+-100 used to leak numpy's LinAlgError (k_s) or fail on non-finite
    # coefficients (j_a), and plant --config then exited 0
    cases = [
        ({"weights": {"rho": 1e300}}, 2, "config error: config.weights: weight rho "),
        ({"weights": {"rho": 1e-300}}, 2, "config error: config.weights: weight rho "),
        ({"weights": {"k": 1e-160}}, 2, "config error: config.weights: weight k "),
        ({"plant": {"k_s": 1e150}}, 2, "config error: config.plant: k_s must lie in "),
        ({"plant": {"j_a": 1e-160}}, 2, "config error: config.plant: j_a must lie in "),
    ]
    for i, (raw, code, message) in enumerate(cases):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out{i}"
        for command in ("synth", "plant"):
            assert main([command, "--config", str(path), "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert err.startswith(message) and "Traceback" not in err


def test_cli_rejects_impedance_scenario_without_i_d(tmp_path, capsys):
    path = tmp_path / "imp.json"
    path.write_text(json.dumps({"scenarios": {"imp": {"type": "impedance"}}}))
    assert main(["sim", "imp", "--config", str(path)]) == 2
    assert "config error: config.scenarios.imp.i_d" in capsys.readouterr().err


def test_negative_noise_seed_fails_before_the_run(tmp_path, capsys):
    # it used to load, and the run then stopped on numpy's seed error
    noise = {"kind": "white_noise", "variance": 0.01, "seed": -3}
    with pytest.raises(ConfigError, match=r"^config\.scenarios\.n\.noise: .*seed >= 0"):
        parse_config({"scenarios": {"n": {"noise": noise}}})
    assert main(["sim", "fig9", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed >= 0" in capsys.readouterr().err


def test_negative_cli_seed_fails_before_any_output(tmp_path, capsys):
    # reproduce used to write all of fig6 first, and fig6 alone (no
    # noise) used to run to the end and exit 0
    out = tmp_path / "out"
    assert main(["reproduce", "--seed", "-1", "--out", str(out)]) == 2
    assert not (out / "fig6").exists()
    assert main(["sim", "fig6", "--seed", "-1", "--out", str(out)]) == 2
    assert not (out / "fig6").exists()
    assert capsys.readouterr().err.count("error: white_noise requires a seed >= 0") == 2


def test_controller_parse_errors():
    with pytest.raises(ConfigError, match="controller"):
        parse_config({"scenarios": {"a": {"controller": "lqg"}}})
    with pytest.raises(ConfigError, match="'pi'"):
        parse_config({"scenarios": {"a": {"controller": {"type": "pid",
                                                         "kp": 1.0, "ki": 1.0}}}})
    with pytest.raises(ConfigError):
        parse_config({"scenarios": {"a": {"controller": {"type": "pi",
                                                         "kp": -1.0, "ki": 1.0}}}})
    for key in ("kp", "ki"):
        gains = {"type": "pi", "kp": 1.0, "ki": 1.0, key: float("nan")}
        with pytest.raises(ConfigError, match=rf"^config\.scenarios\.a\.controller: "
                                              rf"{key} must be finite$"):
            parse_config({"scenarios": {"a": {"controller": gains}}})


def test_breakpoints_must_be_number_pairs():
    def parse(breakpoints):
        ref = {"kind": "piecewise_linear", "breakpoints": breakpoints}
        return parse_config({"scenarios": {"a": {"reference": ref}}})

    ref = parse([[0, 1], [1, 2.5]]).scenarios["a"].reference
    assert ref.breakpoints == ((0.0, 1.0), (1.0, 2.5))
    # strings and booleans used to pass through float()
    for bad in ([["0", True], [1, "2.5"]], [[0, 1], [1, False]],
                [[0, 1], [1, 2, 3]], [[0, 1], "ab"], {"0": 1}, 3):
        with pytest.raises(ConfigError, match=r"^config\.scenarios\.a\.reference"
                                              r"\.breakpoints must be "):
            parse(bad)


def test_params_fingerprint_stability():
    p = default_params()
    assert params_fingerprint(p) == params_fingerprint(default_params())
    q = dataclasses.replace(p, k_s=p.k_s * 1.0000001)
    assert params_fingerprint(q) != params_fingerprint(p)
    assert len(params_fingerprint(p)) == 16


# ---------------------------------------------------------------- bundles


@pytest.fixture(scope="module")
def synth_pieces():
    params = default_params()
    model = build_plant(params)
    ctrl = h2_synthesize(model.P, SynthesisWeights(rho=5e-4, lam=1.0, k=1.0))
    comp = build_compensator(model, ctrl)
    return params, model, ctrl, comp


def test_bundle_round_trip(tmp_path, synth_pieces):
    """controller.json holds the synthesized arrays bit for bit, in a fixed
    key order, with the weights and the plant fingerprint."""
    params, _, ctrl, comp = synth_pieces
    path = tmp_path / "controller.json"
    write_bundle(str(path), ctrl, comp, params)
    text = path.read_text()
    assert text.endswith("}\n") and "\r" not in text
    obj = json.loads(text)
    assert list(obj) == [
        "format_version", "weights", "c1_num", "c1_den", "c2_num", "c2_den",
        "cl_num", "cl_den", "plant_fingerprint",
    ]
    assert obj["format_version"] == 1
    assert obj["weights"] == {"rho": 5e-4, "lambda": 1.0, "k": 1.0}
    for tag, tf in (("c1", ctrl.c1), ("c2", ctrl.c2), ("cl", comp)):
        for part, poly in (("num", tf.num), ("den", tf.den)):
            assert np.array(obj[f"{tag}_{part}"]).tobytes() == poly.coeffs.tobytes()
    assert obj["plant_fingerprint"] == params_fingerprint(params)


def test_write_csv_format(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(str(path), ["a", "b"], [np.array([1.0, 2.5]), np.array([3.0, 4.0])])
    assert path.read_text() == "a,b\n1,3\n2.5,4\n"
    # Special values, and more rows than one formatting block holds: each
    # line equals the per-value formatting.
    rng = np.random.default_rng(3)
    a = rng.standard_normal(9000) * 10.0 ** rng.integers(-12, 12, 9000)
    a[:5] = [-0.0, np.nan, np.inf, -np.inf, 0.0]
    b = np.arange(9000) * 0.1
    write_csv(str(path), ["a", "b"], [a, b])
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "a,b" and lines[-1] == "" and len(lines) == 9002
    assert lines[1:6] == ["-0,0", "nan,0.1", "inf,0.2", "-inf,0.3", "0,0.4"]
    assert lines[1:-1] == ["%.9g,%.9g" % (x, y) for x, y in zip(a, b)]


def _per_value(columns):
    """The CSV rows of columns, one "%.9g" per value."""
    return "".join(",".join("%.9g" % x for x in row) + "\n"
                   for row in zip(*(np.asarray(c).tolist() for c in columns)))


def _check_blocks(columns):
    """_csv_blocks writes each row as _per_value does, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = "".join(config._csv_blocks(columns)).split("\n")
    want = _per_value(columns).split("\n")
    if got != want:  # name the first row that differs, not the whole text
        i = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
        pytest.fail(f"row {i}: {got[i:i + 1]} != {want[i:i + 1]}")


def test_csv_formatter_matches_per_value_format_on_every_decade():
    rng = np.random.default_rng(30)
    # 1.2M values, 2000 a decade, with both signs: 1e-320 .. 1e308,
    # subnormals included
    decade = rng.integers(-320, 309, 1_200_000)
    top = np.where(decade == 308, 1.79, 10.0)
    v = rng.uniform(1.0, top) * 10.0 ** decade.astype(float)
    v[rng.random(v.size) < 0.5] *= -1.0
    v[:12] = [123456789.5, 0.5, 2.5, 0.0, -0.0, np.inf, -np.inf, np.nan,
              5e-324, -2.5e-310, 2.2250738585072009e-308, 1e-5]
    _check_blocks([v[0::3], v[1::3], v[2::3]])
    # the powers of ten and ties d.dddddddd5e(k), with their neighbours
    ks = np.arange(-323, 309)
    ties = [float(f"{m}5e{k}") for k in ks for m in
            (f"{d / 1e8:.8f}" for d in rng.integers(100_000_000, 1_000_000_000, 6))]
    exact = np.array([float(f"1e{k}") for k in ks] + ties + [9.999999995, 999999999.5])
    near = np.concatenate([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf),
                           np.nextafter(np.nextafter(exact, 0.0), 0.0)])
    near = np.concatenate([near, -near])
    _check_blocks([near])


def test_csv_formatter_column_shortcuts():
    # all-zero, -0.0, bitwise-duplicate and equal-but-not-bitwise columns,
    # over more rows than a block, with the shortcut holding in some blocks
    n = 3 * config._CSV_BLOCK_ROWS + 100
    rng = np.random.default_rng(31)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 10, n)
    late = np.where(np.arange(n) < 5000, 0.0, a)
    signed = np.where(np.arange(n) % 3 == 0, 0.0, a)
    other = signed.copy()
    other[::3] = -0.0  # equal to signed in value, not in bits
    nan = np.full(n, np.nan)
    payload = nan.view(np.int64) | 1
    columns = [np.zeros(n), -np.zeros(n), a, a.copy(), late, signed, other,
               nan, payload.view(np.float64), np.arange(n), np.arange(n) % 3 == 0, a]
    _check_blocks(columns)
    assert "".join(config._csv_blocks([np.zeros(n), np.zeros(n)])) == "0,0\n" * n
    for rows in (0, 1):
        columns = [np.arange(rows) - 0.5, np.zeros(rows), -np.zeros(rows),
                   np.arange(rows) == 0, np.arange(rows) + 7]
        _check_blocks(columns)
    assert "".join(config._csv_blocks(
        [np.array([-0.0]), np.array([True]), np.array([2**60])])) == "-0,1,1.1529215e+18\n"


def _csv_columns(n):
    """Three columns of n rows with -0, nan and +-inf near both ends."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    for i in (0, n - 4):
        a[i:i + 4] = [-0.0, np.nan, np.inf, -np.inf]
    return [a, np.arange(n) * 1e-4, -a[::-1]]


def _counting_fork(monkeypatch):
    """Count the os.fork calls made by this process."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


needs_split = pytest.mark.skipif(
    not hasattr(os, "fork") or config._usable_cpus() < 2,
    reason="the split path needs os.fork and two usable CPUs")


@needs_split
@pytest.mark.parametrize("n", [16383, 16384, 16385, 16386, 60001])
def test_write_csv_split_rows_equal_per_value_format(tmp_path, monkeypatch, n):
    # From 4 formatting blocks of rows up, a forked helper writes the
    # first half of the rows; below that, one process writes them all.
    # At 16386 rows the helper's last block is one short row, which stays
    # in the file object's buffer until the helper flushes it.
    forks = _counting_fork(monkeypatch)
    cols = _csv_columns(n)
    path = tmp_path / "split.csv"
    write_csv(str(path), ["a", "t", "b"], cols)
    assert forks == ([] if n < 16384 else [os.getpid()])
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "a,t,b" and lines[-1] == "" and len(lines) == n + 2
    assert lines[1:-1] == ["%.9g,%.9g,%.9g" % row for row in zip(*cols)]
    assert lines[1].startswith("-0,") and lines[n].startswith("-inf,")


@pytest.mark.parametrize("serial", ["one_cpu", "no_fork"])
def test_write_csv_serial_fallback_writes_same_bytes(tmp_path, monkeypatch, serial):
    cols = _csv_columns(60001)
    write_csv(str(tmp_path / "default.csv"), ["a", "t", "b"], cols)
    forks = _counting_fork(monkeypatch)
    if serial == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "fork")
    write_csv(str(tmp_path / "serial.csv"), ["a", "t", "b"], cols)
    assert forks == []
    assert (tmp_path / "serial.csv").read_bytes() == \
        (tmp_path / "default.csv").read_bytes()


@needs_split
@pytest.mark.parametrize("helper_fails", [False, True])
def test_write_csv_leaves_no_child(tmp_path, monkeypatch, helper_fails):
    path = tmp_path / "reaped.csv"
    if helper_fails:
        # The helper inherits this patch through fork; only it raises.
        parent = os.getpid()
        blocks = config._csv_blocks

        def failing_in_helper(columns):
            if os.getpid() != parent:
                raise RuntimeError("helper failure")
            return blocks(columns)

        monkeypatch.setattr(config, "_csv_blocks", failing_in_helper)
        with pytest.raises(OSError, match=re.escape(str(path))):
            write_csv(str(path), ["a", "t", "b"], _csv_columns(60001))
    else:
        write_csv(str(path), ["a", "t", "b"], _csv_columns(60001))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [np.ones(3)] * 3, "2 header names for 3 columns"),
    (["a", "b", "c"], [np.ones(3), np.ones(60001), np.ones(3)],
     r"one length, not \[3, 60001\]"),
])
def test_write_csv_rejects_a_table_that_does_not_match(tmp_path, monkeypatch,
                                                       header, columns, message):
    # checked before the file is opened and before any fork
    forks = _counting_fork(monkeypatch)
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(str(path), header, columns)
    assert forks == [] and not path.exists()


@pytest.mark.parametrize("serial", [True, False])
def test_write_csv_stacks_no_whole_table(tmp_path, monkeypatch, serial):
    """tracemalloc peak of writing 100k rows of 10 columns (8 MB as one
    stack).  One process holds one block's words (1.3 MB, 32 B a value),
    the working arrays of 1024 of its rows and the block's text, about
    3.0 MB here, so the bound is the whole-table stack.  With the forked
    helper this process also keeps the text of its half until the helper
    is reaped (6.1 MB here); apart from that text, about 2.5 MB remains,
    and the bound is half the whole-table stack."""
    if serial:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif not hasattr(os, "fork") or config._usable_cpus() < 2:
        pytest.skip("the split path needs os.fork and two usable CPUs")
    rows, ncols = 100_000, 10
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(rows) for _ in range(ncols)]
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), [f"c{i}" for i in range(ncols)], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = rows * ncols * 8
    if serial:
        assert peak < stack, peak
    else:
        lines = path.read_bytes().split(b"\n")[1:-1]
        held = sum(len(x) + 1 for x in lines[rows // 2:])
        assert peak - held < stack / 2, (peak, held)


# ---------------------------------------------------------------- cli


def _write_project(tmp_path, **extra):
    raw = {
        "output_dir": str(tmp_path / "out"),
        "scenarios": {
            "quick": {
                "type": "torque_loop",
                "reference": {"kind": "sine", "amplitude": 0.02,
                              "frequency_hz": 2.0},
                "noise": {"kind": "white_noise", "variance": 1e-6, "seed": 9},
                "dt_s": 1e-3,
                "duration_s": 0.5,
            }
        },
    }
    raw.update(extra)
    path = tmp_path / "project.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_plant(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["plant", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "P(s) =" in text and "G(s) =" in text
    assert (out / "plant.csv").exists()


def test_cli_plant_json(tmp_path, capsys):
    assert main(["plant", "--out", str(tmp_path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"P", "G"}
    assert obj["P"]["den"][0] == 1.0


def test_cli_synth(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out)]) == 0
    assert (out / "controller.json").exists()
    assert (out / "closed_loop_poles.csv").exists()
    bundle = json.loads((out / "controller.json").read_text())
    assert bundle["plant_fingerprint"] == params_fingerprint(default_params())
    text = capsys.readouterr().out
    assert "C1(s) =" in text and "phase" in text


def test_cli_synth_json(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert {"c1", "c2", "compensator", "closed_loop_poles",
            "gain_margin_db", "phase_margin_deg"} <= set(obj)
    assert all(p[0] < 0.0 for p in obj["closed_loop_poles"])


def test_cli_sim_scenario(tmp_path, capsys):
    cfg = _write_project(tmp_path)
    assert main(["sim", "quick", "--config", cfg]) == 0
    out = tmp_path / "out"
    csv = out / "trace_quick.csv"
    assert csv.exists()
    assert (out / "trace_quick.svg").exists()
    header = csv.read_text().splitlines()[0]
    assert header == ",".join(TRACE_CHANNELS)


def test_cli_sim_fig10_narrow_json(tmp_path, capsys):
    assert main(["sim", "fig10_narrow", "--json", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert set(obj) == {"checks"}
    (check,) = obj["checks"]
    assert set(check) == {"preset", "check", "passed", "detail"}
    assert (check["preset"], check["check"], check["passed"]) == (
        "fig10_narrow", "frf_matches_theory", True)
    assert "coherent points" in check["detail"]


def test_cli_sim_scenario_json(tmp_path, capsys):
    cfg = _write_project(tmp_path)
    assert main(["sim", "quick", "--config", cfg, "--json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["checks"] == []
    steps = sum(report["stats"][k] for k in ("closed_block", "upper_block",
                                             "lower_block", "closed_single",
                                             "clamped_single"))
    assert set(report) == {"checks", "stats"} and steps > 0
    assert report["stats"]["saturation_rad_s"] > 0
    assert captured.err.startswith("wrote ")


def test_cli_sim_seed_override(tmp_path):
    cfg = _write_project(tmp_path)

    def run(seed, tag):
        out = tmp_path / tag
        code = main(["sim", "quick", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)])
        assert code == 0
        return (out / "trace_quick.csv").read_bytes()

    assert run(5, "a") == run(5, "b")
    assert run(5, "c") != run(6, "d")


def test_cli_sim_seed_keeps_noise_offset(tmp_path):
    noise = {"kind": "white_noise", "variance": 1e-6, "seed": 9, "offset": 0.25}
    quick = {"type": "torque_loop", "noise": noise, "dt_s": 1e-3,
             "duration_s": 0.5}
    cfg = _write_project(tmp_path, scenarios={"quick": quick})
    out = tmp_path / "seeded"
    assert main(["sim", "quick", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    data = np.loadtxt(out / "trace_quick.csv", delimiter=",", skiprows=1)
    n = data[:, TRACE_CHANNELS.index("n")]
    expected = 0.25 + 1e-3 * np.random.default_rng(7).standard_normal(len(n))
    np.testing.assert_allclose(n, expected, rtol=1e-8, atol=0)


def test_cli_sim_seed_reseeds_handle_motion(tmp_path):
    motion = {"kind": "white_noise", "variance": 1e-4, "seed": 9}
    imp = {"type": "impedance", "handle_motion": motion, "i_d": 0.02,
           "dt_s": 1e-3, "duration_s": 0.5}
    cfg = _write_project(tmp_path, scenarios={"imp": imp})

    def run(seed, tag):
        out = tmp_path / tag
        assert main(["sim", "imp", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)]) == 0
        return (out / "trace_imp.csv").read_bytes()

    assert run(5, "a") == run(5, "b")
    assert run(5, "c") != run(6, "d")


def test_cli_seed_only_on_commands_with_noise(tmp_path, capsys):
    from seakit.cli import _build_parser

    for argv in (["plant"], ["synth"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    for command in ("sim", "reproduce"):
        argv = [command, "fig9"] if command == "sim" else [command]
        assert _build_parser().parse_args(argv + ["--seed", "3"]).seed == 3


def test_cli_output_error_has_its_own_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["plant", "--out", str(blocker / "sub")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert len(err.strip().splitlines()) == 1


def test_cli_has_no_bode_command(tmp_path, capsys):
    # bode and bode --narrow were aliases of sim fig10 and sim fig10_narrow
    with pytest.raises(SystemExit) as exc:
        main(["bode", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'bode'" in capsys.readouterr().err


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_cli_preset_commands_exit_4_on_failed_check(
    tmp_path, monkeypatch, capsys, preset
):
    from seakit import CheckResult
    import seakit.cli as cli

    verdicts = []

    def fake_run_preset(name, cfg, out_dir, seed=None):
        assert name == preset
        return [CheckResult(name, "first", True, "ok"),
                CheckResult(name, "second", verdicts[-1], "-")]

    monkeypatch.setattr(cli, "run_preset", fake_run_preset)
    argv = ["sim", preset, "--out", str(tmp_path)]
    verdicts.append(True)
    assert main(argv) == 0
    verdicts.append(False)
    assert main(argv) == 4
    assert f"[FAIL] {preset}/second" in capsys.readouterr().out
    assert main(argv + ["--json"]) == 4
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["passed"] for c in checks] == [True, False]


def test_cli_json_reports_of_the_real_runs(tmp_path, capsys):
    # the stubbed tests above pass Python bools; the real checks compare
    # numpy floats, and their numpy bools used to stop json.dumps with a
    # TypeError (exit 1)
    t0 = time.perf_counter()
    for argv in [["sim", name] for name in PRESET_NAMES] + [["reproduce"]]:
        code = main(argv + ["--json", "--out", str(tmp_path / argv[-1])])
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = [f"{c['preset']}/{c['check']}" for c in checks if not c["passed"]]
        # criterion 9's phase band, red by design, runs in fig10
        red = ["fig10/phase_lag_plausible"] if argv[-1] in ("fig10", "reproduce") else []
        assert checks and failed == red, (argv, failed)
        assert code == (4 if red else 0), argv
    wall = time.perf_counter() - t0
    assert wall < 60.0  # about 6 s on a 2-core box


def test_cli_reproduce_json(tmp_path, monkeypatch, capsys):
    from seakit import CheckResult
    import seakit.cli as cli

    results = [CheckResult("fig6", "a", True, "ok"),
               CheckResult("fig10", "b", False, "-")]
    monkeypatch.setattr(cli, "run_reproduce", lambda cfg, out, seed=None: results)
    assert main(["reproduce", "--json", "--out", str(tmp_path)]) == 4
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"checks": [
        {"preset": "fig6", "check": "a", "passed": True, "detail": "ok"},
        {"preset": "fig10", "check": "b", "passed": False, "detail": "-"},
    ]}


def test_cli_sim_unknown_scenario(tmp_path, capsys):
    cfg = _write_project(tmp_path)
    out = tmp_path / "o2"  # it used to be made, and left empty
    assert main(["sim", "nope", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "quick" in err and "fig10" in err
    assert not out.exists()


def test_cli_rejects_a_scenario_named_after_a_preset(tmp_path, capsys):
    # sim fig6 used to run the preset and exit 0, ignoring the scenario
    cfg = _write_project(tmp_path, scenarios={"fig6": {"duration_s": 0.01,
                                                       "dt_s": 1e-3}})
    out = tmp_path / "out"
    assert main(["sim", "fig6", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: config.scenarios.fig6 " in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_scenario_name_that_is_no_file_stem(tmp_path, capsys):
    # "a/b" used to load; sim then made --out and exited 5 on the missing
    # directory of 'trace_a/b.csv'.  "" wrote trace_.csv
    body = {"duration_s": 0.01, "dt_s": 1e-3}
    for name in ("a/b", "", os.sep + "x", "x" + os.sep):
        with pytest.raises(ConfigError, match=r"^config\.scenarios: name "):
            parse_config({"scenarios": {name: body}})
        cfg = _write_project(tmp_path, scenarios={name: body})
        out = tmp_path / "o"
        assert main(["sim", name, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.scenarios: name ")
        assert not out.exists()
    parse_config({"scenarios": {"a.b-c_d e": body}})


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"plant": {"mass": 1.0}}))
    assert main(["plant", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
