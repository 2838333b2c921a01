"""Unit tests for config parsing, controller bundles, and the CLI."""

import json

import numpy as np
import pytest

from seakit import (
    ConfigError,
    PiController,
    ProjectConfig,
    ScenarioDef,
    SignalSpec,
    SynthesisWeights,
    TRACE_CHANNELS,
    build_compensator,
    build_plant,
    bundle_from_synthesis,
    default_params,
    dump_config,
    h2_synthesize,
    load_config,
    parse_config,
    params_fingerprint,
    read_bundle,
    save_config,
    write_bundle,
)
from seakit.cli import main
from seakit.config import write_csv


# ---------------------------------------------------------------- config


def test_parse_empty_config_uses_defaults():
    cfg = parse_config({})
    assert cfg.plant == default_params()
    assert cfg.weights == SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)
    assert cfg.scenarios == {}
    assert cfg.output_dir == "out"


def test_config_round_trip():
    cfg = ProjectConfig(
        weights=SynthesisWeights(rho=1e-3, lam=2.0, k=0.5),
        scenarios={
            "track": ScenarioDef(
                reference=SignalSpec.sine(0.033, 2.0),
                noise=SignalSpec.white_noise(0.01, seed=4),
                duration_s=3.0,
            ),
            "render": ScenarioDef(
                kind="impedance",
                controller=PiController(204.0, 111.0),
                handle_motion=SignalSpec.sine(0.5, 2.0),
                i_d=0.5,
                phi_ref=SignalSpec.constant(0.1),
            ),
        },
        output_dir="results",
    )
    assert parse_config(dump_config(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = ProjectConfig(
        scenarios={"quick": ScenarioDef(duration_s=1.0, dt_s=1e-3)}
    )
    path = tmp_path / "project.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    assert b"\r" not in path.read_bytes()


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
    round_trip = dump_config(cfg)
    assert round_trip["weights"]["lambda"] == 3.0
    assert "lam" not in round_trip["weights"]


def test_plant_overlay_keeps_other_defaults():
    cfg = parse_config({"plant": {"k_s": 0.1}})
    assert cfg.plant.k_s == 0.1
    assert cfg.plant.j_a == default_params().j_a
    with pytest.raises(ConfigError):
        parse_config({"plant": {"k_s": -1.0}})  # physical invariant


def test_format_version_is_enforced():
    with pytest.raises(ConfigError, match="format_version"):
        parse_config({"format_version": 999})


def test_impedance_fields_rejected_on_torque_loop():
    with pytest.raises(ConfigError, match="i_d"):
        parse_config({"scenarios": {"a": {"type": "torque_loop", "i_d": 0.5}}})
    parse_config({"scenarios": {"a": {"type": "impedance", "i_d": 0.5}}})


def test_scenario_fields_checked_at_load():
    bad = [
        ("i_d", {"type": "impedance"}),
        ("i_d", {"type": "impedance", "i_d": 0.0}),
        ("dt_s", {"dt_s": -1e-4}),
        ("saturation_rad_s", {"saturation_rad_s": 0.0}),
        ("duration_s", {"dt_s": 1e-3, "duration_s": 5e-3}),
    ]
    for field, body in bad:
        with pytest.raises(ConfigError) as err:
            parse_config({"scenarios": {"s": body}})
        assert str(err.value).startswith(f"config.scenarios.s.{field} ")
    with pytest.raises(ValueError, match="i_d"):
        ScenarioDef(kind="impedance")


def test_scenario_def_rejects_unknown_kind():
    # a misspelt kind used to materialize a torque loop, and save_config
    # wrote a "type" that load_config then rejected
    with pytest.raises(ValueError, match="^kind .*'impedence'"):
        ScenarioDef(kind="impedence", i_d=0.5)


def test_scenario_def_rejects_i_d_on_a_torque_loop():
    # a torque loop has no virtual spring; its i_d used to be dropped
    with pytest.raises(ValueError, match="^i_d "):
        ScenarioDef(kind="torque_loop", i_d=0.5)
    ScenarioDef(kind="torque_loop", i_d=0.0)


def test_cli_rejects_impedance_scenario_without_i_d(tmp_path, capsys):
    path = tmp_path / "imp.json"
    path.write_text(json.dumps({"scenarios": {"imp": {"type": "impedance"}}}))
    assert main(["sim", "imp", "--config", str(path)]) == 2
    assert "config error: config.scenarios.imp.i_d" in capsys.readouterr().err


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


def test_params_fingerprint_stability():
    p = default_params()
    assert params_fingerprint(p) == params_fingerprint(default_params())
    import dataclasses

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
    params, _, ctrl, comp = synth_pieces
    bundle = bundle_from_synthesis(ctrl, comp, params)
    path = tmp_path / "controller.json"
    write_bundle(bundle, str(path))
    loaded = read_bundle(str(path))
    assert loaded == bundle
    np.testing.assert_array_equal(loaded.c1().num.coeffs, ctrl.c1.num.coeffs)
    np.testing.assert_array_equal(loaded.c2().den.coeffs, ctrl.c2.den.coeffs)
    np.testing.assert_array_equal(loaded.cl().num.coeffs, comp.num.coeffs)
    assert loaded.plant_fingerprint == params_fingerprint(params)


def test_bundle_validation(synth_pieces):
    params, _, ctrl, comp = synth_pieces
    bundle = bundle_from_synthesis(ctrl, comp, params)
    import dataclasses

    with pytest.raises(ConfigError, match="denominator"):
        dataclasses.replace(bundle, c1_den=tuple(2 * c for c in bundle.c1_den))
    with pytest.raises(ConfigError, match="leading"):
        dataclasses.replace(
            bundle,
            c1_den=(0.0,) + bundle.c1_den[1:],
            c2_den=(0.0,) + bundle.c2_den[1:],
        )


def test_read_bundle_errors(tmp_path, synth_pieces):
    params, _, ctrl, comp = synth_pieces
    bundle = bundle_from_synthesis(ctrl, comp, params)
    path = tmp_path / "b.json"
    write_bundle(bundle, str(path))
    obj = json.loads(path.read_text())

    def rewrite(mutate):
        o = json.loads(path.read_text())
        mutate(o)
        path.write_text(json.dumps(o))

    rewrite(lambda o: o.update(extra_field=1))
    with pytest.raises(ConfigError, match="unknown key"):
        read_bundle(str(path))
    rewrite(lambda o: (o.clear(), o.update(obj), o.pop("c2_num")))
    with pytest.raises(ConfigError, match="missing"):
        read_bundle(str(path))
    rewrite(lambda o: (o.clear(), o.update(obj), o.update(format_version=0)))
    with pytest.raises(ConfigError, match="format_version"):
        read_bundle(str(path))
    rewrite(lambda o: (o.clear(), o.update(obj), o.update(c1_num=[])))
    with pytest.raises(ConfigError, match="nonempty"):
        read_bundle(str(path))


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
    bundle = read_bundle(str(out / "controller.json"))
    assert bundle.plant_fingerprint == params_fingerprint(default_params())
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


def test_cli_bode_narrow_json(tmp_path, capsys):
    assert main(["bode", "--narrow", "--json", "--out", str(tmp_path)]) == 0
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
    assert json.loads(captured.out) == {"checks": []}
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


def test_cli_output_error_has_its_own_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["plant", "--out", str(blocker / "sub")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, preset",
    [(["sim", "fig9"], "fig9"), (["bode"], "fig10"),
     (["bode", "--narrow"], "fig10_narrow")],
)
def test_cli_preset_commands_exit_4_on_failed_check(
    tmp_path, monkeypatch, capsys, argv, preset
):
    from seakit import CheckResult
    import seakit.cli as cli

    verdicts = []

    def fake_run_preset(name, cfg, out_dir, seed=None):
        assert name == preset
        return [CheckResult(name, "first", True, "ok"),
                CheckResult(name, "second", verdicts[-1], "-")]

    monkeypatch.setattr(cli, "run_preset", fake_run_preset)
    argv = argv + ["--out", str(tmp_path)]
    verdicts.append(True)
    assert main(argv) == 0
    verdicts.append(False)
    assert main(argv) == 4
    assert f"[FAIL] {preset}/second" in capsys.readouterr().out
    assert main(argv + ["--json"]) == 4
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["passed"] for c in checks] == [True, False]


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
    assert main(["sim", "nope", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "quick" in err and "fig10" in err


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"plant": {"mass": 1.0}}))
    assert main(["plant", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
