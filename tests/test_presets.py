"""Preset outputs checked against the analytic quantities they report."""

import numpy as np

from seakit import (
    CheckResult,
    ProjectConfig,
    build_plant,
    h2_synthesize,
    run_preset,
    torque_loop_maps,
)


def test_fig6_bound_is_taken_on_the_jw_axis(tmp_path):
    cfg = ProjectConfig()
    run_preset("fig6", cfg, str(tmp_path))
    lines = (tmp_path / "rms_table.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "frequency_domain_bound"
    written = [line.split(",")[2] for line in lines[1:]]

    model = build_plant(cfg.plant)
    g1, h_phi = torque_loop_maps(
        model, h2_synthesize(model.P, cfg.weights), with_compensator=True
    )
    s = 2j * np.pi * 2.0  # the 2 Hz handle motion, at s = j 4 pi
    expected = []
    for frac in (0.2, 0.6, 1.0, 1.4):
        i_d = frac * cfg.plant.k_s
        expected.append("%.9g" % (abs((1.0 - g1(s)) * i_d + h_phi(s)) / i_d))
    assert written == expected


def test_fig9_reports_clamped_samples_per_controller(tmp_path):
    (check,) = run_preset("fig9", ProjectConfig(), str(tmp_path))
    assert check.detail.endswith(
        "velocity clamp: 2-DOF 0, PI 1610 of 100001 samples"
    )


def test_check_verdicts_are_python_bools():
    # a verdict is often a numpy comparison; json.dumps rejects numpy bools
    check = CheckResult("fig6", "x", np.float64(1.0) <= np.float64(2.0), "-")
    assert type(check.passed) is bool and check.passed
