"""Command-line front end.

Subcommands: plant (print/export the model), synth (write a controller
bundle and report), sim (run a named scenario or preset; the chirp FRF
comparisons are the presets fig10 and fig10_narrow), reproduce (all
presets plus a pass/fail summary).

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure, 4 acceptance failure (a preset check failed: sim PRESET,
reproduce), 5 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import (
    ConfigError,
    ProjectConfig,
    load_config,
    write_bundle,
    write_csv,
)
from .errors import NumericsError
from .identify import loop_margins
from .plant import build_plant
from .polynomials import format_poly, roots
from .presets import PRESET_NAMES, _reseed, run_preset, run_reproduce
from .simulation import (
    ImpedanceScenario,
    SignalSpec,
    simulate_impedance,
    simulate_torque_loop,
    trace_to_csv,
)
from .svgplot import Curve, plot_lines
from .synthesis import build_compensator, h2_synthesize
from .transfer import RationalTF, poles, zeros

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_ACCEPTANCE = 4
EXIT_IO = 5


def _load(args) -> ProjectConfig:
    if args.config:
        return load_config(args.config)
    return ProjectConfig()


def _out_dir(args, cfg: ProjectConfig) -> str:
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _tf_json(tf: RationalTF) -> dict:
    return {"num": tf.num.coeffs.tolist(), "den": tf.den.coeffs.tolist()}


def _print_tf(name: str, tf: RationalTF) -> None:
    print(f"{name}(s) = [{format_poly(tf.num)}] / [{format_poly(tf.den)}]")


def cmd_plant(args) -> int:
    cfg = _load(args)
    model = build_plant(cfg.plant)
    out = _out_dir(args, cfg)
    if args.json:
        print(json.dumps({"P": _tf_json(model.P), "G": _tf_json(model.G)}, indent=2))
    else:
        _print_tf("P", model.P)
        _print_tf("G", model.G)
        for name, tf in (("P", model.P), ("G", model.G)):
            print(f"{name} poles: {np.round(poles(tf), 6).tolist()}")
            print(f"{name} zeros: {np.round(zeros(tf), 6).tolist()}")
    # A mixed text/number table, so not config.write_csv.
    path = os.path.join(out, "plant.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("element,s_power,coefficient\n")
        for name, poly in (("P_num", model.P.num), ("P_den", model.P.den),
                           ("G_num", model.G.num), ("G_den", model.G.den)):
            for i, c in enumerate(poly.coeffs):
                fh.write(f"{name},{poly.degree - i},{'%.9g' % c}\n")
    # keep stdout pure JSON under --json
    print(f"wrote {path}", file=sys.stderr if args.json else sys.stdout)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load(args)
    model = build_plant(cfg.plant)
    ctrl = h2_synthesize(model.P, cfg.weights)
    comp = build_compensator(model, ctrl)
    out = _out_dir(args, cfg)

    bundle_path = os.path.join(out, "controller.json")
    write_bundle(bundle_path, ctrl, comp, cfg.plant)

    char = ctrl.d_rho * ctrl.d_lambda_k
    cl_poles = roots(char)
    gm, pm = loop_margins(model.P * ctrl.c2)
    pole_re = np.array([p.real for p in cl_poles])
    pole_im = np.array([p.imag for p in cl_poles])
    write_csv(
        os.path.join(out, "closed_loop_poles.csv"),
        ["re_rad_s", "im_rad_s"],
        [pole_re, pole_im],
    )
    if args.json:
        print(
            json.dumps(
                {
                    "c1": _tf_json(ctrl.c1),
                    "c2": _tf_json(ctrl.c2),
                    "compensator": _tf_json(comp),
                    "closed_loop_poles": [[p.real, p.imag] for p in cl_poles],
                    "gain_margin_db": gm,
                    "phase_margin_deg": pm,
                },
                indent=2,
            )
        )
    else:
        _print_tf("C1", ctrl.c1)
        _print_tf("C2", ctrl.c2)
        _print_tf("C_L", comp)
        print("closed-loop poles (rad/s):")
        for p in cl_poles:
            print(f"  {p.real:+.4f} {p.imag:+.4f}j")
        print(f"feedback-loop margins: gain {gm:.2f} dB, phase {pm:.2f} deg")
        print(f"wrote {bundle_path}")
    if np.any(pole_re >= 0.0):
        print("error: closed-loop pole in the right half-plane", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def _print_json_checks(results) -> None:
    """The --json report of a preset command: one object, its checks."""
    print(json.dumps({"checks": [asdict(r) for r in results]}, indent=2))


def _verdict(results) -> int:
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE


def cmd_sim(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    name = args.scenario
    if name in PRESET_NAMES:
        results = run_preset(name, cfg, os.path.join(out, name), seed=args.seed)
        if args.json:
            _print_json_checks(results)
        else:
            for r in results:
                status = "pass" if r.passed else "FAIL"
                print(f"[{status}] {r.preset}/{r.check}: {r.detail}")
        return _verdict(results)
    if name not in cfg.scenarios:
        known = sorted(cfg.scenarios) + list(PRESET_NAMES)
        print(
            f"error: unknown scenario {name!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    model = build_plant(cfg.plant)
    ctrl = h2_synthesize(model.P, cfg.weights)
    sc = _reseed(cfg.scenarios[name].materialize(model, ctrl), args.seed)
    impedance = isinstance(sc, ImpedanceScenario)
    trace = simulate_impedance(sc) if impedance else simulate_torque_loop(sc)
    csv_path = os.path.join(out, f"trace_{name}.csv")
    trace_to_csv(trace, csv_path)
    plot_lines(
        os.path.join(out, f"trace_{name}.svg"),
        [
            Curve(trace.t, trace.channel("r"), "reference"),
            Curve(trace.t, trace.channel("tau_L"), "tau_L"),
        ],
        xlabel="time (s)",
        ylabel="torque (Nm)",
        title=f"Scenario {name}",
    )
    if args.json:  # a config scenario carries no checks, only its run's stats
        print(json.dumps({"checks": [], "stats": asdict(trace.stats)}, indent=2))
    print(f"wrote {csv_path}", file=sys.stderr if args.json else sys.stdout)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    results = run_reproduce(cfg, out, seed=args.seed)
    if args.json:
        _print_json_checks(results)
        return _verdict(results)
    width = max(len(f"{r.preset}/{r.check}") for r in results)
    print(f"\n{'check'.ljust(width)}  status  detail")
    for r in results:
        status = "pass " if r.passed else "FAIL "
        print(f"{(r.preset + '/' + r.check).ljust(width)}  {status}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return _verdict(results)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seakit",
        description=(
            "Controller synthesis and closed-loop simulation for a "
            "velocity-sourced series elastic actuator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON project config (defaults otherwise)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("plant", help="print and export the plant model")
    common(p)
    p.set_defaults(func=cmd_plant)

    p = sub.add_parser("synth", help="synthesize the controller bundle")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sim", help="run one scenario or preset")
    common(p)
    p.add_argument("--seed", type=int, help="override noise seeds")
    p.add_argument("scenario", help="scenario name from config, or a preset")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("reproduce", help="run every preset and summarize")
    common(p)
    p.add_argument("--seed", type=int, help="override noise seeds")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # a bad seed fails before any run
            SignalSpec.white_noise(1.0, args.seed)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # config reads raise ConfigError; this is output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
