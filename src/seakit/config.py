"""Strict JSON configuration files, and the controller-bundle writer.

Configs describe the plant parameters, synthesis weights, and named
scenarios; they never contain computed results.  Parsing is strict:
unknown keys anywhere are an error, because a typo in a physics
parameter that silently falls back to a default is the worst possible
failure mode for a reproduction toolkit.  A scenario is checked when
it loads, by the simulator's own model-free checks (step, duration,
velocity limit, and i_d for an impedance scenario), and the error names
the field: config.scenarios.<name>.<field>.

A config is only read: _read_json maps one that cannot be opened or
parsed to ConfigError ("cannot read ..." / "invalid JSON in ..."), and
_parse_numbers translates its {"rho", "lambda", "k"} weights object to
SynthesisWeights and its plant object to SeaParams.  A bundle is only
written: write_bundle writes the synthesized coefficient arrays, the
weights (_dump_numbers) and a fingerprint of the plant they were
designed for, so a stale bundle is detectable, as indent-2 JSON with LF
line endings and a trailing newline.  Both formats carry format_version
1 (FORMAT_VERSION); a config may omit it.
The key lists of scenarios are the field lists of their dataclasses.

write_csv is the package's one writer of numeric CSV tables.  The
numerics are single-process; write_csv shares the text of a large table
with one forked helper, byte for byte as one process writes it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .plant import SeaParams, default_params
from .simulation import (
    ImpedanceScenario,
    PiController,
    SignalSpec,
    TorqueLoopScenario,
    _SIGNAL_FIELDS,
    _check_i_d,
    _check_timing,
)
from .synthesis import SynthesisWeights, TwoDofController
from .transfer import RationalTF

__all__ = [
    "ConfigError",
    "ScenarioDef",
    "ProjectConfig",
    "parse_config",
    "load_config",
    "write_bundle",
    "params_fingerprint",
    "write_csv",
]

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration content."""


def _names(cls, *skip: str) -> tuple[str, ...]:
    """Field names of a dataclass, in declaration order."""
    return tuple(f.name for f in dc_fields(cls) if f.name not in skip)


def _check_keys(d: dict, allowed, ctx: str) -> None:
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {ctx}")


def _get_num(d: dict, key: str, ctx: str, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {ctx}")
        return default
    v = d[key]
    if not _is_number(v):
        raise ConfigError(f"{ctx}.{key} must be a number")
    return float(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


# JSON key -> field, for the two objects that hold only numbers.  The
# weights key "lambda" is a Python keyword; plant keys are sorted.
_PLANT_KEYS = {name: name for name in sorted(_names(SeaParams))}
_WEIGHT_KEYS = {"rho": "rho", "lambda": "lam", "k": "k"}
_DEFAULT_WEIGHTS = SynthesisWeights(rho=5e-4, lam=1.0, k=1.0)


def _parse_numbers(d, ctx: str, cls, keys: dict, base):
    """A cls from a JSON object of numbers; a missing key takes its value
    from base."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be an object")
    _check_keys(d, keys, ctx)
    kw = {
        attr: _get_num(d, key, ctx, getattr(base, attr))
        for key, attr in keys.items()
    }
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _dump_numbers(obj, keys: dict) -> dict:
    return {key: getattr(obj, attr) for key, attr in keys.items()}


def _parse_signal(d, ctx: str) -> SignalSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{ctx} must be an object with a 'kind' key")
    kind = d["kind"]
    if kind not in _SIGNAL_FIELDS:
        raise ConfigError(f"{ctx}.kind {kind!r} unknown")
    _check_keys(d, {"kind", *_SIGNAL_FIELDS[kind]}, ctx)
    kw = {}
    for name in _SIGNAL_FIELDS[kind]:
        if name not in d:
            continue
        if name == "seed":
            if not isinstance(d[name], int) or isinstance(d[name], bool):
                raise ConfigError(f"{ctx}.seed must be an integer")
            kw[name] = d[name]
        elif name == "breakpoints":
            pairs = d[name]
            if not isinstance(pairs, list) or not all(
                isinstance(bp, list) and len(bp) == 2 and all(map(_is_number, bp))
                for bp in pairs
            ):
                raise ConfigError(f"{ctx}.breakpoints must be [t, value] number pairs")
            kw[name] = tuple((float(t), float(v)) for t, v in pairs)
        else:
            kw[name] = _get_num(d, name, ctx)
    try:
        return SignalSpec(kind=kind, **kw)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


_PI_KEYS = _names(PiController)
_SCENARIO_KINDS = ("torque_loop", "impedance")  # the JSON "type" of a scenario


def _parse_controller(raw, ctx: str):
    if raw == "two_dof":
        return "two_dof"
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx} must be 'two_dof' or a pi object")
    _check_keys(raw, {"type", *_PI_KEYS}, ctx)
    if raw.get("type") != "pi":
        raise ConfigError(f"{ctx}.type must be 'pi'")
    try:
        return PiController(**{k: _get_num(raw, k, ctx) for k in _PI_KEYS})
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioDef:
    """Declarative scenario: everything but the plant and the controller
    instance, which are materialized from the config at run time.

    controller is the string "two_dof" (use the synthesized pair) or a
    PiController.  kind is "torque_loop" or "impedance"; an impedance
    scenario additionally uses phi_ref and i_d, which must then be
    positive, and a torque loop keeps i_d at 0.  Construction runs the
    simulator's model-free checks, so a bad field fails when the config
    loads.
    """

    kind: str = "torque_loop"
    controller: object = "two_dof"
    reference: SignalSpec = field(default_factory=SignalSpec.zero)
    disturbance: SignalSpec = field(default_factory=SignalSpec.zero)
    noise: SignalSpec = field(default_factory=SignalSpec.zero)
    handle_motion: SignalSpec = field(default_factory=SignalSpec.zero)
    phi_ref: SignalSpec = field(default_factory=SignalSpec.zero)
    compensator_on: bool = False
    saturation_rad_s: float = 50.0
    dt_s: float = 1e-4
    duration_s: float = 10.0
    i_d: float = 0.0

    def __post_init__(self):
        if self.kind not in _SCENARIO_KINDS:
            raise ValueError(
                f"kind must be 'torque_loop' or 'impedance', not {self.kind!r}"
            )
        _check_timing(self.dt_s, self.duration_s, self.saturation_rad_s)
        if self.kind == "impedance":
            _check_i_d(self.i_d)
        elif self.i_d != 0.0:
            raise ValueError("i_d applies only to an impedance scenario")

    def materialize(self, model, two_dof: TwoDofController):
        """Bind to a plant and controller, yielding a runnable scenario."""
        kw = {name: getattr(self, name) for name in _TORQUE_FIELDS}
        if self.controller == "two_dof":
            kw["controller"] = two_dof
        ts = TorqueLoopScenario(model=model, **kw)
        if self.kind == "impedance":
            return ImpedanceScenario(
                ts, **{name: getattr(self, name) for name in _IMPEDANCE_FIELDS}
            )
        return ts


# A ScenarioDef holds the fields of both scenario classes but the plant
# and the inner torque scenario; its kind is the JSON key "type", and the
# JSON keys follow the field order.
_TORQUE_FIELDS = _names(TorqueLoopScenario, "model")
_IMPEDANCE_FIELDS = _names(ImpedanceScenario, "torque_scenario")
_SCENARIO_FIELDS = _names(ScenarioDef, "kind")
_SCENARIO_DEFAULTS = ScenarioDef()


def _parse_scenario(d, ctx: str) -> ScenarioDef:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be an object")
    _check_keys(d, {"type", *_SCENARIO_FIELDS}, ctx)
    kind = d.get("type", "torque_loop")
    if kind not in _SCENARIO_KINDS:
        raise ConfigError(f"{ctx}.type must be 'torque_loop' or 'impedance'")
    if kind == "torque_loop" and any(name in d for name in _IMPEDANCE_FIELDS):
        raise ConfigError(
            f"{ctx}: {'/'.join(_IMPEDANCE_FIELDS)} only apply to impedance scenarios"
        )
    kw = {"kind": kind}
    for name in _SCENARIO_FIELDS:
        if name not in d:
            continue
        default = getattr(_SCENARIO_DEFAULTS, name)
        if name == "controller":
            kw[name] = _parse_controller(d[name], f"{ctx}.{name}")
        elif isinstance(default, SignalSpec):
            kw[name] = _parse_signal(d[name], f"{ctx}.{name}")
        elif isinstance(default, bool):
            if not isinstance(d[name], bool):
                raise ConfigError(f"{ctx}.{name} must be a boolean")
            kw[name] = d[name]
        else:
            kw[name] = _get_num(d, name, ctx)
    try:
        return ScenarioDef(**kw)
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(f"{ctx}.{exc}") from exc


@dataclass(frozen=True)
class ProjectConfig:
    """Parsed project file: plant, weights, named scenarios, output dir."""

    plant: SeaParams = field(default_factory=default_params)
    weights: SynthesisWeights = _DEFAULT_WEIGHTS
    scenarios: dict = field(default_factory=dict)
    output_dir: str = "out"


def parse_config(raw: dict) -> ProjectConfig:
    """Validate and convert a decoded JSON object.

    Raises ConfigError on any unknown key, missing required key, wrong
    type, unsupported format_version, or physical-invariant violation.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, {"format_version", *_names(ProjectConfig)}, "config")
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}")
    params = _parse_numbers(
        raw.get("plant", {}), "config.plant", SeaParams, _PLANT_KEYS, default_params()
    )
    weights = _parse_numbers(
        raw.get("weights", {}), "config.weights", SynthesisWeights, _WEIGHT_KEYS,
        _DEFAULT_WEIGHTS,
    )

    sd = raw.get("scenarios", {})
    if not isinstance(sd, dict):
        raise ConfigError("config.scenarios must be an object")
    scenarios = {
        name: _parse_scenario(body, f"config.scenarios.{name}")
        for name, body in sd.items()
    }

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config.output_dir must be a non-empty string")
    return ProjectConfig(
        plant=params,
        weights=weights,
        scenarios=scenarios,
        output_dir=output_dir,
    )


def load_config(path: str) -> ProjectConfig:
    return parse_config(_read_json(path))


def params_fingerprint(params: SeaParams) -> str:
    """Short stable hash of the plant parameters a bundle was built for."""
    blob = json.dumps(
        {k: repr(getattr(params, k)) for k in _PLANT_KEYS},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_bundle(
    path: str, ctrl: TwoDofController, cl: RationalTF, params: SeaParams
) -> None:
    """controller.json: weights, C1/C2/C_L coefficient arrays, plant fingerprint."""
    obj = {"format_version": FORMAT_VERSION,
           "weights": _dump_numbers(ctrl.weights, _WEIGHT_KEYS)}
    for tag, tf in (("c1", ctrl.c1), ("c2", ctrl.c2), ("cl", cl)):
        obj[f"{tag}_num"] = tf.num.coeffs.tolist()
        obj[f"{tag}_den"] = tf.den.coeffs.tolist()
    obj["plant_fingerprint"] = params_fingerprint(params)
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


_CSV_BLOCK_ROWS = 4096


def _csv_blocks(rows: np.ndarray, line: str):
    """The CSV text of rows, one %-operation per _CSV_BLOCK_ROWS rows."""
    for i in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[i:i + _CSV_BLOCK_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_csv(path: str, header: list[str], columns: list) -> None:
    """Numeric columns as CSV: 9 significant digits, LF line endings.

    Rows are formatted a block at a time with one %-operation per block.
    From 4 * _CSV_BLOCK_ROWS rows up, on a host with os.fork and 2 usable
    CPUs, a forked helper writes the first half of the rows through the
    shared descriptor while this process formats the second half, which
    it writes once the helper is reaped; the bytes are those of the
    one-process loop.  The helper is reaped before this returns or
    raises, and if it failed, OSError names the path.  It makes no BLAS
    call and takes no lock, so CPython's warning (Python >= 3.12) about
    fork in a process with threads, such as OpenBLAS's, does not apply.

    Tables that mix text and numbers (plant.csv, summary.csv) are written
    by the commands that make them.
    """
    rows = np.column_stack(columns)
    line = ",".join(["%.9g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if len(rows) < 4 * _CSV_BLOCK_ROWS or not hasattr(os, "fork") \
                or _usable_cpus() < 2:
            fh.writelines(_csv_blocks(rows, line))
            return
        fh.flush()  # the helper inherits a copy of fh's buffer
        half = len(rows) // 2
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                fh.writelines(_csv_blocks(rows[:half], line))
                fh.flush()  # os._exit does not flush
                status = 0
            finally:
                os._exit(status)
        try:
            tail = list(_csv_blocks(rows[half:], line))
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"cannot write {path}: the CSV helper process exited "
                          f"with status {os.waitstatus_to_exitcode(status)}")
        fh.writelines(tail)
