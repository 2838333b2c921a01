"""Strict JSON configuration files, and the controller-bundle writer.

Configs describe the plant parameters, synthesis weights, and named
scenarios; they never contain computed results.  Parsing is strict:
unknown keys anywhere are an error, because a typo in a physics
parameter that silently falls back to a default is the worst possible
failure mode for a reproduction toolkit.  A named scenario loads as the
one simulator scenario type, TorqueLoopScenario, bound at parse time to
the config's plant and, for the controller "two_dof", to the pair
synthesized from the config's weights (designed at most once per parse,
and only when some scenario asks for it).  Its JSON keys are the fields
of that type but the plant and the load, plus "type", which is
"impedance" exactly when it sets i_d.  So every check of
TorqueLoopScenario runs when the config loads, and the error names the
field: config.scenarios.<name>.<field>.

A config is only read: _read_json maps one that cannot be opened or
parsed to ConfigError ("cannot read ..." / "invalid JSON in ..."), and
_parse_numbers translates its {"rho", "lambda", "k"} weights object to
SynthesisWeights and its plant object to SeaParams.  A bundle is only
written: write_bundle writes the synthesized coefficient arrays, the
weights (_dump_numbers) and a fingerprint of the plant they were
designed for, so a stale bundle is detectable, as indent-2 JSON with LF
line endings and a trailing newline.  Both formats carry format_version
1 (FORMAT_VERSION); a config may omit it.

write_csv is the package's one writer of numeric CSV tables.  The
numerics are single-process; write_csv shares the text of a large table
with one forked helper, byte for byte as one process writes it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .plant import SeaParams, build_plant, default_params
from .simulation import PiController, SignalSpec, TorqueLoopScenario, _SIGNAL_FIELDS
from .synthesis import SynthesisWeights, TwoDofController, h2_synthesize
from .transfer import RationalTF

__all__ = [
    "ConfigError",
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
    """An int or float with a float value (a JSON integer of 1e400 has none)."""
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


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
        if name == "seed":  # SignalSpec checks that it is an integer
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


# A scenario's JSON keys are the fields of a TorqueLoopScenario but the
# plant and the load, in declaration order, plus "type", which says
# whether it has an i_d.
_SCENARIO_FIELDS = _names(TorqueLoopScenario, "model", "load")
_SCENARIO_SIGNALS = {f.name for f in dc_fields(TorqueLoopScenario)
                     if f.default_factory == SignalSpec.zero}
_IMPEDANCE_FIELDS = ("i_d", "phi_ref")


def _parse_scenario(d, ctx: str, model, design) -> TorqueLoopScenario:
    """The scenario of a JSON object, on model; design() is the 2-DOF pair."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be an object")
    _check_keys(d, {"type", *_SCENARIO_FIELDS}, ctx)
    kind = d.get("type", "torque_loop")
    if kind not in ("torque_loop", "impedance"):
        raise ConfigError(f"{ctx}.type must be 'torque_loop' or 'impedance'")
    if kind == "torque_loop" and any(name in d for name in _IMPEDANCE_FIELDS):
        raise ConfigError(
            f"{ctx}: {'/'.join(_IMPEDANCE_FIELDS)} only apply to impedance scenarios"
        )
    if kind == "impedance" and "i_d" not in d:
        raise ConfigError(f"{ctx}.i_d is required for an impedance scenario")
    kw = {"controller": "two_dof"}
    for name in _SCENARIO_FIELDS:
        if name not in d:
            continue
        if name == "controller":
            kw[name] = _parse_controller(d[name], f"{ctx}.{name}")
        elif name in _SCENARIO_SIGNALS:
            kw[name] = _parse_signal(d[name], f"{ctx}.{name}")
        elif name == "compensator_on":
            if not isinstance(d[name], bool):
                raise ConfigError(f"{ctx}.{name} must be a boolean")
            kw[name] = d[name]
        else:
            kw[name] = _get_num(d, name, ctx)
    if kw["controller"] == "two_dof":
        kw["controller"] = design()
    try:
        return TorqueLoopScenario(model=model, **kw)
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(f"{ctx}.{exc}") from exc


@dataclass(frozen=True)
class ProjectConfig:
    """Parsed project file: plant, weights, named scenarios, output dir.

    parse_config binds each scenario to this config's plant and weights,
    so a scenario is ready to simulate.  Its model and its 2-DOF
    controller compare by identity (RationalTF defines no equality).
    """

    plant: SeaParams = field(default_factory=default_params)
    weights: SynthesisWeights = _DEFAULT_WEIGHTS
    scenarios: dict = field(default_factory=dict)
    output_dir: str = "out"


def parse_config(raw: dict) -> ProjectConfig:
    """Validate and convert a decoded JSON object.

    Raises ConfigError on any unknown key, missing required key, wrong
    type, unsupported format_version, or physical-invariant violation.
    A config with scenarios builds its plant, and synthesizes the 2-DOF
    pair once if a scenario uses it, so a failing design raises
    NumericsError here.
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
    for name in sd:  # a name is the stem of its trace_<name> files
        if not name or {"/", os.sep, os.altsep} & set(name):
            raise ConfigError(f"config.scenarios: name {name!r} is no file-name stem")
    model = build_plant(params) if sd else None
    design = functools.cache(lambda: h2_synthesize(model.P, weights))
    scenarios = {
        name: _parse_scenario(body, f"config.scenarios.{name}", model, design)
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


def _csv_blocks(columns: list, line: str):
    """The CSV text of columns, _CSV_BLOCK_ROWS rows stacked at a time."""
    for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in columns])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_csv(path: str, header: list[str], columns: list) -> None:
    """Numeric columns as CSV: 9 significant digits, LF line endings.

    ValueError, before the file is opened, unless header names each
    column once and the columns have one length.  Rows are stacked and
    formatted a block at a time, with one %-operation per block.  From
    4 * _CSV_BLOCK_ROWS rows up, on a host with os.fork and 2 usable
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
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) != 1:
        raise ValueError(f"columns must have one length, not {lengths}")
    line = ",".join(["%.9g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if lengths[0] < 4 * _CSV_BLOCK_ROWS or not hasattr(os, "fork") \
                or _usable_cpus() < 2:
            fh.writelines(_csv_blocks(columns, line))
            return
        fh.flush()  # the helper inherits a copy of fh's buffer
        half = lengths[0] // 2
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                fh.writelines(_csv_blocks([c[:half] for c in columns], line))
                fh.flush()  # os._exit does not flush
                status = 0
            finally:
                os._exit(status)
        try:
            tail = list(_csv_blocks([c[half:] for c in columns], line))
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"cannot write {path}: the CSV helper process exited "
                          f"with status {os.waitstatus_to_exitcode(status)}")
        fh.writelines(tail)
