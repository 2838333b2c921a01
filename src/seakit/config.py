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

write_csv is the package's one writer of numeric CSV tables.  It writes
each value as "%.9g" % v does, byte for byte, but formats a block of
rows with whole-array numpy arithmetic and table lookups instead of one
% a value, and writes each block's bytes before it formats the next.
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
_CSV_SUB_ROWS = 1024

# write_csv's "%.9g" runs on whole arrays, with table lookups and integer
# arithmetic: an exact float-to-decimal conversion in the manner of Ryu
# (Adams, PLDI 2018).  A value v = +-m 10^(x - 8), m its nine digits, is
# two little-endian words, 16 bytes, whose NUL bytes the text drops:
#   byte 0: "-";  bytes 1 .. -x: the "0.000" prefix of -4 <= x < 0;
#   from byte 1, or from byte 2 - x after a prefix: the nine digits, with
#   a NUL byte shifted in for the point that %g writes after digit x + 1
#   (fixed notation) or after digit 1 (the "e%+03d" form);
#   bytes 11 .. 14: the "e%+03d" suffix;  byte 15: the separator.
# So "-0.000123456789," and "-1.23456789e-05," fill all 16 bytes.  A row
# of _CSV_LAYOUT per (sign, x, trailing zeros of m) masks the last eight
# digits before and after the point, keeping those %g writes, gives the
# shift that places the digits, and holds the "-", the prefix, the point
# and the suffix.  x is floor(log10(2**e)) for the binary exponent e of
# v, plus one where |v| reaches the next power of 10, and m is
# |v| 10^(8 - x) rounded.  With 10^(8 - x) from a table of correctly
# rounded powers, that product is within 3e-7 of exact, so m is exact
# unless the product lies within 1e-6 of a tie.  Those values, zeros,
# non-finite values and those whose binade [2**e, 2**(e + 1)) does not
# start in [1e-99, 1e99), so every |x| >= 100 and the subnormals, are
# formatted by "%.9g" % v.
_CSV_X = 100  # row of x = 0; row r < 2 * _CSV_X holds x = r - _CSV_X


def _csv_tables():
    """The formatter's tables; building them takes about half a millisecond."""
    def words(b):  # the little-endian words of the bytes along the last axis
        return np.ascontiguousarray(b, dtype=np.uint8).view("<u8")

    ten = np.array([float(f"1e{k}") for k in range(-_CSV_X, _CSV_X + 9)])  # 10**k, rounded
    nx = 2 * _CSV_X
    # by the top 12 bits of v: the row of its smaller x (0: fall back), and
    # the |v| from which x is one larger
    e = np.arange(4096)
    xe = (((e & 2047) - 1023) * 78913) >> 18  # floor(log10(2**(e - 1023)))
    fast = (e & 2047 > 0) & (e & 2047 < 2047) & (xe > -_CSV_X) & (xe < _CSV_X - 1)
    row = np.where(fast, (e >> 11) * nx + xe + _CSV_X, 0)
    above = np.where(fast, ten[np.clip(xe + 1 + _CSV_X, 0, nx)], 2.0)
    # by row: 10^(8 - x), and 1 in row 0, where the values % writes are
    x = np.arange(-_CSV_X, _CSV_X)
    scale = np.tile(ten[8 - x + _CSV_X], 2)
    scale[0] = 1.0
    # by (row, trailing zeros of m), six words: the masks of the last
    # eight digits before and after the point, the fixed bytes of the two
    # words, and the left and right shifts that place the digits
    fixed, prefix = (x >= -4) & (x < 9), (x >= -4) & (x < 0)
    # of the last eight digits: those before the point (8: it is not
    # among them), and those %g writes
    point = np.where(prefix, 8, np.where(fixed, x, 0))[:, None]
    kept = np.maximum(8 - np.arange(9), np.where(fixed, x, 0)[:, None])
    text = np.frombuffer(b"".join(
        (b"\0" + b"0.000"[:1 - k] if -4 <= k < 0 else b"").ljust(11, b"\0")
        + (b"" if -4 <= k < 9 else b"e%+03d" % k).ljust(5, b"\0")
        for k in range(-_CSV_X, _CSV_X)), np.uint8).reshape(nx, 1, 16)
    dot = (np.arange(16) == 2 + point[..., None]) & (kept > point)[..., None]
    text = text + dot * ord(".")
    j = np.arange(8)
    keep, before = words(255 * (j < kept[..., None]))[..., 0], words(255 * (j < point))
    shift = np.where(prefix, 16 - 8 * x, 8)[:, None]  # to the byte of the first digit
    layout = np.zeros((2, nx, 9, 6), np.uint64)
    layout[..., 0], layout[..., 1] = keep & before, keep & ~before
    layout[..., 2:4] = words(text)
    layout[..., 4], layout[..., 5] = shift, 56 - shift
    layout[1, ..., 2] |= np.uint64(ord("-"))
    # "dddd" and the count of trailing zeros of 0 .. 9999
    d = np.arange(10, dtype=np.uint64) + np.uint64(ord("0"))
    digits = d[:, None, None, None] | d[:, None, None] << np.uint64(8) \
        | d[:, None] << np.uint64(16) | d << np.uint64(24)
    d = np.arange(10) == 0
    zeros = d * (1 + d[:, None] * (1 + d[:, None, None] * (1 + d[:, None, None, None])))
    return row, above, scale, layout.reshape(-1, 6), digits.ravel(), zeros.ravel()


_CSV_ROW, _CSV_ABOVE, _CSV_SCALE, _CSV_LAYOUT, _CSV_DIGITS, _CSV_ZEROS = _csv_tables()
_CSV_ZERO = np.frombuffer(b"0".ljust(16, b"\0"), "<u8")
_CSV_SEPARATORS = np.array([ord(","), ord("\n")], "<u8") << np.uint64(56)


def _csv_words(v: np.ndarray) -> np.ndarray:
    """The (len(v), 2) words of "%.9g" % v for a float64 vector v.

    A 16-character text of %, such as "-1.23456789e+100", fills both
    words and leaves no byte for the separator."""
    bits = v.view(np.uint64)
    top = (bits >> np.uint64(52)).view(np.int64)
    row = np.take(_CSV_ROW, top)
    slow = row == 0
    a = np.abs(v)
    a[slow] = 1.0  # keeps their arithmetic finite; % writes them below
    row += a >= np.take(_CSV_ABOVE, top)
    s = a * np.take(_CSV_SCALE, row)
    s += 0.5
    m = np.floor(s)
    s -= m
    slow |= (s < 1e-6) | (s > 1.0 - 1e-6)
    m = m.astype(np.int64)
    carry = m == 1_000_000_000
    if carry.any():
        m[carry] = 100_000_000
        row[carry] += 1
    d0 = m // 100_000_000
    m -= d0 * 100_000_000
    g1 = m // 10_000
    m -= g1 * 10_000
    t = np.take(_CSV_LAYOUT,
                row * 9 + np.take(_CSV_ZEROS, m) + (m == 0) * np.take(_CSV_ZEROS, g1),
                axis=0)
    eight = np.take(_CSV_DIGITS, g1) | np.take(_CSV_DIGITS, m) << np.uint64(32)
    before, after = eight & t[:, 0], eight & t[:, 1]
    w = np.empty((len(v), 2), np.uint64)
    d0 += ord("0")
    w[:, 0] = (d0.view(np.uint64) | before << np.uint64(8) | after << np.uint64(16)) \
        << t[:, 4] | t[:, 2]
    w[:, 1] = before >> t[:, 5] | after >> np.uint64(40) | t[:, 3]
    slow = np.flatnonzero(slow)
    if len(slow):
        text = "".join([("%.9g" % f).ljust(16, "\0") for f in v[slow].tolist()])
        w[slow] = np.frombuffer(text.encode("ascii"), "<u8").reshape(-1, 2)
    return w


def _csv_text(block: list, separators: np.ndarray, buf: bytearray) -> bytearray:
    """The CSV rows of a block of columns, as ASCII bytes.

    A column whose bits are all zero is written "0", and one bitwise
    equal to an earlier column (-0.0 and NaN payloads count) repeats its
    words, so each distinct column is formatted once.  They are formatted
    _CSV_SUB_ROWS rows at a time, which bounds the working arrays, and
    their words are laid out in buf, which _csv_blocks hands from block
    to block.  A block that holds a 16-character text of % is laid out
    again at 32 bytes a value, so that each separator has its byte."""
    source, distinct = [], []
    for c in block:
        c = np.asarray(c, dtype=np.float64).view(np.int64)
        if not c.any():
            source.append(-1)  # the zero column, stacked after the distinct ones
            continue
        for i, d in enumerate(distinct):
            if d[-1] == c[-1] and np.array_equal(d, c):
                break
        else:
            i = len(distinct)
            distinct.append(c)
        source.append(i)
    n, k = len(block[0]), len(block)
    if len(buf) != n * k * 16:
        buf = bytearray(n * k * 16)
    out = np.frombuffer(buf, "<u8").reshape(n, k, 2)
    for r in range(0, n, _CSV_SUB_ROWS):
        rows = min(n - r, _CSV_SUB_ROWS)
        w = np.empty((rows, len(distinct) + 1, 2), np.uint64)
        if distinct:
            v = np.column_stack([d[r:r + rows] for d in distinct])
            w[:, :-1] = _csv_words(v.view(np.float64).ravel()).reshape(rows, -1, 2)
        w[:, -1] = _CSV_ZERO
        np.take(w, source, axis=1, out=out[r:r + rows], mode="wrap")
    if np.frombuffer(buf, np.uint8)[15::16].any():  # a 16-character text
        buf = bytearray(np.concatenate([out, np.zeros_like(out)], axis=2))
        out = np.frombuffer(buf, "<u8").reshape(n, k, 4)
    out[:, :, -1] |= separators
    return buf.translate(None, b"\0")


def _csv_blocks(columns: list):
    """The CSV bytes of columns, _CSV_BLOCK_ROWS rows at a time."""
    separators = _CSV_SEPARATORS[[0] * (len(columns) - 1) + [1]]
    buf = bytearray(min(len(columns[0]), _CSV_BLOCK_ROWS) * len(columns) * 16)
    for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        yield _csv_text([c[i:i + _CSV_BLOCK_ROWS] for c in columns], separators, buf)


def write_csv(path: str, header: list[str], columns: list) -> None:
    """Numeric columns as CSV: 9 significant digits, LF line endings.

    ValueError, before the file is opened, unless header names each
    column once and the columns have one length.  Each value reads as
    "%.9g" % v; the rows are formatted a block at a time, with whole-array
    numpy arithmetic that leaves to % only the values it cannot prove
    exact (_csv_words), and each distinct column of a block is formatted
    once (_csv_text).  Each block's bytes are written as they are made,
    so the text of the whole table is never held.

    Tables that mix text and numbers (plant.csv, summary.csv) are written
    by the commands that make them.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) != 1:
        raise ValueError(f"columns must have one length, not {lengths}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_csv_blocks(columns))
