"""Run configuration from INI files, with strict key checking.

A run config can name a curve preset or define a curve inline, set the
scalar, and override the cost model, mesh shape, and core role counts.
Unknown sections or keys raise ConfigError rather than being ignored,
so typos cannot silently fall back to defaults.

Scalars, field values, and coordinates are written as lowercase
big-endian hex without a prefix; plain sizes and counts are decimal.

Placement files use a single [placement] section mapping core names
(role plus instance index, e.g. mul0) to "col,row" tiles.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Optional

from .curves import AffinePoint, CurveParams
from .errors import ConfigError
from .fields import FieldKind, FieldSpec
from .nocsim import CoreRole, DEFAULT_ROLE_COUNTS, MeshConfig, Placement
from .presets import PRESETS, get_preset
from .procmodel import CostModel

_HEX = re.compile(r"^[0-9a-f]+$")
_DEC = re.compile(r"^[0-9]+$")

_KNOWN_KEYS = {
    "curve": {"preset", "kind", "p", "m", "poly", "a", "b", "gx", "gy",
              "order"},
    "run": {"k"},
    "costs": {"add", "sub", "mul", "sqr", "inv"},
    "mesh": {"cols", "rows", "hop_cycles", "flits_per_value"},
    "roles": {role.value for role in CoreRole},
}


def parse_hex(text: str) -> int:
    """Strict lowercase big-endian hex without prefix."""
    if not _HEX.match(text):
        raise ConfigError(
            f"{text!r} is not lowercase unprefixed hex")
    return int(text, 16)


def format_hex(value: int) -> str:
    return f"{value:x}"


def _parse_dec(text: str, what: str) -> int:
    if not _DEC.match(text):
        raise ConfigError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


@dataclass
class RunConfig:
    """Everything a command needs: curve, scalar, and machine model."""

    curve: Optional[CurveParams] = None
    base: Optional[AffinePoint] = None
    curve_name: str = ""
    k: Optional[int] = None
    # cost overrides, applied over the default of the curve's field kind
    costs: dict[str, int] = dc_field(default_factory=dict)
    mesh: MeshConfig = dc_field(default_factory=MeshConfig)
    role_counts: dict[CoreRole, int] = dc_field(
        default_factory=lambda: dict(DEFAULT_ROLE_COUNTS))

    def cost_model(self) -> CostModel:
        base = (CostModel() if self.curve is None
                else CostModel.default(self.curve.field.kind))
        return replace(base, **self.costs)

    def use_preset(self, name: str) -> None:
        preset = get_preset(name)
        self.curve = preset.curve
        self.base = preset.base
        self.curve_name = name


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such config file: {p}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys as written
    try:
        parser.read_string(p.read_text(), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from exc
    return parser


def _check_keys(parser: configparser.ConfigParser, known: dict) -> None:
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        allowed = known[section]
        if allowed is None:
            continue  # free-form keys, validated downstream
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")


def _curve_from_section(sec) -> tuple[CurveParams, AffinePoint, str]:
    if "preset" in sec:
        extra = set(sec) - {"preset"}
        if extra:
            raise ConfigError(
                f"[curve] mixes preset with inline keys: {sorted(extra)}")
        try:
            preset = get_preset(sec["preset"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return preset.curve, preset.base, preset.name
    try:
        kind = FieldKind(sec["kind"])
    except KeyError:
        raise ConfigError("[curve] needs either preset or kind") from None
    except ValueError:
        raise ConfigError(
            f"curve kind must be prime or binary, got {sec['kind']!r}") \
            from None
    try:
        if kind is FieldKind.PRIME:
            spec = FieldSpec.prime(parse_hex(sec["p"]))
        else:
            spec = FieldSpec.binary(_parse_dec(sec["m"], "m"),
                                    parse_hex(sec["poly"]))
        a = spec.element(parse_hex(sec["a"]))
        b = spec.element(parse_hex(sec["b"]))
        gx = spec.element(parse_hex(sec["gx"]))
        gy = spec.element(parse_hex(sec["gy"]))
    except KeyError as exc:
        raise ConfigError(f"[curve] is missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"bad curve parameters: {exc}") from exc
    order = None
    if "order" in sec:
        order = _parse_dec(sec["order"], "order")
    try:
        curve = CurveParams(field=spec, a=a, b=b, order=order)
    except ValueError as exc:
        raise ConfigError(f"bad curve parameters: {exc}") from exc
    return curve, AffinePoint(gx, gy), "inline"


def load_run_config(path: str | Path) -> RunConfig:
    parser = _read_ini(path)
    _check_keys(parser, _KNOWN_KEYS)
    cfg = RunConfig()
    if parser.has_section("curve"):
        cfg.curve, cfg.base, cfg.curve_name = _curve_from_section(
            parser["curve"])
    if parser.has_section("run"):
        sec = parser["run"]
        if "k" in sec:
            cfg.k = parse_hex(sec["k"])
    if parser.has_section("costs"):
        sec = parser["costs"]
        cfg.costs = {name: _parse_dec(sec[name], f"costs.{name}")
                     for name in sec}
        try:
            CostModel(**cfg.costs)  # rejects a cost below 1 at load
        except ValueError as exc:
            raise ConfigError(f"bad cost model: {exc}") from exc
    if parser.has_section("mesh"):
        sec = parser["mesh"]
        try:
            cfg.mesh = MeshConfig(**{key: _parse_dec(sec[key], f"mesh.{key}")
                                     for key in sec})
        except ValueError as exc:
            raise ConfigError(f"bad mesh: {exc}") from exc
    if parser.has_section("roles"):
        sec = parser["roles"]
        counts = dict(DEFAULT_ROLE_COUNTS)
        for key in sec:
            counts[CoreRole(key)] = _parse_dec(sec[key], f"roles.{key}")
        if any(n < 0 for n in counts.values()):
            raise ConfigError("role counts must be nonnegative")
        cfg.role_counts = counts
    return cfg


def load_placement(path: str | Path) -> Placement:
    parser = _read_ini(path)
    _check_keys(parser, {"placement": None})
    # placement keys are free-form core names; validate via Placement
    if not parser.has_section("placement"):
        raise ConfigError(f"{path}: missing [placement] section")
    entries = {}
    for name, text in parser["placement"].items():
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(
                f"tile for {name!r} must be 'col,row', got {text!r}")
        try:
            tile = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ConfigError(
                f"tile for {name!r} must be 'col,row', got {text!r}") \
                from None
        entries[name] = tile
    try:
        return Placement(entries)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def preset_names() -> list[str]:
    return sorted(PRESETS)
