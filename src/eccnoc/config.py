"""Run configuration from INI files, with strict key checking.

A run config can name a curve preset or define a curve inline, set the
scalar, and override the cost model, mesh shape, and core role counts.
Unknown sections or keys raise ConfigError rather than being ignored,
so typos cannot silently fall back to defaults.

Scalars, field values, and coordinates are written as lowercase
big-endian hex without a prefix; plain sizes and counts are decimal.
Both are bare ASCII digits: no sign, `_`, prefix or surrounding space.

Placement files use a single [placement] section mapping core names
(role plus instance index, e.g. mul0) to decimal "col,row" tiles.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field as dc_field, fields, replace
from pathlib import Path
from typing import Optional

from .curves import AffinePoint, CurveParams
from .errors import ConfigError, NotOnCurve
from .fields import FieldKind, FieldSpec, _show
from .nocsim import CoreRole, DEFAULT_ROLE_COUNTS, MeshConfig, Placement
from .presets import curve_from_ints, get_preset
from .procmodel import CostModel

# ASCII classes matched whole: no sign, `_`, prefix, Unicode digit or
# trailing newline gets through
_HEX = re.compile(r"[0-9a-f]+")
_DEC = re.compile(r"[0-9]+")
# at most 9 digits a coordinate, like a core index
_TILE = re.compile(r"([0-9]{1,9}),([0-9]{1,9})")

_KNOWN_KEYS = {
    "curve": {"preset", "kind", "p", "m", "poly", "a", "b", "gx", "gy",
              "order"},
    "run": {"k"},
    "costs": {f.name for f in fields(CostModel)},
    "mesh": {f.name for f in fields(MeshConfig)},
    "roles": {role.value for role in CoreRole},
}


def parse_hex(text: str) -> int:
    """Strict lowercase big-endian hex without prefix."""
    if not _HEX.fullmatch(text):
        raise ConfigError(f"{_show(text)} is not lowercase unprefixed hex")
    return int(text, 16)


def _parse_dec(text: str, what: str) -> int:
    if not _DEC.fullmatch(text):
        raise ConfigError(
            f"{what} must be a decimal integer, got {_show(text)}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's int digit limit
        raise ConfigError(f"{what} has too many digits ({len(text)})") \
            from None


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
    # cores per role for the built-in placements; None without [roles]
    role_counts: Optional[dict[CoreRole, int]] = None

    def cost_model(self) -> CostModel:
        base = (CostModel() if self.curve is None
                else CostModel.default(self.curve.field.kind))
        return replace(base, **self.costs)


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such config file: {p}")
    # no header can name a section with a line break, so `[DEFAULT]` is
    # an ordinary section, checked like any other, not merged into each
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="\n")
    parser.optionxform = str  # keep keys as written
    try:
        text = p.read_text(encoding="utf-8")
        parser.read_string(text, source=str(p))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc
    except configparser.Error as exc:
        # its message spans lines and repeats the whole line; name the
        # line instead (a ParsingError lists each bad line, the first)
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"cannot parse {p}, line {lineno} "
                          f"({type(exc).__name__}): {_show(line)}") from None
    return parser


def _check_keys(parser: configparser.ConfigParser, known: dict) -> None:
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section {_show(section)}")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key {_show(key)} in section [{section}]")


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
            f"curve kind must be prime or binary, got {_show(sec['kind'])}"
        ) from None
    try:
        if kind is FieldKind.PRIME:
            spec = FieldSpec.prime(parse_hex(sec["p"]))
        else:
            spec = FieldSpec.binary(_parse_dec(sec["m"], "m"),
                                    parse_hex(sec["poly"]))
        ints = [parse_hex(sec[key]) for key in ("a", "b", "gx", "gy")]
        order = _parse_dec(sec["order"], "order") if "order" in sec else None
        return (*curve_from_ints(spec, *ints, order), "inline")
    except KeyError as exc:
        raise ConfigError(f"[curve] is missing key {exc.args[0]!r}") from None
    except (ValueError, NotOnCurve) as exc:
        raise ConfigError(f"bad curve parameters: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    parser = _read_ini(path)
    _check_keys(parser, _KNOWN_KEYS)
    cfg = RunConfig()
    if parser.has_section("curve"):
        cfg.curve, cfg.base, cfg.curve_name = _curve_from_section(
            parser["curve"])
    if parser.has_option("run", "k"):
        cfg.k = parse_hex(parser["run"]["k"])
    # the decimal sections: every key is read as `<section>.<key>`, then
    # the section is applied, and checked, as a whole; an absent one
    # applies the defaults
    for section, what in (("costs", "bad cost model"), ("mesh", "bad mesh")):
        sec = parser[section] if parser.has_section(section) else {}
        values = {key: _parse_dec(text, f"{section}.{key}")
                  for key, text in sec.items()}
        try:
            if section == "costs":
                CostModel(**values)  # rejects a cost below 1 at load
                cfg.costs = values
            else:
                cfg.mesh = MeshConfig(**values)
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    # over the default counts; the placement builders check them
    if parser.has_section("roles"):
        cfg.role_counts = {**DEFAULT_ROLE_COUNTS, **{
            CoreRole(key): _parse_dec(text, f"roles.{key}")
            for key, text in parser["roles"].items()}}
    return cfg


def load_placement(path: str | Path) -> Placement:
    parser = _read_ini(path)
    # keys are core names, checked by Placement
    if parser.sections() != ["placement"]:
        raise ConfigError(
            f"{path}: a placement file has one [placement] section and no "
            f"other, got {_show(', '.join(parser.sections()))}")
    entries = {}
    for name, text in parser["placement"].items():
        m = _TILE.fullmatch(text)
        if m is None:
            raise ConfigError(f"tile for {_show(name)} must be decimal "
                              f"'col,row', got {_show(text)}")
        entries[name] = (int(m[1]), int(m[2]))
    try:
        return Placement(entries)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
