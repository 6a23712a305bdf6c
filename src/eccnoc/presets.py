"""Built-in curves with verified base points.

The two toy curves are small enough to enumerate exhaustively and carry
their base-point order.  The mid-size family covers both field kinds at
17 to 64 bits for schedule experiments; their base points satisfy the
curve equation by construction (solved for y at a small x) and the test
suite re-checks membership for every entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import AffinePoint, CurveParams
from .errors import BadValue
from .fields import FieldSpec, _show


@dataclass(frozen=True)
class CurvePreset:
    name: str
    curve: CurveParams
    base: AffinePoint


def curve_from_ints(spec: FieldSpec, a: int, b: int, gx: int, gy: int,
                    order: int | None = None
                    ) -> tuple[CurveParams, AffinePoint]:
    """The curve over `spec` with coefficients a, b and its base point
    (gx, gy), from plain ints."""
    curve = CurveParams(field=spec, a=spec.element(a), b=spec.element(b),
                        order=order)
    return curve, AffinePoint(spec.element(gx), spec.element(gy))


def _prime_preset(name: str, p: int, *ints: int,
                  order: int | None = None) -> CurvePreset:
    return CurvePreset(name, *curve_from_ints(FieldSpec.prime(p), *ints,
                                              order))


def _binary_preset(name: str, m: int, poly: int, *ints: int,
                   order: int | None = None) -> CurvePreset:
    return CurvePreset(name, *curve_from_ints(FieldSpec.binary(m, poly),
                                              *ints, order))


_ALL = [
    # toy scale: fully enumerable groups
    _prime_preset("p17", 17, 2, 2, 5, 1, order=19),
    _binary_preset("b4", 4, 0b10011, 1, 6, 8, 0, order=24),
    # mid-size primes (2^17-1, 2^32-5, 2^48-65, 2^64-189), all 3 mod 4
    _prime_preset("prime17", 131071, 2, 3, 0x7, 0x4478),
    _prime_preset("prime32", 4294967291, 2, 3, 0x6, 0x3a924feb),
    _prime_preset("prime48", 281474976710591, 2, 3, 0x5, 0x1acc1f5f24e4),
    _prime_preset("prime64", 18446744073709551427, 2, 3,
                  0x7, 0x4f4bbdf88bae1a87),
    # mid-size binary fields over trinomials
    _binary_preset("binary17", 17, (1 << 17) | (1 << 3) | 1, 1, 0xb,
                   0x3, 0x1a1ca),
    _binary_preset("binary33", 33, (1 << 33) | (1 << 10) | 1, 1, 0xb,
                   0x6, 0x18b635af7),
    _binary_preset("binary47", 47, (1 << 47) | (1 << 5) | 1, 1, 0xb,
                   0x3, 0x68431f090d83),
    _binary_preset("binary63", 63, (1 << 63) | (1 << 1) | 1, 1, 0xb,
                   0x3, 0x6880800080000001),
]

PRESETS: dict[str, CurvePreset] = {p.name: p for p in _ALL}


def get_preset(name: str) -> CurvePreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise BadValue(f"unknown curve preset {_show(name)}; known: "
                       f"{known}") from None
