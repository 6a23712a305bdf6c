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
from .scalarmul import scalar_mul


@dataclass(frozen=True)
class CurvePreset:
    name: str
    curve: CurveParams
    base: AffinePoint


def curve_from_ints(spec: FieldSpec, a: int, b: int, gx: int, gy: int,
                    order: int | None = None
                    ) -> tuple[CurveParams, AffinePoint]:
    """The curve over `spec` with coefficients a, b and its base point
    G = (gx, gy), from plain ints.  A stated `order` must be at least 1,
    take G to infinity and be at most one bit wider than the field's
    size q, since by Hasse's bound no curve over GF(q) has more than
    q + 1 + 2 sqrt(q) points (else BadValue; NotOnCurve when G is off the
    curve)."""
    curve = CurveParams(field=spec, a=spec.element(a), b=spec.element(b),
                        order=order)
    base = AffinePoint(spec.element(gx), spec.element(gy))
    widest = spec.order.bit_length() + 1
    if order is not None and order.bit_length() > widest:
        # before `scalar_mul`, whose own width bound speaks of a scalar
        raise BadValue(f"order {_show(order)} is wider than {widest} bits, "
                       f"more than any curve over {spec.tag} has points")
    if order is not None and (
            order < 1 or not scalar_mul(curve, order, base).is_infinity):
        raise BadValue(f"order {_show(order)} is not a positive multiple of "
                       f"the base point's order")
    return curve, base


def _preset(name: str, spec: FieldSpec, *ints: int,
            order: int | None = None) -> CurvePreset:
    return CurvePreset(name, *curve_from_ints(spec, *ints, order))


_ALL = [
    # toy scale: fully enumerable groups
    _preset("p17", FieldSpec.prime(17), 2, 2, 5, 1, order=19),
    _preset("b4", FieldSpec.binary(4, 0b10011), 1, 6, 8, 0, order=24),
    # mid-size primes (2^17-1, 2^32-5, 2^48-65, 2^64-189), all 3 mod 4
    _preset("prime17", FieldSpec.prime(131071), 2, 3, 0x7, 0x4478),
    _preset("prime32", FieldSpec.prime(4294967291), 2, 3, 0x6, 0x3a924feb),
    _preset("prime48", FieldSpec.prime(281474976710591), 2, 3,
            0x5, 0x1acc1f5f24e4),
    _preset("prime64", FieldSpec.prime(18446744073709551427), 2, 3,
            0x7, 0x4f4bbdf88bae1a87),
    # mid-size binary fields over trinomials
    _preset("binary17", FieldSpec.binary(17, (1 << 17) | (1 << 3) | 1),
            1, 0xb, 0x3, 0x1a1ca),
    _preset("binary33", FieldSpec.binary(33, (1 << 33) | (1 << 10) | 1),
            1, 0xb, 0x6, 0x18b635af7),
    _preset("binary47", FieldSpec.binary(47, (1 << 47) | (1 << 5) | 1),
            1, 0xb, 0x3, 0x68431f090d83),
    _preset("binary63", FieldSpec.binary(63, (1 << 63) | (1 << 1) | 1),
            1, 0xb, 0x3, 0x6880800080000001),
]

PRESETS: dict[str, CurvePreset] = {p.name: p for p in _ALL}


def get_preset(name: str) -> CurvePreset:
    if not isinstance(name, str):
        raise BadValue(f"curve preset name must be a str, got "
                       f"{type(name).__name__}")
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise BadValue(f"unknown curve preset {_show(name)}; known: "
                       f"{known}") from None
