"""Elliptic-curve group law in affine and projective coordinates.

Two curve shapes are supported, keyed by the field kind:

  GF(p):   y^2 = x^3 + a*x + b          (nonsingular: 4a^3 + 27b^2 != 0)
  GF(2^m): y^2 + x*y = x^3 + a*x^2 + b  (nonsingular: b != 0)

Projective work uses Jacobian coordinates over GF(p) (x = X/Z^2,
y = Y/Z^3) and Lopez-Dahab coordinates over GF(2^m) (x = X/Z, y = Y/Z^2).
Z = 0 encodes the point at infinity; its canonical triple is (1, 1, 0).

The projective kernels are written against the op recorder of
`scalarmul` (the tape): their values are tape indices, and each add,
sub, mul, sqr and inv is computed and recorded there, so one run of the
formulas yields the point, its op counts and its task graph alike.  The
public projective functions below run a kernel on a fresh tape.
Doubling is branch-free: the formulas send Z to 0 exactly when the true
result is infinity.  Mixed addition branches on concrete zero tests
(infinity input, equal or inverse points); only the general path is the
measured steady state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import (FieldMismatch, NotOnCurve, OracleBoundExceeded,
                     SystemMismatch)
from .fields import (FieldElement, FieldKind, FieldSpec, ff_add, ff_inv,
                     ff_mul, ff_neg, ff_sqr, ff_sub)

_POINT_SCAN_BOUND = 1 << 16


class CoordSystem(enum.Enum):
    JACOBIAN = "jacobian"
    LOPEZ_DAHAB = "lopez-dahab"


@dataclass(frozen=True)
class CurveParams:
    """A validated curve over a concrete field, optionally with a known
    base-point order attached for reference."""

    field: FieldSpec
    a: FieldElement
    b: FieldElement
    order: Optional[int] = None

    def __post_init__(self):
        if self.a.spec != self.field or self.b.spec != self.field:
            raise FieldMismatch("curve coefficients must live in the curve field")
        if self.field.kind is FieldKind.PRIME:
            a3 = ff_mul(ff_sqr(self.a), self.a)
            disc = ff_add(self._small(4) * a3, self._small(27) * ff_sqr(self.b))
            if disc.is_zero():
                raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
        else:
            if self.b.is_zero():
                raise ValueError("singular curve: b = 0")

    def _small(self, n: int) -> FieldElement:
        return self.field.element(n)

    @property
    def system(self) -> CoordSystem:
        if self.field.kind is FieldKind.PRIME:
            return CoordSystem.JACOBIAN
        return CoordSystem.LOPEZ_DAHAB


@dataclass(frozen=True)
class AffinePoint:
    """An affine point; (None, None) is the point at infinity."""

    x: Optional[FieldElement]
    y: Optional[FieldElement]

    @classmethod
    def infinity(cls) -> "AffinePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x!r}, {self.y!r})"


INFINITY = AffinePoint.infinity()


@dataclass(frozen=True)
class ProjectivePoint:
    system: CoordSystem
    X: FieldElement
    Y: FieldElement
    Z: FieldElement

    @property
    def is_infinity(self) -> bool:
        return self.Z.is_zero()


# ---------------------------------------------------------------------------
# membership and affine group law

def _check_field(curve: CurveParams, P: AffinePoint) -> None:
    if P.is_infinity:
        return
    if P.x.spec != curve.field or P.y.spec != curve.field:
        raise FieldMismatch("point coordinates live outside the curve field")


def is_on_curve(curve: CurveParams, P: AffinePoint) -> bool:
    """Membership test; infinity belongs to every curve."""
    _check_field(curve, P)
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    if curve.field.kind is FieldKind.PRIME:
        lhs = ff_sqr(y)
        rhs = ff_add(ff_add(ff_mul(ff_sqr(x), x), ff_mul(curve.a, x)), curve.b)
    else:
        lhs = ff_add(ff_sqr(y), ff_mul(x, y))
        rhs = ff_add(ff_add(ff_mul(ff_sqr(x), x), ff_mul(curve.a, ff_sqr(x))),
                     curve.b)
    return lhs == rhs


def _require_on_curve(curve: CurveParams, P: AffinePoint) -> None:
    if not is_on_curve(curve, P):
        raise NotOnCurve(f"{P!r} does not satisfy the curve equation")


def point_neg(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    if P.is_infinity:
        return INFINITY
    if curve.field.kind is FieldKind.PRIME:
        return AffinePoint(P.x, ff_neg(P.y))
    return AffinePoint(P.x, ff_add(P.x, P.y))


def _add_affine_raw(curve: CurveParams, P: AffinePoint,
                    Q: AffinePoint) -> AffinePoint:
    """Group law without membership checks (both points assumed valid)."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if curve.field.kind is FieldKind.PRIME:
            inverse = Q.y == ff_neg(P.y)
        else:
            inverse = Q.y == ff_add(P.x, P.y)
        if inverse:
            return INFINITY
        return _double_affine_raw(curve, P)
    if curve.field.kind is FieldKind.PRIME:
        lam = ff_mul(ff_sub(Q.y, P.y), ff_inv(ff_sub(Q.x, P.x)))
        x3 = ff_sub(ff_sub(ff_sqr(lam), P.x), Q.x)
        y3 = ff_sub(ff_mul(lam, ff_sub(P.x, x3)), P.y)
    else:
        lam = ff_mul(ff_add(P.y, Q.y), ff_inv(ff_add(P.x, Q.x)))
        x3 = ff_add(ff_add(ff_add(ff_add(ff_sqr(lam), lam), P.x), Q.x), curve.a)
        y3 = ff_add(ff_add(ff_mul(lam, ff_add(P.x, x3)), x3), P.y)
    return AffinePoint(x3, y3)


def _double_affine_raw(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    if P.is_infinity:
        return INFINITY
    if curve.field.kind is FieldKind.PRIME:
        if P.y.is_zero():
            return INFINITY
        three_x2 = ff_mul(curve._small(3), ff_sqr(P.x))
        lam = ff_mul(ff_add(three_x2, curve.a),
                     ff_inv(ff_mul(curve._small(2), P.y)))
        x3 = ff_sub(ff_sub(ff_sqr(lam), P.x), P.x)
        y3 = ff_sub(ff_mul(lam, ff_sub(P.x, x3)), P.y)
    else:
        if P.x.is_zero():
            return INFINITY
        lam = ff_add(P.x, ff_mul(P.y, ff_inv(P.x)))
        x3 = ff_add(ff_add(ff_sqr(lam), lam), curve.a)
        y3 = ff_add(ff_sqr(P.x), ff_mul(ff_add(lam, curve.field.one), x3))
    return AffinePoint(x3, y3)


def point_add_affine(curve: CurveParams, P: AffinePoint,
                     Q: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    _require_on_curve(curve, Q)
    return _add_affine_raw(curve, P, Q)


def point_double_affine(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    return _double_affine_raw(curve, P)


# ---------------------------------------------------------------------------
# projective kernels, run on a tape (`ops`)

def _inf_triple(ops, curve: CurveParams):
    one = ops.const(curve.field.one, "one")
    zero = ops.const(curve.field.zero, "zero")
    return one, one, zero


def _embed_kernel(ops, curve: CurveParams, qx: FieldElement, qy: FieldElement):
    """Lift an affine point to projective without arithmetic."""
    return (ops.const(qx, "Px"), ops.const(qy, "Py"),
            ops.const(curve.field.one, "one"))


def _jac_double_kernel(ops, curve, X1, Y1, Z1):
    """Jacobian doubling; branch-free, Z3 = 0 iff the result is infinity."""
    a = ops.const(curve.a, "a")
    xx = ops.sqr(X1)
    yy = ops.sqr(Y1)
    yyyy = ops.sqr(yy)
    zz = ops.sqr(Z1)
    t = ops.mul(X1, yy)
    s = ops.add(t, t)
    s = ops.add(s, s)                      # S = 4*X1*Y1^2
    zz2 = ops.sqr(zz)
    m = ops.add(ops.add(xx, xx), xx)
    m = ops.add(m, ops.mul(a, zz2))        # M = 3*X1^2 + a*Z1^4
    x3 = ops.sub(ops.sqr(m), ops.add(s, s))
    e = ops.add(yyyy, yyyy)
    e = ops.add(e, e)
    e = ops.add(e, e)                      # 8*Y1^4
    y3 = ops.sub(ops.mul(m, ops.sub(s, x3)), e)
    t2 = ops.mul(Y1, Z1)
    z3 = ops.add(t2, t2)                   # Z3 = 2*Y1*Z1
    return x3, y3, z3


def _jac_madd_kernel(ops, curve, X1, Y1, Z1, qx, qy):
    """Jacobian mixed addition (projective + affine)."""
    if ops.is_zero(Z1):
        return _embed_kernel(ops, curve, qx, qy)
    x2 = ops.const(qx, "Px")
    y2 = ops.const(qy, "Py")
    zz = ops.sqr(Z1)
    u2 = ops.mul(x2, zz)
    zzz = ops.mul(Z1, zz)
    s2 = ops.mul(y2, zzz)
    h = ops.sub(u2, X1)
    r = ops.sub(s2, Y1)
    if ops.is_zero(h):
        if ops.is_zero(r):
            return _jac_double_kernel(ops, curve, X1, Y1, Z1)
        return _inf_triple(ops, curve)
    hh = ops.sqr(h)
    hhh = ops.mul(h, hh)
    v = ops.mul(X1, hh)
    x3 = ops.sub(ops.sub(ops.sqr(r), hhh), ops.add(v, v))
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.mul(Y1, hhh))
    z3 = ops.mul(Z1, h)
    return x3, y3, z3


def _jac_to_affine_kernel(ops, curve, X1, Y1, Z1):
    if ops.is_zero(Z1):
        return None
    zi = ops.inv(Z1)
    zi2 = ops.sqr(zi)
    x = ops.mul(X1, zi2)
    y = ops.mul(Y1, ops.mul(zi2, zi))
    return x, y


def _ld_double_kernel(ops, curve, X1, Y1, Z1):
    """Lopez-Dahab doubling; branch-free, Z3 = 0 iff infinity."""
    a = ops.const(curve.a, "a")
    b = ops.const(curve.b, "b")
    t1 = ops.sqr(Z1)                       # Z1^2
    t2 = ops.sqr(X1)                       # X1^2
    z3 = ops.mul(t1, t2)                   # Z3 = X1^2*Z1^2
    x3 = ops.sqr(t2)                       # X1^4
    t1 = ops.sqr(t1)                       # Z1^4
    t2 = ops.mul(b, t1)                    # b*Z1^4
    x3 = ops.add(x3, t2)                   # X3 = X1^4 + b*Z1^4
    t1 = ops.sqr(Y1)                       # Y1^2
    t1 = ops.add(t1, ops.mul(a, z3))       # a*Z3 + Y1^2
    t1 = ops.add(t1, t2)                   # a*Z3 + Y1^2 + b*Z1^4
    y3 = ops.add(ops.mul(x3, t1), ops.mul(t2, z3))
    return x3, y3, z3


def _ld_madd_kernel(ops, curve, X1, Y1, Z1, qx, qy):
    """Lopez-Dahab mixed addition (projective + affine)."""
    if ops.is_zero(Z1):
        return _embed_kernel(ops, curve, qx, qy)
    x2 = ops.const(qx, "Px")
    y2 = ops.const(qy, "Py")
    a_c = ops.const(curve.a, "a")
    t1 = ops.sqr(Z1)                       # Z1^2
    aa = ops.add(ops.mul(y2, t1), Y1)      # A = y2*Z1^2 + Y1
    bb = ops.add(ops.mul(x2, Z1), X1)      # B = x2*Z1 + X1
    if ops.is_zero(bb):
        if ops.is_zero(aa):
            return _ld_double_kernel(ops, curve, X1, Y1, Z1)
        return _inf_triple(ops, curve)
    c = ops.mul(Z1, bb)                    # C = Z1*B
    z3 = ops.sqr(c)                        # Z3 = C^2
    d = ops.mul(ops.sqr(bb), ops.add(c, ops.mul(a_c, t1)))
    e = ops.mul(aa, c)                     # E = A*C
    x3 = ops.add(ops.add(ops.sqr(aa), e), d)
    f = ops.add(x3, ops.mul(x2, z3))       # F = X3 + x2*Z3
    g = ops.mul(ops.add(x2, y2), ops.sqr(z3))
    y3 = ops.add(ops.mul(ops.add(e, z3), f), g)
    return x3, y3, z3


def _ld_to_affine_kernel(ops, curve, X1, Y1, Z1):
    if ops.is_zero(Z1):
        return None
    zi = ops.inv(Z1)
    x = ops.mul(X1, zi)
    y = ops.mul(Y1, ops.sqr(zi))
    return x, y


def kernels_for(curve: CurveParams):
    """Return (double, madd, to_affine) kernel functions for the curve."""
    if curve.system is CoordSystem.JACOBIAN:
        return _jac_double_kernel, _jac_madd_kernel, _jac_to_affine_kernel
    return _ld_double_kernel, _ld_madd_kernel, _ld_to_affine_kernel


# ---------------------------------------------------------------------------
# public projective interface (plain elements)

def _check_system(curve: CurveParams, P: ProjectivePoint) -> None:
    if P.system is not curve.system:
        raise SystemMismatch(
            f"point uses {P.system.value} but the curve needs {curve.system.value}")
    if P.X.spec != curve.field:
        raise FieldMismatch("point coordinates live outside the curve field")


def to_projective(curve: CurveParams, P: AffinePoint) -> ProjectivePoint:
    _require_on_curve(curve, P)
    f = curve.field
    if P.is_infinity:
        return ProjectivePoint(curve.system, f.one, f.one, f.zero)
    return ProjectivePoint(curve.system, P.x, P.y, f.one)


def _on_tape(curve: CurveParams, P: ProjectivePoint):
    """A fresh tape holding P's coordinates, and their indices."""
    from .scalarmul import _Tape  # scalarmul imports this module
    tape = _Tape(curve.field)
    return tape, (tape.const(P.X, "X"), tape.const(P.Y, "Y"),
                  tape.const(P.Z, "Z"))


def to_affine(curve: CurveParams, P: ProjectivePoint) -> AffinePoint:
    """Convert back to affine with exactly one field inversion."""
    _check_system(curve, P)
    tape, (X, Y, Z) = _on_tape(curve, P)
    out = kernels_for(curve)[2](tape, curve, X, Y, Z)
    if out is None:
        return INFINITY
    return AffinePoint(tape.element(out[0]), tape.element(out[1]))


def point_double_projective(curve: CurveParams,
                            P: ProjectivePoint) -> ProjectivePoint:
    _check_system(curve, P)
    tape, (X, Y, Z) = _on_tape(curve, P)
    out = kernels_for(curve)[0](tape, curve, X, Y, Z)
    return ProjectivePoint(curve.system, *map(tape.element, out))


def point_add_projective(curve: CurveParams, P: ProjectivePoint,
                         q: AffinePoint) -> ProjectivePoint:
    """Mixed addition: projective accumulator plus affine point."""
    _check_system(curve, P)
    _require_on_curve(curve, q)
    if q.is_infinity:
        raise NotOnCurve("mixed addition needs a finite affine addend")
    tape, (X, Y, Z) = _on_tape(curve, P)
    out = kernels_for(curve)[1](tape, curve, X, Y, Z, q.x, q.y)
    return ProjectivePoint(curve.system, *map(tape.element, out))


def projective_eq(curve: CurveParams, P: ProjectivePoint,
                  Q: ProjectivePoint) -> bool:
    """Equality of the represented points via cross-multiplication."""
    _check_system(curve, P)
    _check_system(curve, Q)
    if P.is_infinity or Q.is_infinity:
        return P.is_infinity and Q.is_infinity
    if curve.system is CoordSystem.JACOBIAN:
        z1z1, z2z2 = ff_sqr(P.Z), ff_sqr(Q.Z)
        if ff_mul(P.X, z2z2) != ff_mul(Q.X, z1z1):
            return False
        z1c = ff_mul(z1z1, P.Z)
        z2c = ff_mul(z2z2, Q.Z)
        return ff_mul(P.Y, z2c) == ff_mul(Q.Y, z1c)
    if ff_mul(P.X, Q.Z) != ff_mul(Q.X, P.Z):
        return False
    return ff_mul(P.Y, ff_sqr(Q.Z)) == ff_mul(Q.Y, ff_sqr(P.Z))


# ---------------------------------------------------------------------------
# desk-scale enumeration helpers (test oracles, toy curves)

def enumerate_points(curve: CurveParams) -> list[AffinePoint]:
    """All points including infinity, by scanning every (x, y) pair."""
    pts = [INFINITY]
    for x in curve.field.elements():
        for y in curve.field.elements():
            P = AffinePoint(x, y)
            if is_on_curve(curve, P):
                pts.append(P)
    return pts


def point_order(curve: CurveParams, P: AffinePoint) -> int:
    """Additive order of P by repeated addition (bounded)."""
    _require_on_curve(curve, P)
    if P.is_infinity:
        return 1
    acc = P
    n = 1
    while not acc.is_infinity:
        acc = _add_affine_raw(curve, acc, P)
        n += 1
        if n > _POINT_SCAN_BOUND:
            raise OracleBoundExceeded(
                f"point order exceeds the scan bound {_POINT_SCAN_BOUND}")
    return n
